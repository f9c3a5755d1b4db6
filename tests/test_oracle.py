"""Differential tests: table arithmetic and the key-time Patterson decoder
against the bit-serial, list-based oracles in `oracles.py`, at the L1/20
receiver code shape (m=10, n=1024, t=20) and at m=8, n=256, t=9 and 10."""

import itertools
import random

import numpy as np
import pytest

import oracles as O
from cbsc import fields as F
from cbsc.goppa import (
    GoppaCode,
    generator_matrix,
    goppa_parity_check,
    patterson_decode,
    random_goppa_code,
)
from cbsc.linalg import mat_reduce, vecmat

M, N, T = 10, 1024, 20


@pytest.fixture(scope="module")
def code():
    return random_goppa_code(M, N, T, np.random.default_rng(2024))


@pytest.mark.parametrize("m", range(2, 11))
def test_gf_mul_inv_exhaustive(m):
    q = 1 << m
    a, b = np.meshgrid(np.arange(q), np.arange(q))
    tab = F.tables(m)
    got = tab.exp_np[tab.log_np[a] + tab.log_np[b]]
    assert np.array_equal(got, O.gf_mul_many(a, b, m))
    for x in range(1, q):
        assert F.gf_inv(x, m) == O.gf_inv(x, m)
    assert tab.exp[tab.log[q - 1] + tab.log[q - 2]] == O.gf_mul(q - 1, q - 2, m)


@pytest.mark.parametrize("m", range(11, 17))
def test_gf_mul_inv_random_pairs(m):
    rnd = random.Random(m)
    q = 1 << m
    tab = F.tables(m)
    for _ in range(300):
        a, b = rnd.randrange(q), rnd.randrange(q)
        assert tab.exp[tab.log[a] + tab.log[b]] == O.gf_mul(a, b, m)
        if a:
            assert F.gf_inv(a, m) == O.gf_inv(a, m)


def test_sqrt_x_and_sqrt_match_oracle():
    rng = np.random.default_rng(5)
    for m, t in [(5, 1), (5, 2), (5, 3), (8, 10), (10, 7)]:
        g = F.random_irreducible(t, m, rng)
        sx = F.poly_sqrt_x(g, m)
        assert sx == O.poly_sqrt_mod([0, 1], g, m)
        sqrt_table = F.poly_sqrt_table(g, m)
        for _ in range(5):
            u = F.poly_trim(rng.integers(0, 1 << m, size=t).tolist())
            assert F.poly_sqrt_mod(u, g, m, sqrt_table) == O.poly_sqrt_mod(u, g, m)
    # the paper-l1 shape, where the oracle's m t - 1 squarings are too
    # slow: one squaring checks the root
    g = F.random_irreducible(64, 12, rng)
    sx = F.poly_sqrt_x(g, 12)
    assert F.poly_deg(sx) < 64 and O.poly_square_mod(sx, g, 12) == [0, 1]


def test_syndrome_poly_matches_definition(code):
    rng = np.random.default_rng(7)
    for w in (0, 1, 5, 21, 40):
        word = np.zeros(N, dtype=np.uint8)
        word[rng.choice(N, size=w, replace=False)] = 1
        assert code.syndrome_poly(word) == O.syndrome_poly(code.g, code.support, word, M)


def test_parity_check_has_the_textbook_row_space():
    # the binary expansion of the syndrome matrix and of (alpha_j^i / g(alpha_j))
    # reduce to the same echelon form, so keys built from either are identical
    code = random_goppa_code(6, 50, 4, np.random.default_rng(3))
    pivots, _, R_free = mat_reduce(goppa_parity_check(code), 2)
    pivots_tb, _, R_free_tb = mat_reduce(O.parity_check_vandermonde(code.g, code.support, 6), 2)
    assert pivots == pivots_tb
    assert np.array_equal(R_free, R_free_tb)


def _agrees_with_oracle(code, word):
    """Patterson's answer for word, checked against the oracle decoder."""
    got = patterson_decode(code, word)
    want = O.patterson_decode(code.g, code.support, word, code.m)
    assert (got is None) == (want is None)
    if got is not None:
        assert np.array_equal(got, want[1])
    return got


def test_patterson_recovers_every_weight(code):
    G = generator_matrix(code)
    rng = np.random.default_rng(11)
    for w in range(T + 1):
        cw = vecmat(rng.integers(0, 2, size=G.shape[0], dtype=np.uint8), G, 2)
        err = np.zeros(N, dtype=np.uint8)
        err[rng.choice(N, size=w, replace=False)] = 1
        got = patterson_decode(code, cw ^ err)
        assert got is not None, f"weight {w}"
        assert np.array_equal(got, err)


def test_patterson_agrees_with_oracle_beyond_radius(code):
    rng = np.random.default_rng(13)
    for w in (T + 1, T + 2, 2 * T + 1):
        word = np.zeros(N, dtype=np.uint8)
        word[rng.choice(N, size=w, replace=False)] = 1
        _agrees_with_oracle(code, word)


def test_patterson_agrees_with_oracle_on_small_codes():
    # a small code makes beyond-radius words decode to a wrong codeword
    # often, so both branches of the comparison are exercised
    rng = np.random.default_rng(17)
    g = F.random_irreducible(3, 5, rng)
    code = GoppaCode(5, 3, g, rng.permutation(32)[:30].tolist())
    outcomes = set()
    for _ in range(60):
        word = rng.integers(0, 2, size=code.n, dtype=np.uint8)
        outcomes.add(_agrees_with_oracle(code, word) is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("t", [10, 9])
def test_patterson_agrees_with_oracle_at_every_weight(t):
    # the key equation's a and b reach degrees t // 2 and (t - 1) // 2, so
    # the interleaved locator has all its coefficients in play; the
    # support is all of GF(256), 0 included
    rng = np.random.default_rng(800 + t)
    code = random_goppa_code(8, 256, t, rng)
    G = generator_matrix(code)
    for i in range(42):
        w = i % (t + 3)
        cw = vecmat(rng.integers(0, 2, size=G.shape[0], dtype=np.uint8), G, 2)
        err = np.zeros(code.n, dtype=np.uint8)
        err[rng.choice(code.n, size=w, replace=False)] = 1
        got = _agrees_with_oracle(code, cw ^ err)
        if w <= t:
            assert got is not None and np.array_equal(got, err)


@pytest.mark.parametrize("m,t", [(4, 2), (4, 5), (10, 20), (12, 64)])
def test_poly_euclid_matches_quotient_loop_and_oracle_inverse(m, t):
    # b of every degree from -1 (b = 0) to t + 2, so deg b >= deg a is
    # covered, at the stops -1 (the gcd), 0 (the inverse) and t // 2 (the
    # key equation)
    rng = np.random.default_rng(900 + m + t)
    g = F.random_irreducible(t, m, rng)
    for deg_b in range(-1, t + 3):
        b = rng.integers(0, 1 << m, size=deg_b + 1).tolist()
        b[-1:] = [int(rng.integers(1, 1 << m))] if b else []
        for stop in (-1, 0, t // 2):
            assert F.poly_euclid(g, b, stop, m) == O.poly_euclid(g, b, stop, m)
    for size in (1, t // 2, t, t + 3):
        p = F.poly_trim(rng.integers(0, 1 << m, size=size).tolist())
        if F.poly_mod(p, g, m):
            assert F.poly_inv_mod(p, g, m) == O.poly_inv_mod(p, g, m)


def test_patterson_agrees_with_oracle_at_l1_20_shape(code):
    # words at distance t and t + 1 from a codeword, and uniform words
    G = generator_matrix(code)
    rng = np.random.default_rng(19)
    for w in (T, T, T + 1, T + 1, None, None):
        if w is None:
            word = rng.integers(0, 2, size=N, dtype=np.uint8)
        else:
            word = vecmat(rng.integers(0, 2, size=G.shape[0], dtype=np.uint8), G, 2)
            word[rng.choice(N, size=w, replace=False)] ^= 1
        got = _agrees_with_oracle(code, word)
        assert (got is not None) if w == T else (got is None or int(got.sum()) <= T)


def test_patterson_with_zero_in_the_support():
    # alpha_j = 0 has no log: its column of the root table is 1 at row 0
    # and the zero sentinel below; errors at its position of every weight
    rng = np.random.default_rng(23)
    m, t = 6, 4
    g = F.random_irreducible(t, m, rng)
    support = rng.permutation(np.arange(1, 1 << m))[:39].tolist()
    support.insert(17, 0)
    code = GoppaCode(m, t, g, support)
    G = generator_matrix(code)
    for w in range(1, t + 2):
        for _ in range(4):
            err = np.zeros(code.n, dtype=np.uint8)
            err[17] = 1
            others = rng.choice(np.delete(np.arange(code.n), 17), size=w - 1, replace=False)
            err[others] = 1
            cw = vecmat(rng.integers(0, 2, size=G.shape[0], dtype=np.uint8), G, 2)
            got = _agrees_with_oracle(code, cw ^ err)
            if w <= t:
                assert np.array_equal(got, err)


def test_patterson_on_a_full_support_code():
    # n = 2^m: the support is the whole field; every error of weight <= t,
    # and uniform words against the oracle
    rng = np.random.default_rng(29)
    m, t = 4, 2
    code = GoppaCode(m, t, F.random_irreducible(t, m, rng), rng.permutation(1 << m).tolist())
    assert code.n == 1 << m
    for w in range(t + 1):
        for pat in itertools.combinations(range(code.n), w):
            err = np.isin(np.arange(code.n), pat).astype(np.uint8)
            assert np.array_equal(patterson_decode(code, err), err)
    for _ in range(60):
        _agrees_with_oracle(code, rng.integers(0, 2, size=code.n, dtype=np.uint8))


def test_patterson_with_t_1():
    # g = x + beta: the support is every other element, the key equation
    # stops at once and sigma = a^2 + x has one root
    rng = np.random.default_rng(31)
    m = 5
    beta = 7
    code = GoppaCode(m, 1, [beta, 1], [a for a in range(1 << m) if a != beta])
    assert code.sqrt_table.shape == (1, 1) and code.root_table.shape == (2, code.n)
    for j in range(-1, code.n):
        err = (np.arange(code.n) == j).astype(np.uint8)
        assert np.array_equal(patterson_decode(code, err), err)
    for _ in range(60):
        _agrees_with_oracle(code, rng.integers(0, 2, size=code.n, dtype=np.uint8))
