"""Differential tests: table arithmetic and the key-time Patterson decoder
against the bit-serial, list-based oracles in `oracles.py`, at the L1/20
receiver code shape (m=10, n=1024, t=20) and at m=8, n=256, t=9 and 10."""

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
    for m, t in [(5, 1), (5, 3), (8, 10), (10, 7)]:
        g = F.random_irreducible(t, m, rng)
        sx = F.poly_sqrt_x(g, m)
        assert sx == O.poly_sqrt_mod([0, 1], g, m)
        for _ in range(5):
            u = F.poly_trim(rng.integers(0, 1 << m, size=t).tolist())
            assert F.poly_sqrt_mod(u, g, m, sx) == O.poly_sqrt_mod(u, g, m)


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
        got = patterson_decode(code, word)
        want = O.patterson_decode(code.g, code.support, word, M)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want[1])


def test_patterson_agrees_with_oracle_on_small_codes():
    # a small code makes beyond-radius words decode to a wrong codeword
    # often, so both branches of the comparison are exercised
    rng = np.random.default_rng(17)
    g = F.random_irreducible(3, 5, rng)
    code = GoppaCode(5, 3, g, rng.permutation(32)[:30].tolist())
    outcomes = set()
    for _ in range(60):
        word = rng.integers(0, 2, size=code.n, dtype=np.uint8)
        got = patterson_decode(code, word)
        want = O.patterson_decode(code.g, code.support, word, 5)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want[1])
        outcomes.add(got is None)
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
        got = patterson_decode(code, cw ^ err)
        want = O.patterson_decode(code.g, code.support, cw ^ err, 8)
        assert (got is None) == (want is None)
        if w <= t:
            assert got is not None and np.array_equal(got, err)
        if got is not None:
            assert np.array_equal(got, want[1])
