"""Goppa code construction, Patterson decoding, and receiver keys."""

import itertools

import numpy as np
import pytest

from cbsc import fields as F
from cbsc import goppa, linalg, serial
from cbsc.goppa import (
    GoppaCode,
    decode_permuted,
    generator_matrix,
    goppa_parity_check,
    keygen_receiver,
    patterson_decode,
    random_goppa_code,
    receiver_secret_key,
)
from cbsc.linalg import (
    mat_rank,
    mat_reduce,
    matmul,
    mono_apply,
    mono_apply_inv,
    random_matrix,
    random_permutation,
    vecmat,
)
from cbsc.params import TOY, ParameterError

import oracles as O
from oracles import mat_mono, toy_with
from test_golden import MID
from test_serial import L1_20


def _code(seed=0, m=5, n=32, t=2):
    return random_goppa_code(m, n, t, np.random.default_rng(seed))


def test_constructor_validation():
    rng = np.random.default_rng(1)
    g = F.random_irreducible(2, 4, rng)
    with pytest.raises(ValueError):
        GoppaCode(4, 3, g, [0, 1, 2])        # degree mismatch
    with pytest.raises(ValueError):
        GoppaCode(4, 2, g, [1, 1, 2])        # repeated support


def test_parity_check_annihilates_codewords():
    code = _code(2)
    H = goppa_parity_check(code)
    G = generator_matrix(code)
    assert not np.any(matmul(H, G.T, 2))
    for row in G:
        assert code.syndrome_poly(row) == []


def test_generator_dimension():
    code = _code(3)
    G = generator_matrix(code)
    assert G.shape == (32 - 5 * 2, 32)
    assert mat_rank(G, 2) == G.shape[0]


def test_syndrome_poly_matches_definition():
    # syndrome = sum over error positions of 1/(x - alpha_j) mod g
    code = _code(4, m=4, n=12, t=3)
    rng = np.random.default_rng(9)
    for _ in range(10):
        word = rng.integers(0, 2, size=code.n, dtype=np.uint8)
        expected = []
        for j in np.nonzero(word)[0]:
            inv = F.poly_inv_mod([code.support[j], 1], code.g, code.m)
            expected = F.poly_add(expected, inv)
        assert code.syndrome_poly(word) == expected


# t = 1 is the one shape where poly_sqrt_mod reduces R^2 = 1/S + x, of
# degree t, through poly_mod
@pytest.mark.parametrize("m,n,t", [(5, 31, 1), (4, 15, 1), (4, 16, 2), (5, 32, 2),
                                   (5, 30, 3), (6, 40, 4)])
def test_patterson_corrects_random_errors(m, n, t):
    rng = np.random.default_rng(m * 100 + t)
    code = random_goppa_code(m, n, t, rng)
    G = generator_matrix(code)
    for _ in range(30):
        msg = rng.integers(0, 2, size=G.shape[0], dtype=np.uint8)
        cw = vecmat(msg, G, 2)
        w = int(rng.integers(0, t + 1))
        err = np.zeros(n, dtype=np.uint8)
        err[rng.choice(n, size=w, replace=False)] = 1
        got_err = patterson_decode(code, cw ^ err)
        assert got_err is not None
        assert np.array_equal(got_err, err)


def test_patterson_zero_word():
    code = _code(5)
    err = patterson_decode(code, np.zeros(32, dtype=np.uint8))
    assert err.shape == (32,) and not err.any()


def test_patterson_never_lies_beyond_radius():
    # beyond-radius inputs either fail or return an error of weight at
    # most t that leaves a codeword
    code = _code(6)
    rng = np.random.default_rng(66)
    G = generator_matrix(code)
    for _ in range(50):
        msg = rng.integers(0, 2, size=G.shape[0], dtype=np.uint8)
        cw = vecmat(msg, G, 2)
        err = np.zeros(32, dtype=np.uint8)
        err[rng.choice(32, size=code.t + 1, replace=False)] = 1
        got_err = patterson_decode(code, cw ^ err)
        if got_err is not None:
            assert code.syndrome_poly(cw ^ err ^ got_err) == []
            assert int(got_err.sum()) <= code.t


def test_patterson_exhaustive_weight_le_t():
    code = _code(7)
    G = generator_matrix(code)
    rng = np.random.default_rng(77)
    msg = rng.integers(0, 2, size=G.shape[0], dtype=np.uint8)
    cw = vecmat(msg, G, 2)
    patterns = [()] + [(i,) for i in range(32)] \
        + list(itertools.combinations(range(32), 2))
    for pat in patterns:
        err = np.zeros(32, dtype=np.uint8)
        err[list(pat)] = 1
        assert np.array_equal(patterson_decode(code, cw ^ err), err)


def test_patterson_decodes_exactly_the_words_within_radius():
    # every word of a small code: Patterson returns an error exactly when
    # the word is within distance t of a codeword, and then the error
    # of weight <= t with the word's syndrome, which is unique
    code = _code(12, m=4, n=12, t=2)
    H = goppa_parity_check(code)
    errors = [np.isin(np.arange(12), pat).astype(np.uint8)
              for w in range(code.t + 1) for pat in itertools.combinations(range(12), w)]
    leaders = {matmul(H, e, 2).tobytes(): e for e in errors}
    assert len(leaders) == len(errors) == 1 + 12 + 66
    words = np.array(list(itertools.product([0, 1], repeat=12)), dtype=np.uint8)
    decoded = 0
    for word, syndrome in zip(words, matmul(words, H.T, 2)):
        want = leaders.get(syndrome.tobytes())
        got = patterson_decode(code, word)
        if want is None:
            assert got is None, word
        else:
            assert got is not None and np.array_equal(got, want), word
            decoded += 1
    assert decoded == 2 ** (12 - mat_rank(H, 2)) * len(errors)


def test_word_length_mismatch():
    code = _code(8)
    with pytest.raises(ValueError):
        patterson_decode(code, np.zeros(31, dtype=np.uint8))


# --- receiver keys -----------------------------------------------------------

def test_keygen_receiver_shapes(receiver_keys, toy_params):
    sk, pk = receiver_keys
    p = toy_params
    assert pk.G.shape == (p.k_tilde, p.n_r)
    assert mat_rank(pk.G, 2) == p.k_tilde
    assert pk is sk.pk
    G = generator_matrix(sk.code)
    assert G.shape == (p.k_r, p.n_r)
    assert np.array_equal(sk.pk.G, mat_mono(matmul(sk.S, G, 2), sk.P, 2))


def test_public_rows_in_permuted_code(receiver_keys):
    sk, pk = receiver_keys
    H = goppa_parity_check(sk.code)
    for row in pk.G:
        inner = mono_apply_inv(row, sk.P, 2)
        assert not np.any(vecmat(inner, H.T, 2))


def test_decode_permuted_roundtrip(receiver_keys, toy_params):
    sk, pk = receiver_keys
    p = toy_params
    rng = np.random.default_rng(123)
    for _ in range(20):
        r = rng.integers(0, 2, size=p.k_tilde, dtype=np.uint8)
        cw = vecmat(r, pk.G, 2)
        err = np.zeros(p.n_r, dtype=np.uint8)
        err[rng.choice(p.n_r, size=p.t, replace=False)] = 1
        got_err = decode_permuted(sk, cw ^ err)
        assert got_err is not None
        assert np.array_equal(got_err, err)


def _code_and_rref(params, rng):
    while True:
        code = random_goppa_code(params.m, params.n_r, params.t, rng)
        rref = mat_reduce(goppa_parity_check(code), 2)
        if len(rref[1]) == params.k_r:
            return code, rref


def _generator_of(rref, n):
    """The G that an RREF triple stands for: the identity on the free
    columns, R_free transposed on the pivot columns."""
    pivots, free, R_free = rref
    G = np.zeros((len(free), n), dtype=np.uint8)
    G[np.arange(len(free)), free] = 1
    G[:, pivots] = R_free.T
    return G


@pytest.mark.parametrize("params", [TOY, MID, L1_20], ids=["toy", "mid", "l1-20"])
def test_public_generator_matches_oracle_product(params):
    rng = np.random.default_rng(8)
    code, rref = _code_and_rref(params, rng)
    G = generator_matrix(code)
    assert np.array_equal(_generator_of(rref, params.n_r), G)
    S = random_matrix(params.k_tilde, params.k_r, 2, rng)
    P = random_permutation(params.n_r, rng)
    sk = receiver_secret_key(code, rref, S, P)
    assert np.array_equal(sk.pk.G, mono_apply(O.matmul(S, G, 2), P, 2))


def test_public_generator_with_a_unit_pivot_column():
    # row 1 of R_free made e_1, so that pivot column 1 of G is e_1, as
    # G's second free column is, and row 0 made zero, so that pivot
    # column 0 of G is zero
    rng = np.random.default_rng(9)
    code, (pivots, free, R_free) = _code_and_rref(MID, rng)
    R_free[:2] = 0
    R_free[1, 1] = 1
    rref = pivots, free, R_free
    G = _generator_of(rref, MID.n_r)
    assert not G[:, pivots[0]].any()
    assert np.array_equal(G[:, pivots[1]], G[:, free[1]])
    S = random_matrix(MID.k_tilde, MID.k_r, 2, rng)
    P = random_permutation(MID.n_r, rng)
    sk = receiver_secret_key(code, rref, S, P)
    assert np.array_equal(sk.pk.G, mono_apply(O.matmul(S, G, 2), P, 2))


@pytest.mark.parametrize("seed", [0, 5])
def test_receiver_keys_reduce_the_parity_check_once(monkeypatch, seed):
    # keygen and load build S·G·P from the RREF of the parity check: one
    # elimination of the mt x n_r parity check (the first code drawn is
    # accepted at these seeds), and no generator or kernel basis
    blob = serial.ser_receiver_sec(TOY, keygen_receiver(TOY, np.random.default_rng(seed))[0])
    reduce, calls = linalg.mat_reduce, []

    def counting_reduce(M, p):
        calls.append(M.shape)
        return reduce(M, p)

    def forbidden(*args):
        raise AssertionError("a generator matrix was built")

    for mod in (linalg, goppa, serial):
        monkeypatch.setattr(mod, "mat_reduce", counting_reduce)
        monkeypatch.setattr(mod, "generator_matrix", forbidden, raising=False)
        monkeypatch.setattr(mod, "kernel_basis", forbidden, raising=False)
    keygen_receiver(TOY, np.random.default_rng(seed))
    serial.par_receiver_sec(blob)
    assert calls == [(TOY.m * TOY.t, TOY.n_r)] * 2, calls


def test_keygen_rejects_bad_dims():
    # keygen takes a validated profile: the shapes it cannot key are
    # rejected by CommonParams.validate
    for fields in (dict(m=4, n_r=32, t=2, k_tilde=4),     # n_r > 2^m
                   dict(m=5, n_r=32, t=2, k_tilde=23),    # k_tilde > k_r
                   dict(m=4, n_r=16, t=1, k_tilde=8)):    # t = 1: g has a root
        with pytest.raises(ParameterError):
            toy_with(**fields)


@pytest.mark.parametrize("m,t", [(2, 1), (4, 1), (5, 1), (4, 3), (5, 2)])
def test_keygen_receiver_at_the_largest_support(m, t):
    # the largest n_r that validate accepts: the whole field for t >= 2,
    # and all of it but the root of g for t = 1
    params = toy_with(m=m, n_r=(1 << m) - (t == 1), t=t, k_tilde=1)
    sk, pk = keygen_receiver(params, np.random.default_rng(m + t))
    roots = [a for a in range(1 << m) if O.poly_eval(sk.code.g, a, m) == 0]
    assert sorted(sk.code.support + roots) == list(range(1 << m))
    assert len(roots) == (t == 1)
    assert pk.G.shape == (1, params.n_r)
