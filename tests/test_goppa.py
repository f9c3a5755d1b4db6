"""Goppa code construction, Berlekamp-Massey and Patterson decoding, and
receiver keys."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsc import fields as F
from cbsc import goppa, linalg, serial
from cbsc.goppa import (
    GoppaCode,
    bm_decode,
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
    pack_rows,
    random_matrix,
    random_monomial,
    unpack_rows,
    vecmat,
)
from cbsc.params import TOY, ParameterError, custom_params

import oracles as O
from oracles import mat_mono, toy_with
from test_golden import MID
from test_serial import _TOY_VALUES, L1_20


def _code(seed=0, m=5, n=32, t=2):
    return random_goppa_code(m, n, t, np.random.default_rng(seed))


def test_constructor_validation():
    rng = np.random.default_rng(1)
    g = F.random_irreducible(2, 4, rng)
    with pytest.raises(ValueError):
        GoppaCode(4, 3, g, [0, 1, 2])        # degree mismatch
    with pytest.raises(ValueError):
        GoppaCode(4, 2, g, [1, 1, 2])        # repeated support


@pytest.mark.parametrize("m,n,t", [(TOY.m, TOY.n_r, TOY.t), (10, 1024, 20), (4, 15, 1)],
                         ids=["toy", "l1-20", "t1"])
def test_g_at_the_support_matches_oracle(m, n, t):
    # the root-table gather that gives GoppaCode its g(alpha_j); the
    # L1/20 support is the whole field, alpha = 0 included
    code = _code(3, m, n, t)
    T = F.tables(m)
    g_alpha = goppa._at_support(T, T.log_np[code.g], code.root_table)
    want = [O.poly_eval(code.g, a, m) for a in code.support]
    assert g_alpha.tolist() == want
    assert n < 1 << m or 0 in code.support
    # row j of the alternant table starts with 1 / g(alpha_j)^2
    assert code.alternant_table[:, 0].tolist() == [O.gf_inv(O.gf_mul(v, v, m), m) for v in want]


def test_parity_check_annihilates_codewords():
    code = _code(2)
    H = goppa_parity_check(code)
    G = generator_matrix(code)
    assert not np.any(matmul(H, G.T, 2))
    for row in G:
        assert code.syndrome_poly(row) == []


def test_generator_dimension():
    # (5, 20, 4) at seed 0 and (4, 13, 3) at seed 2 draw parity checks
    # of rank mt - 1, so their codes have dimension n - mt + 1, not n - mt
    for m, n, t, seed, k in ((5, 32, 2, 3, 22), (5, 20, 4, 0, 1), (4, 13, 3, 2, 2)):
        code = _code(seed, m, n, t)
        H = goppa_parity_check(code)
        G = generator_matrix(code)
        assert G.shape == (k, n) and k == n - mat_rank(H, 2)
        assert mat_rank(G, 2) == k
        assert np.array_equal(G, O.kernel_basis(H, 2))


# (4, 16, 2) has all of GF(16) as its support, alpha = 0 included
@pytest.mark.parametrize("m,n,t", [(4, 15, 1), (4, 12, 2), (4, 12, 3), (4, 16, 2)])
def test_syndrome_poly_matches_definition(m, n, t):
    # syndrome = sum over error positions of 1/(x - alpha_j) mod g, which
    # syndrome_poly derives from the even alternant syndromes
    code = _code(4, m, n, t)
    assert n < 16 or 0 in code.support
    rng = np.random.default_rng(9)
    words = [np.zeros(n, dtype=np.uint8), *np.eye(n, dtype=np.uint8),
             *rng.integers(0, 2, size=(20, n), dtype=np.uint8)]
    for word in words:
        assert code.syndrome_poly(word) == O.syndrome_poly(code.g, code.support, word, m)


# t = 1 is the one shape where R^2 = 1/S + x reaches degree t, the
# highest that poly_sqrt_mod takes
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
        assert _same_result(bm_decode(code, word), got), word
        if want is None:
            assert got is None, word
        else:
            assert got is not None and np.array_equal(got, want), word
            decoded += 1
    assert decoded == 2 ** (12 - mat_rank(H, 2)) * len(errors)


def test_word_length_mismatch():
    code = _code(8)
    for decode in (patterson_decode, bm_decode):
        with pytest.raises(ValueError):
            decode(code, np.zeros(31, dtype=np.uint8))


# --- Berlekamp-Massey, against Patterson --------------------------------------

def _same_result(got, want) -> bool:
    """Both decoders said None, or both returned the same error."""
    if got is None or want is None:
        return got is None and want is None
    return np.array_equal(got, want)


def _bm_agrees(code, word, oracle: bool = True):
    """bm_decode's answer for word, checked against patterson_decode and,
    when `oracle` is set, against the oracle decoder."""
    got = bm_decode(code, word)
    assert _same_result(got, patterson_decode(code, word))
    if oracle:
        want = O.patterson_decode(code.g, code.support, word, code.m)
        assert _same_result(got, None if want is None else want[1])
    return got


def _word(rng, G, n, w):
    """A random codeword plus an error of weight w, and the error; for
    w = None a uniform word and None."""
    if w is None:
        return rng.integers(0, 2, size=n, dtype=np.uint8), None
    err = np.zeros(n, dtype=np.uint8)
    err[rng.choice(n, size=w, replace=False)] = 1
    return vecmat(rng.integers(0, 2, size=G.shape[0], dtype=np.uint8), G, 2) ^ err, err


# The oracle decoder takes about 0.2 s a word at L1/20 and far longer at
# paper-l1 (its square root is m t - 1 squarings), so it checks every
# toy word, the L1/20 words of weight t and t + 1, and no paper-l1 word.
@pytest.mark.parametrize("m,n,t,oracle_weights", [(5, 32, 2, None), (10, 1024, 20, (20, 21)),
                                                  (12, 3488, 64, ())],
                         ids=["toy", "l1-20", "paper-l1"])
def test_bm_decode_agrees_with_patterson(m, n, t, oracle_weights):
    # weights 0 to t + 3, twice each, then uniform words: exactly the
    # error up to weight t, and beyond it Patterson's answer (None, or
    # the same error of weight at most t)
    rng = np.random.default_rng(4100 + t)
    code = random_goppa_code(m, n, t, rng)
    G = generator_matrix(code)
    outcomes = set()
    for w in [*range(t + 4), *range(t + 4), None, None, None, None]:
        word, err = _word(rng, G, n, w)
        got = _bm_agrees(code, word, oracle_weights is None or w in oracle_weights)
        if w is not None and w <= t:
            assert got is not None and np.array_equal(got, err), f"weight {w}"
        else:
            outcomes.add(got is None)
    assert True in outcomes
    if t == 2:  # beyond distance t, toy words also reach other codewords
        assert outcomes == {True, False}


def test_bm_decode_with_an_error_at_zero():
    # L1/20's support is all of GF(2^10), so alpha = 0 is a position; an
    # error there makes Lambda of degree L - 1 and sigma a multiple of x
    rng = np.random.default_rng(4200)
    code = random_goppa_code(10, 1024, 20, rng)
    zero = code.support.index(0)
    G = generator_matrix(code)
    others = np.delete(np.arange(code.n), zero)
    for w in (1, 2, 7, 19, 20, 21, 22):
        err = np.zeros(code.n, dtype=np.uint8)
        err[zero] = 1
        err[rng.choice(others, size=w - 1, replace=False)] = 1
        word = vecmat(rng.integers(0, 2, size=G.shape[0], dtype=np.uint8), G, 2) ^ err
        got = _bm_agrees(code, word, oracle=w in (20, 21))
        if w <= code.t:
            assert np.array_equal(got, err), f"weight {w}"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bm_decode_agrees_with_patterson_on_small_codes(data):
    # m from 3 to 6, every t with n = m t + 1 <= 2^m - [t = 1] in reach,
    # t = 1 included, and n up to the whole field
    m = data.draw(st.integers(3, 6), label="m")
    t = data.draw(st.integers(1, min(8, (2 ** m - 2) // m)), label="t")
    n = data.draw(st.integers(m * t + 1, 2 ** m - (t == 1)), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    code = random_goppa_code(m, n, t, rng)
    G = generator_matrix(code)
    for w in [*range(min(t + 3, n) + 1), None, None]:
        word, err = _word(rng, G, n, w)
        got = _bm_agrees(code, word)
        if w is not None and w <= t:
            assert got is not None and np.array_equal(got, err)


def _decodes_within_radius(code, H, word) -> bool:
    """bm_decode's answer for word is Patterson's, and None or an error
    of weight at most t with the word's syndrome under H; it raises if
    Berlekamp-Massey's locator overruns the root table's t + 1 rows."""
    got = _bm_agrees(code, word, oracle=False)
    if got is None:
        return False
    assert got.sum() <= code.t
    assert np.array_equal(matmul(H, got, 2), matmul(H, word, 2))
    return True


@pytest.mark.parametrize("m,n,t", [(4, 16, 3), (5, 32, 2), (5, 32, 3)])
def test_bm_decode_on_every_coset(m, n, t):
    # one word per coset: the pivot columns of the parity check's RREF
    # are unit columns there, so their 2^rank subsets have 2^rank
    # distinct syndromes.  Berlekamp-Massey returns L <= t on every word
    # (see bm_decode), and exactly the cosets of the errors of weight
    # <= t decode
    code = random_goppa_code(m, n, t, np.random.default_rng(4300 + m + t))
    H = goppa_parity_check(code)
    pivots = mat_reduce(H, 2)[0]
    assert len(pivots) == m * t
    subsets = np.arange(2 ** len(pivots))
    words = np.zeros((len(subsets), n), dtype=np.uint8)
    words[:, pivots] = (subsets[:, None] >> np.arange(len(pivots))) & 1
    assert len({s.tobytes() for s in matmul(words, H.T, 2)}) == len(words)
    decoded = sum(_decodes_within_radius(code, H, word) for word in words)
    assert decoded == sum(math.comb(n, w) for w in range(t + 1))


def test_bm_decode_on_uniform_words_at_l1_20():
    rng = np.random.default_rng(4400)
    code = random_goppa_code(10, 1024, 20, rng)
    H = goppa_parity_check(code)
    for _ in range(200):
        _decodes_within_radius(code, H, rng.integers(0, 2, size=code.n, dtype=np.uint8))


# --- receiver keys -----------------------------------------------------------

def test_keygen_receiver_shapes(receiver_keys, toy_params):
    sk, pk = receiver_keys
    p = toy_params
    assert pk.G.shape == (p.k_tilde, p.n_r)
    assert mat_rank(pk.G, 2) == p.k_tilde
    S = unpack_rows(sk.S_rows, p.k_r)
    assert np.array_equal(pk.G[:, sk.info], S)
    G = generator_matrix(sk.code)
    assert G.shape == (p.k_r, p.n_r)
    assert np.array_equal(pk.G, mat_mono(matmul(S, G, 2), sk.P, 2))


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


@pytest.mark.parametrize("params", [TOY, MID, L1_20], ids=["toy", "mid", "l1-20"])
def test_public_generator_matches_oracle_product(params):
    rng = np.random.default_rng(8)
    code, _ = _code_and_rref(params, rng)
    G = generator_matrix(code)
    assert np.array_equal(G, O.kernel_basis(goppa_parity_check(code), 2))
    S = random_matrix(params.k_tilde, params.k_r, 2, rng)
    P = random_monomial(params.n_r, 2, rng)
    _, pk = goppa._key_pair(code, S, P)
    assert np.array_equal(pk.G, mono_apply(O.matmul(S, G, 2), P, 2))


def test_public_generator_packed_in_slabs():
    # L1/20's code with k-tilde = SLAB + 7: `_key_pair` packs S·G·P in two
    # slabs, the second of 7 rows.  Each public row is a word of the
    # permuted code and is S on the information set, which determines it,
    # as G is the identity on the free columns; the oracle product by the
    # parity check is a quarter of the one by G
    params = toy_with(m=10, n_r=1024, t=20, k_tilde=linalg.SLAB + 7)
    rng = np.random.default_rng(8)
    code, _ = _code_and_rref(params, rng)
    S = random_matrix(params.k_tilde, params.k_r, 2, rng)
    P = random_monomial(params.n_r, 2, rng)
    sk, pk = goppa._key_pair(code, S, P)
    assert np.array_equal(pk.G[:, sk.info], S)
    assert not O.matmul(mono_apply_inv(pk.G, P, 2), goppa_parity_check(code).T, 2).any()


def test_public_generator_with_a_unit_pivot_column(monkeypatch):
    # row 1 of R_free made e_1, so that pivot column 1 of G is e_1, as
    # G's second free column is, and row 0 made zero, so that pivot
    # column 0 of G is zero; keygen's builder and `generator_matrix`
    # each reduce the parity check themselves, so the crafted RREF
    # reaches both through goppa.mat_reduce
    rng = np.random.default_rng(9)
    code, (pivots, free, R_free) = _code_and_rref(MID, rng)
    R_free[:2] = 0
    R_free[1, 1] = 1
    rref = pivots, free, R_free
    monkeypatch.setattr(goppa, "mat_reduce", lambda M, p: rref)
    G = generator_matrix(code)
    assert not G[:, pivots[0]].any()
    assert np.array_equal(G[:, pivots[1]], G[:, free[1]])
    S = random_matrix(MID.k_tilde, MID.k_r, 2, rng)
    P = random_monomial(MID.n_r, 2, rng)
    _, pk = goppa._key_pair(code, S, P)
    assert np.array_equal(pk.G, mono_apply(O.matmul(S, G, 2), P, 2))


@pytest.mark.parametrize("seed", [0, 5])
def test_receiver_keys_reduce_the_parity_check_once(monkeypatch, seed):
    # keygen reduces the mt x n_r parity check once per draw and builds
    # S·G·P from that RREF, and loading reduces it once and builds
    # nothing public: one elimination each (the first draw is accepted
    # at these seeds), and no generator
    blob = serial.ser_receiver_sec(TOY, keygen_receiver(TOY, np.random.default_rng(seed))[0])
    reduce, calls = linalg.mat_reduce, []

    def counting_reduce(M, p):
        calls.append(M.shape)
        return reduce(M, p)

    def forbidden(*args):
        raise AssertionError("a generator matrix was built")

    for mod in (linalg, goppa):  # the modules that look mat_reduce up
        monkeypatch.setattr(mod, "mat_reduce", counting_reduce)
    for mod in (linalg, goppa, serial):
        monkeypatch.setattr(mod, "generator_matrix", forbidden, raising=False)
    keygen_receiver(TOY, np.random.default_rng(seed))
    serial.par_receiver_sec(blob)
    assert calls == [(TOY.m * TOY.t, TOY.n_r)] * 2, calls


def test_receiver_secret_key_is_the_rule_of_a_loaded_key():
    # the builder gives a keygen key back from its own fields, and it
    # rejects the two reducible g's of test_serial.py, whose codes build:
    # a product of two irreducible quadratics, and the square of one
    params = custom_params(dict(_TOY_VALUES, t=4, k_tilde=8))
    rng = np.random.default_rng(21)
    sk, _ = keygen_receiver(params, rng)
    rest = (sk.code.support, unpack_rows(sk.S_rows, params.k_r), sk.P)
    loaded = receiver_secret_key(params.m, params.t, sk.code.g, *rest)
    assert np.array_equal(loaded.S_rows, sk.S_rows) and np.array_equal(loaded.info, sk.info)
    assert np.array_equal(loaded.P.perm, sk.P.perm)
    assert (loaded.code.g, loaded.code.support) == (sk.code.g, sk.code.support)
    h1, h2 = F.random_irreducible(2, 5, rng), F.random_irreducible(2, 5, rng)
    assert h1 != h2
    for g in (O.poly_mul(h1, h2, 5), O.poly_mul(h1, h1, 5)):
        GoppaCode(params.m, params.t, g, sk.code.support)
        with pytest.raises(ValueError, match="irreducible"):
            receiver_secret_key(params.m, params.t, g, *rest)


@pytest.mark.parametrize("seed", [0, 5])
def test_loading_a_receiver_key_multiplies_nothing(monkeypatch, seed):
    # the secret key holds S and its information set, not S·G·P, so
    # loading makes no product; keygen makes the one, S·R_free^T
    blob = serial.ser_receiver_sec(TOY, keygen_receiver(TOY, np.random.default_rng(seed))[0])
    product, calls = linalg.matmul, []

    def counting_matmul(A, B, p):
        calls.append((A.shape, B.shape))
        return product(A, B, p)

    for mod in (linalg, goppa, serial):
        monkeypatch.setattr(mod, "matmul", counting_matmul, raising=False)
    serial.par_receiver_sec(blob)
    assert calls == []
    keygen_receiver(TOY, np.random.default_rng(seed))
    assert calls == [((TOY.k_tilde, TOY.k_r), (TOY.k_r, TOY.m * TOY.t))]


def test_keygen_redraws_the_code_after_a_singular_s():
    # at toy seed 48 the first draw's code has dimension k_r but its S
    # has rank 15 < k_tilde, so keygen draws a second code, S and P from
    # the stream and builds the key of those; the digests of the key
    # files were recorded when keygen began to redraw all three
    rng = np.random.default_rng(48)
    draws = []
    for _ in range(2):
        code = random_goppa_code(TOY.m, TOY.n_r, TOY.t, rng)
        S = random_matrix(TOY.k_tilde, TOY.k_r, 2, rng)
        draws.append((code, S, random_monomial(TOY.n_r, 2, rng)))
    (code1, S1, P1), (code2, S2, P2) = draws
    assert len(mat_reduce(goppa_parity_check(code1), 2)[1]) == TOY.k_r
    assert mat_rank(S1, 2) == TOY.k_tilde - 1
    with pytest.raises(ValueError, match="S does not have full row rank"):
        receiver_secret_key(TOY.m, TOY.t, code1.g, code1.support, S1, P1)
    sk, pk = keygen_receiver(TOY, np.random.default_rng(48))
    assert (sk.code.g, sk.code.support) == (code2.g, code2.support)
    assert (code2.g, code2.support) != (code1.g, code1.support)
    assert np.array_equal(sk.S_rows, pack_rows(S2)) and np.array_equal(sk.P.perm, P2.perm)
    pub, sec = serial.ser_receiver_pub(TOY, pk), serial.ser_receiver_sec(TOY, sk)
    assert hashlib.sha256(pub).hexdigest() == (
        "c71e28b41bf081885a4e0c125eb98a18aba1fc565531a9f4075ef72493f05b29")
    assert hashlib.sha256(sec).hexdigest() == (
        "f9159d2ee074d9b2c2f60d7c1743c84e0247016c85333532f4808ef94cc79100")
    # the key, and the key loaded from its file, decode a public
    # codeword plus a weight-t error
    loaded = serial.par_receiver_sec(sec)[1]
    for r in range(10):
        word_rng = np.random.default_rng(r)
        err = np.zeros(TOY.n_r, dtype=np.uint8)
        err[word_rng.choice(TOY.n_r, size=TOY.t, replace=False)] = 1
        word = vecmat(word_rng.integers(0, 2, size=TOY.k_tilde, dtype=np.uint8), pk.G, 2) ^ err
        for key in (sk, loaded):
            assert np.array_equal(decode_permuted(key, word), err)


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
