"""Ternary (U, U+V) trapdoor: key structure, syndrome decoding with an
exact weight target, and signature contract."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oracles as O
from cbsc import linalg, serial, uuvsign
from cbsc.linalg import mat_rank, matmul, vecmat
from cbsc.params import TOY, ParameterError, setup
from cbsc.sctkem import keygen_receiver_params, keygen_sender_params
from cbsc.uuvsign import (
    BATCH,
    RetryExhausted,
    SenderPublicKey,
    _attempts,
    _free_values,
    hsk_p_columns,
    keygen_sender,
    sign_syndrome,
    uuv_decode,
    verify_syndrome,
)

from oracles import mat_mono, mono_to_matrix, sign, steered_free_values, verify


def test_parity_check_block_structure():
    # under the identity monomial the gather of all 16 columns is H_sk
    rng = np.random.default_rng(0)
    H_U = rng.integers(0, 3, size=(4, 8), dtype=np.uint8)
    H_V = rng.integers(0, 3, size=(5, 8), dtype=np.uint8)
    H = hsk_p_columns(H_U, H_V, linalg.Monomial(np.arange(16), np.ones(16)), 16)
    assert H.shape == (9, 16)
    assert np.array_equal(H[:4, :8], H_U)
    assert not np.any(H[:4, 8:])
    assert np.array_equal(H[4:, :8], (3 - H_V) % 3)
    assert np.array_equal(H[4:, 8:], H_V)
    # (u, u+v) words have zero syndrome
    for _ in range(20):
        u = np.zeros(8, dtype=np.uint8)
        v = np.zeros(8, dtype=np.uint8)
        # sample u in ker H_U and v in ker H_V by brute randomization
        ku = O.kernel_basis(H_U, 3)
        kv = O.kernel_basis(H_V, 3)
        u = vecmat(rng.integers(0, 3, size=ku.shape[0], dtype=np.uint8), ku, 3)
        v = vecmat(rng.integers(0, 3, size=kv.shape[0], dtype=np.uint8), kv, 3)
        word = np.concatenate([u, (u + v) % 3])
        assert not np.any(vecmat(word, H.T, 3))


def test_keygen_relations(sender_keys, toy_params):
    sk, pk = sender_keys
    p = toy_params
    half = p.n_s // 2
    assert sk.H_U.shape == (half - p.k_U, half)
    assert sk.H_V.shape == (half - p.k_V, half)
    assert pk.A.shape == (p.r_s, p.n_s - p.r_s)
    # H_sk P = HP[:, :r_s] [I | A], with HP[:, :r_s] invertible
    HP = mat_mono(O.uuv_parity_check(sk.H_U, sk.H_V), sk.P, 3)
    assert mat_rank(HP[:, :p.r_s], 3) == p.r_s
    I_A = np.concatenate([np.eye(p.r_s, dtype=np.uint8), pk.A], axis=1)
    assert np.array_equal(matmul(HP[:, :p.r_s], I_A, 3), HP)
    M = mono_to_matrix(sk.P)
    assert np.array_equal(matmul(M, M.T, 3), np.eye(p.n_s, dtype=np.uint8))
    assert set(sk.P.scalars) <= {1, 2}


def test_keygen_sender_public_keys_have_no_zero_column():
    # at the toy size, 43 of the first draws of these seeds had a zero
    # column in H_V, hence in H_pk, where a signature trit is malleable;
    # the identity columns of [I | A] are never zero, so A's are checked
    for seed in range(400):
        sk, pk = keygen_sender(TOY, np.random.default_rng(seed))
        assert pk.A.any(axis=0).all(), seed


# sender draws after the receiver key: the first is accepted at seeds 2
# and 9, and at seed 4 the first 7 have a singular r_s x r_s square
SENDER_DRAWS = {2: 1, 9: 1, 4: 8}


def _counting(calls, name, fn, result=False):
    """fn, appending (name, its result if `result`, else its first
    argument) to calls."""
    def wrapper(*args):
        out = fn(*args)
        calls.append((name, out if result else args[0]))
        return out
    return wrapper


def _count_key_work(monkeypatch, calls):
    """Counts the gathers of H_sk P columns (by their result), the
    eliminations and the monomial products that uuvsign makes."""
    for module, name, label in ((linalg, "mat_reduce", "reduce"),
                                (uuvsign, "mat_reduce", "reduce"),
                                (uuvsign, "mat_rank", "rank"),
                                (uuvsign, "mono_apply", "mono_apply"),
                                (uuvsign, "hsk_p_columns", "gather")):
        monkeypatch.setattr(module, name, _counting(calls, label, getattr(module, name),
                                                    result=label == "gather"))


@pytest.mark.parametrize("seed", [2, 9, 4])
def test_keygen_sender_eliminates_each_matrix_once(monkeypatch, seed):
    # each draw's pivot rule is the rank of its r_s x r_s square, one
    # gather of r_s columns; H_sk P is then gathered whole and reduced
    # once, for A; no solver is built and no monomial product is made
    rng = np.random.default_rng(seed)
    keygen_receiver_params(TOY, rng)
    calls = []
    _count_key_work(monkeypatch, calls)
    keygen_sender_params(TOY, rng)
    shapes = [(name, M.shape) for name, M in calls]
    square = (TOY.r_s, TOY.r_s)
    assert shapes == [("gather", square), ("rank", square)] * SENDER_DRAWS[seed] + [
        ("gather", (TOY.r_s, TOY.n_s)), ("reduce", (TOY.r_s, TOY.n_s))], shapes


def test_sender_key_load_eliminates_the_square_only(monkeypatch, sender_keys):
    # loading needs no A and no solver: the pivot rule is the rank of the
    # r_s x r_s square of H_sk P, one gather of r_s columns; neither H_sk
    # nor H_sk P is formed
    sk = sender_keys[0]
    blob = serial.ser_sender_sec(TOY, sk)
    calls = []
    _count_key_work(monkeypatch, calls)
    serial.par_sender_sec(blob)
    shapes = [(name, M.shape) for name, M in calls]
    assert shapes == [("gather", (TOY.r_s, TOY.r_s)), ("rank", (TOY.r_s, TOY.r_s))], shapes
    HP = mat_mono(O.uuv_parity_check(sk.H_U, sk.H_V), sk.P, 3)
    assert calls[1][1] is calls[0][1]
    assert np.array_equal(calls[0][1], HP[:, :TOY.r_s])


def test_sender_key_builds_its_solvers_at_its_first_signature(monkeypatch, sender_keys):
    # a fresh key reduces H_U and H_V once each when it first signs, and
    # keeps the solvers for every later signature
    _, sk = serial.par_sender_sec(serial.ser_sender_sec(TOY, sender_keys[0]))
    calls = []
    monkeypatch.setattr(linalg, "mat_reduce", _counting(calls, "reduce", linalg.mat_reduce))
    rng = np.random.default_rng(5)
    y = rng.integers(0, 3, size=TOY.r_s, dtype=np.uint8)
    sign_syndrome(sk, y, TOY.omega, rng)
    assert [(name, M.shape) for name, M in calls] == [
        ("reduce", sk.H_U.shape), ("reduce", sk.H_V.shape)]
    assert np.array_equal(calls[0][1], sk.H_U) and np.array_equal(calls[1][1], sk.H_V)
    sign_syndrome(sk, y, TOY.omega, rng)
    assert len(calls) == 2


@pytest.mark.parametrize("n_s,k_U,k_V", [(16, 4, 4), (8, 2, 2), (24, 6, 8)])
def test_keygen_and_load_accept_the_same_draws(n_s, k_U, k_V):
    # keygen and load both decide by `sender_secret_key`, which reads the
    # r_s x r_s square alone; its verdict must be the one that the oracle
    # elimination of all of H_sk P, formed as a matrix product, gives
    rng = np.random.default_rng(n_s)
    half = n_s // 2
    r_s = n_s - k_U - k_V
    verdicts = set()
    for _ in range(1500):
        H_U = linalg.random_matrix(half - k_U, half, 3, rng)
        H_V = linalg.random_matrix(half - k_V, half, 3, rng)
        P = linalg.random_monomial(n_s, 3, rng)
        HP = O.matmul(O.uuv_parity_check(H_U, H_V), mono_to_matrix(P), 3)
        if not H_V.any(axis=0).all():
            expected = "H_V has a zero column"
        elif O.mat_reduce(HP, 3)[2] != list(range(r_s)):
            expected = uuvsign._SINGULAR
        else:
            expected = "accepted"
        try:
            uuvsign.sender_secret_key(H_U, H_V, P)
            seen = "accepted"
        except ValueError as exc:
            seen = str(exc)
        assert seen == expected
        verdicts.add(expected)
    assert verdicts == {"accepted", "H_V has a zero column", uuvsign._SINGULAR}


@pytest.mark.parametrize("n_s,k_U,k_V", [(16, 4, 4), (24, 6, 8), (424, 177, 102)])
def test_hsk_p_columns_match_oracle(n_s, k_U, k_V):
    # the first `count` columns of H_sk P, formed by the oracle as the
    # product of H_sk and P's matrix, at the toy, n_s = 24 and L1/20
    # shapes; every P drawn here has both scalars
    rng = np.random.default_rng(n_s + 1)
    half = n_s // 2
    r_s = n_s - k_U - k_V
    for _ in range(3):
        H_U = linalg.random_matrix(half - k_U, half, 3, rng)
        H_V = linalg.random_matrix(half - k_V, half, 3, rng)
        P = linalg.random_monomial(n_s, 3, rng)
        assert set(P.scalars) == {1, 2}
        HP = O.matmul(O.uuv_parity_check(H_U, H_V), mono_to_matrix(P), 3)
        for count in (1, r_s, n_s - 1, n_s):
            assert np.array_equal(hsk_p_columns(H_U, H_V, P, count), HP[:, :count]), count


def test_keygen_validation():
    # keygen takes a validated profile: the shapes it cannot key are
    # rejected by CommonParams.validate
    for fields in (dict(n_s=15), dict(k_U=8), dict(k_V=0)):
        with pytest.raises(ParameterError):
            O.toy_with(**fields)


def test_keygen_sender_gives_up_after_its_draw_budget(monkeypatch):
    # right-half columns of H_sk span at most r_V = 6 dimensions, so the
    # first r_s = 20 columns of H_sk P are invertible only if at least 14
    # of them come from the 16 left-half ones, which almost no P does
    params = O.toy_with(n_s=32, k_U=2, k_V=10, omega=30)
    monkeypatch.setattr(uuvsign, "KEYGEN_DRAWS", 20)
    with pytest.raises(ParameterError, match="20 draws"):
        keygen_sender(params, np.random.default_rng(0))


def test_coset_solutions_match_brute_force():
    # all 3^8 words of an n_s = 8 code by syndrome and weight, against the
    # oracle's 3^4 candidates per syndrome
    params = O.toy_with(n_s=8, k_U=2, k_V=2, omega=6)
    _, pk = keygen_sender(params, np.random.default_rng(10))
    words = ((np.arange(3 ** 8)[:, None] // 3 ** np.arange(8)) % 3).astype(np.uint8)
    I_A = np.concatenate([np.eye(params.r_s, dtype=np.uint8), pk.A], axis=1)
    syndromes = O.matmul(words, I_A.T, 3)
    weights = np.count_nonzero(words, axis=1)
    total = 0
    for y in np.unique(syndromes, axis=0):
        in_coset = (syndromes == y).all(axis=1)
        for omega in range(9):
            got = O.coset_solutions(pk, y, omega)
            want = words[in_coset & (weights == omega)]
            assert sorted(map(bytes, got)) == sorted(map(bytes, want)), (y, omega)
            total += len(got)
    assert total == 3 ** 8


def test_coset_words_are_distinct_at_k_10():
    # base-3 digit quotients reach 3^9 = 19,683 and their products past
    # 32,767; every candidate of a k = 10 coset is its own word, and all
    # lie in the coset
    rng = np.random.default_rng(12)
    pk = SenderPublicKey(A=rng.integers(0, 3, size=(6, 10), dtype=np.uint8))
    y = rng.integers(0, 3, size=6, dtype=np.uint8)
    words = O.coset_words(pk, y)
    assert len(words) == 3 ** 10
    assert len(np.unique(words, axis=0)) == 3 ** 10
    I_A = np.concatenate([np.eye(6, dtype=np.uint8), pk.A], axis=1)
    assert (O.matmul(words, I_A.T, 3) == y).all()


def _pair_weights(other, x):
    return (x != 0).astype(int) + ((x + other) % 3 != 0)


def _pair_counts(other, x):
    counts = np.zeros((3, 3), dtype=np.int64)
    np.add.at(counts, (other, x), 1)
    return counts


def test_free_values_law_matches_oracle():
    other = np.random.default_rng(20).integers(0, 3, 30_000, dtype=np.uint8)
    # p_two = 0: every pair weighs wt(other); p_two = 1: every pair weighs 2
    for p_two, weight in ((0.0, (other != 0).astype(int)), (1.0, 2)):
        x = _free_values(other, p_two, np.random.default_rng(21))
        x_oracle = steered_free_values(other, p_two, np.random.default_rng(21))
        assert np.all(_pair_weights(other, x) == weight)
        assert np.all(_pair_weights(other, x_oracle) == weight)
        assert np.array_equal(_pair_counts(other, x) > 0,
                              _pair_counts(other, x_oracle) > 0)
    # p_two = 0.3: the same frequency of each (other, x), by a chi-square
    # homogeneity test per value of other (6 dof, rejected at p = 0.001)
    _assert_same_pair_law(other, _free_values(other, 0.3, np.random.default_rng(22)),
                          steered_free_values(other, 0.3, np.random.default_rng(23)))
    # a batch: one row of `other` per attempt, with its own p_two
    others = np.random.default_rng(25).integers(0, 3, (3, 30_000), dtype=np.uint8)
    x = _free_values(others, np.array([0.0, 0.3, 1.0]), np.random.default_rng(26))
    assert x.shape == others.shape
    assert np.all(_pair_weights(others[0], x[0]) == (others[0] != 0))
    assert np.all(_pair_weights(others[2], x[2]) == 2)
    _assert_same_pair_law(others[1], x[1],
                          steered_free_values(others[1], 0.3, np.random.default_rng(27)))


def _assert_same_pair_law(other, x, x_oracle):
    a, b = _pair_counts(other, x), _pair_counts(other, x_oracle)
    expected = (a + b) / 2   # both samples share the same other
    stat = float((((a - expected) ** 2 + (b - expected) ** 2) / expected).sum())
    assert stat < 22.46, (stat, a, b)


def test_free_values_draws_one_uniform_per_coordinate():
    other = np.array([0, 1, 2, 0, 2], dtype=np.uint8)
    rng, reference = np.random.default_rng(24), np.random.default_rng(24)
    _free_values(other, 0.4, rng)
    reference.random(len(other))
    assert rng.random() == reference.random()


class _Replay:
    """A generator stand-in that hands out numbers drawn beforehand:
    normal() the entries of `noise` in order, random() the rows of u_V
    and of u_U in turn, V half first, one row per attempt."""

    def __init__(self, noise, u_V, u_U):
        self.noise, self.rows, self.taken = noise, (u_V, u_U), [0, 0, 0]

    def normal(self, loc, scale, size=None):
        i = self.taken[2]
        self.taken[2] += 1 if size is None else size
        return self.noise[i] if size is None else self.noise[i:self.taken[2]]

    def random(self, shape):
        half = int(self.taken[0] > self.taken[1])
        rows, i = self.rows[half], self.taken[half]
        if isinstance(shape, tuple):
            self.taken[half] += shape[0]
            out = rows[i:self.taken[half]]
        else:
            self.taken[half] += 1
            out = rows[i]
        assert out.shape == (shape if isinstance(shape, tuple) else (shape,))
        return out


def _draws(sk, count, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(0.0, 0.15, count),
            rng.random((count, len(sk.solvers[1].free))),
            rng.random((count, len(sk.solvers[0].free))))


@pytest.fixture(scope="module")
def l1_20_sender_key():
    """The L1/20 sender key pair of seed 31, then the profile's omega."""
    params = setup(str(Path(__file__).resolve().parent.parent / "perfbench" / "l1-20.profile"))
    return *keygen_sender(params, np.random.default_rng(31)), params.omega


def test_batched_attempts_match_oracle_row_for_row(sender_keys, l1_20_sender_key):
    # the same p and uniforms give the same e, row by row, as the loop of
    # single attempts; p covers both ends of [0, 1]
    for sk in (sender_keys[0], l1_20_sender_key[0]):
        _, u_V, u_U = _draws(sk, 45, 32)
        p_two = np.random.default_rng(33).random(45)
        p_two[:2] = 0.0, 1.0
        for w in np.random.default_rng(34).integers(0, 3, (4, len(sk.P.perm)), dtype=np.uint8):
            e = _attempts(sk, w, p_two, _Replay(None, u_V, u_U))
            for i in range(45):
                row = O.uuv_attempt(sk, w, p_two[i], _Replay(None, u_V[i:], u_U[i:]))
                assert np.array_equal(e[i], row), i


def test_uuv_decode_matches_oracle_loop(monkeypatch, sender_keys, toy_params,
                                       l1_20_sender_key):
    # fed the same numbers, the batched decoder and the loop of single
    # attempts return the same word, or both run out of attempts.  At
    # L1/20 the 40 attempts are a batch and a cut one; at these seeds
    # one word is found in the second batch and two in neither.
    l1_sk, _, l1_omega = l1_20_sender_key
    for sk, omega, seeds, budget in ((sender_keys[0], toy_params.omega, range(40, 60), 70),
                                     (l1_sk, l1_omega, range(60, 70), 40)):
        monkeypatch.setattr(uuvsign, "SIGN_ATTEMPTS", budget)
        for seed in seeds:
            w = np.random.default_rng(seed).integers(0, 3, len(sk.P.perm), dtype=np.uint8)
            draws = _draws(sk, budget, seed)
            expected = O.uuv_decode(sk, w, omega, _Replay(*draws), max_attempts=budget)
            if expected is None:
                with pytest.raises(RetryExhausted):
                    uuv_decode(sk, w, omega, _Replay(*draws))
            else:
                assert np.array_equal(uuv_decode(sk, w, omega, _Replay(*draws)), expected)


def test_uuv_decode_returns_first_hit_of_batch(l1_20_sender_key):
    # the first batch, redrawn from the decoder's seed in its order (its
    # p, then the V and U uniforms), has several rows of weight omega
    sk, _, omega = l1_20_sender_key
    w = np.random.default_rng(35).integers(0, 3, len(sk.P.perm), dtype=np.uint8)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        p_two = np.clip(omega / len(w) + rng.normal(0.0, 0.15, BATCH), 0.0, 1.0)
        e = _attempts(sk, w, p_two, rng)
        hits = np.flatnonzero(np.count_nonzero(e, axis=1) == omega)
        if len(hits) >= 2 and not np.array_equal(e[hits[0]], e[hits[-1]]):
            break
    else:
        pytest.fail("no seed gives a batch with two different hits")
    assert np.array_equal(uuv_decode(sk, w, omega, np.random.default_rng(seed)), e[hits[0]])


def test_uuv_decode_meets_syndrome_and_weight(sender_keys, toy_params):
    sk, _ = sender_keys
    p = toy_params
    H_sk = O.uuv_parity_check(sk.H_U, sk.H_V)
    rng = np.random.default_rng(2)
    for _ in range(30):
        w = rng.integers(0, 3, size=p.n_s, dtype=np.uint8)
        e = uuv_decode(sk, w, p.omega, rng)
        assert int(np.count_nonzero(e)) == p.omega
        assert np.array_equal(vecmat(e, H_sk.T, 3), vecmat(w, H_sk.T, 3))


def test_uuv_decode_extreme_weights(sender_keys, toy_params):
    sk, _ = sender_keys
    rng = np.random.default_rng(3)
    w = rng.integers(0, 3, size=toy_params.n_s, dtype=np.uint8)
    e = uuv_decode(sk, w, toy_params.n_s, rng)   # full weight
    assert int(np.count_nonzero(e)) == toy_params.n_s


def test_uuv_decode_retry_budget(monkeypatch):
    # weight 0 is unsatisfiable in the coset of a unit word: its
    # syndrome is a column of H_sk, nonzero as H_V has no zero column.
    # Each attempt draws one row of free values per half, and the last
    # batch is cut, so exactly SIGN_ATTEMPTS attempts are made.  The
    # solvers are given the same rows, which is how scripts/bench.py
    # counts attempts.
    rng = np.random.default_rng(4)
    sk, _ = keygen_sender(O.toy_with(n_s=8, k_U=2, k_V=2, omega=6), rng)
    w = np.zeros(8, dtype=np.uint8)
    w[0] = 1
    rows, solved = [], []
    solve = linalg.AffineSolver.solve

    def spy(other, p_two, rng):
        rows.append(len(other))
        return _free_values(other, p_two, rng)

    def solve_spy(solver, w, free_values):
        solved.append(len(free_values))
        return solve(solver, w, free_values)

    monkeypatch.setattr(uuvsign, "_free_values", spy)
    monkeypatch.setattr(linalg.AffineSolver, "solve", solve_spy)
    # the budget that perfbench/workloads.py states
    assert uuvsign.SIGN_ATTEMPTS == 10_000
    for budget in (1, BATCH - 1, BATCH, BATCH + 1, 50):
        monkeypatch.setattr(uuvsign, "SIGN_ATTEMPTS", budget)
        rows.clear()
        solved.clear()
        with pytest.raises(RetryExhausted):
            uuv_decode(sk, w, 0, rng)
        assert sum(rows) == 2 * budget, (budget, rows)
        assert sum(solved) == 2 * budget, (budget, solved)


def test_sign_verify(sender_keys, toy_params):
    sk, pk = sender_keys
    p = toy_params
    rng = np.random.default_rng(5)
    for i in range(20):
        msg = bytes([i]) * 5
        sig = sign(sk, msg, p.omega, p.salt_bits, rng)
        assert sig.e.shape == (p.n_s,)
        assert sig.salt.shape == (p.salt_bits,)
        assert verify(pk, msg, sig, p.omega)


def test_verify_rejects_wrong_message(sender_keys, toy_params):
    sk, pk = sender_keys
    p = toy_params
    rng = np.random.default_rng(6)
    sig = sign(sk, b"genuine", p.omega, p.salt_bits, rng)
    assert not verify(pk, b"forgery", sig, p.omega)


def test_verify_rejects_weight_change(sender_keys, toy_params):
    sk, pk = sender_keys
    p = toy_params
    rng = np.random.default_rng(7)
    sig = sign(sk, b"msg", p.omega, p.salt_bits, rng)
    e = sig.e.copy()
    i = int(np.nonzero(e)[0][0])
    e[i] = 0
    sig.e = e
    assert not verify(pk, b"msg", sig, p.omega)


def test_verify_rejects_wrong_omega(sender_keys, toy_params):
    sk, pk = sender_keys
    p = toy_params
    rng = np.random.default_rng(8)
    sig = sign(sk, b"msg", p.omega, p.salt_bits, rng)
    assert not verify(pk, b"msg", sig, p.omega - 1)


def test_verify_syndrome_allocates_one_float32_copy_of_A(l1_20_sender_key):
    # at L1/20 A is 145 x 279, narrower than one column slab, so the
    # product converts it whole: 4 bytes per entry.  Measured peak:
    # 165,180 bytes, 4.08 times A's 40,455 bytes.
    sk, pk, omega = l1_20_sender_key
    rng = np.random.default_rng(32)
    y = rng.integers(0, 3, size=len(pk.A), dtype=np.uint8)
    e = sign_syndrome(sk, y, omega, rng)
    tracemalloc.start()
    try:
        ok = verify_syndrome(pk, e, y, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak < 5 * pk.A.nbytes


def test_sign_syndrome_verify_syndrome(sender_keys, toy_params):
    sk, pk = sender_keys
    p = toy_params
    rng = np.random.default_rng(9)
    y = rng.integers(0, 3, size=p.r_s, dtype=np.uint8)
    e = sign_syndrome(sk, y, p.omega, rng)
    I_A = np.concatenate([np.eye(p.r_s, dtype=np.uint8), pk.A], axis=1)
    assert np.array_equal(vecmat(e, I_A.T, 3), y)
    assert verify_syndrome(pk, e, y, p.omega)
    assert not verify_syndrome(pk, e, (y + 1) % 3, p.omega)
    assert not verify_syndrome(pk, e, y, p.omega - 1)
    # a valid signature one zero trit short, or with one appended, keeps
    # its weight: only the length rule rejects it
    zero = np.flatnonzero(e == 0)[-1]
    for bad in (np.delete(e, zero), np.concatenate([e, [0]])):
        assert not verify_syndrome(pk, bad, y, p.omega)
