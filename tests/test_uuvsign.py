"""Ternary (U, U+V) trapdoor: key structure, syndrome decoding with an
exact weight target, and signature contract."""

import numpy as np
import pytest

from cbsc import linalg, uuvsign
from cbsc.linalg import mat_rank, matmul, vecmat
from cbsc.params import TOY
from cbsc.sctkem import keygen_receiver_params, keygen_sender_params
from cbsc.uuvsign import (
    RetryExhausted,
    _free_values,
    build_uuv_parity_check,
    keygen_sender,
    sign,
    sign_syndrome,
    uuv_decode,
    verify,
    verify_syndrome,
)

from oracles import mat_mono, mono_to_matrix, steered_free_values


def test_parity_check_block_structure():
    rng = np.random.default_rng(0)
    H_U = rng.integers(0, 3, size=(4, 8), dtype=np.uint8)
    H_V = rng.integers(0, 3, size=(5, 8), dtype=np.uint8)
    H = build_uuv_parity_check(H_U, H_V)
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
        from cbsc.linalg import kernel_basis
        ku = kernel_basis(H_U, 3)
        kv = kernel_basis(H_V, 3)
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
    assert (sk.n_s, sk.r_s) == (p.n_s, p.r_s)
    assert pk.A.shape == (p.r_s, p.n_s - p.r_s)
    # H_sk P = HP[:, :r_s] [I | A], with HP[:, :r_s] invertible
    HP = mat_mono(build_uuv_parity_check(sk.H_U, sk.H_V), sk.P, 3)
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
        sk, pk = keygen_sender(16, 4, 4, np.random.default_rng(seed))
        assert pk.A.any(axis=0).all(), seed


@pytest.mark.parametrize("seed", [2, 9])
def test_keygen_sender_eliminates_each_matrix_once(monkeypatch, seed):
    # the first draw is accepted at these seeds: one elimination each
    # for H_sk P (its pivots and A), the H_U solver and the H_V solver
    rng = np.random.default_rng(seed)
    keygen_receiver_params(TOY, rng)
    reduce, calls = linalg.mat_reduce, []

    def counting_reduce(M, p):
        calls.append(M.shape)
        return reduce(M, p)

    monkeypatch.setattr(linalg, "mat_reduce", counting_reduce)
    monkeypatch.setattr(uuvsign, "mat_reduce", counting_reduce)
    keygen_sender_params(TOY, rng)
    r_U, r_V = TOY.n_s // 2 - TOY.k_U, TOY.n_s // 2 - TOY.k_V
    assert calls == [(TOY.r_s, TOY.n_s), (r_U, TOY.n_s // 2),
                     (r_V, TOY.n_s // 2)], calls


def test_keygen_validation():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        keygen_sender(15, 4, 4, rng)
    with pytest.raises(ValueError):
        keygen_sender(16, 8, 4, rng)


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
    a = _pair_counts(other, _free_values(other, 0.3, np.random.default_rng(22)))
    b = _pair_counts(other, steered_free_values(other, 0.3, np.random.default_rng(23)))
    expected = (a + b) / 2   # both samples share the same other
    stat = float((((a - expected) ** 2 + (b - expected) ** 2) / expected).sum())
    assert stat < 22.46, (stat, a, b)


def test_free_values_draws_one_uniform_per_coordinate():
    other = np.array([0, 1, 2, 0, 2], dtype=np.uint8)
    rng, reference = np.random.default_rng(24), np.random.default_rng(24)
    _free_values(other, 0.4, rng)
    reference.random(len(other))
    assert rng.random() == reference.random()


def test_uuv_decode_meets_syndrome_and_weight(sender_keys, toy_params):
    sk, _ = sender_keys
    p = toy_params
    H_sk = build_uuv_parity_check(sk.H_U, sk.H_V)
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


def test_uuv_decode_retry_budget():
    # weight 0 is unsatisfiable in the coset of a unit word: its
    # syndrome is a column of H_sk, nonzero as H_V has no zero column
    rng = np.random.default_rng(4)
    sk, _ = keygen_sender(8, 2, 2, rng)
    w = np.zeros(8, dtype=np.uint8)
    w[0] = 1
    with pytest.raises(RetryExhausted):
        uuv_decode(sk, w, 0, rng, max_attempts=50)


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
    for bad in (e[:-1], np.concatenate([e, [0]])):
        assert not verify_syndrome(pk, bad, y, p.omega)
