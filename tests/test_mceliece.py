"""Randomness-recycling PKE over the permuted subcode."""

import tracemalloc

import numpy as np

import pytest

from cbsc.cwencode import phi, phi_inv
from cbsc.goppa import decode_permuted, generator_matrix, keygen_receiver
from cbsc.hashes import H1, H3, hash_bits
from cbsc.mceliece import PkeCiphertext, pke_decrypt, pke_encrypt
from cbsc.linalg import mat_rank, unpack_rows, vecmat
from cbsc.params import TOY

import oracles as O
from oracles import recover_message
from test_serial import L1_20


def _xy(params, rng):
    x = rng.integers(0, 2, size=params.k_tilde + params.ell, dtype=np.uint8)
    y = rng.integers(0, 2, size=params.kappa, dtype=np.uint8)
    return x, y


def test_encrypt_decrypt_roundtrip(receiver_keys, toy_params):
    sk, pk = receiver_keys
    rng = np.random.default_rng(0)
    for _ in range(30):
        x, y = _xy(toy_params, rng)
        c = pke_encrypt(pk, x, y, toy_params.t)
        res = pke_decrypt(sk, c)
        assert res is not None
        got_x, got_y = res
        assert np.array_equal(got_x, x)
        assert np.array_equal(got_y, y)


def test_ciphertext_shapes(receiver_keys, toy_params):
    _, pk = receiver_keys
    p = toy_params
    x, y = _xy(p, np.random.default_rng(1))
    c = pke_encrypt(pk, x, y, p.t)
    assert c.c0.shape == (p.n_r,)
    assert c.c1.shape == (p.k_tilde + p.ell,)


def test_deterministic_in_x_y(receiver_keys, toy_params):
    _, pk = receiver_keys
    x, y = _xy(toy_params, np.random.default_rng(2))
    a = pke_encrypt(pk, x, y, toy_params.t)
    b = pke_encrypt(pk, x, y, toy_params.t)
    assert np.array_equal(a.c0, b.c0) and np.array_equal(a.c1, b.c1)


def test_tampered_c0_rejected(receiver_keys, toy_params):
    sk, pk = receiver_keys
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = _xy(toy_params, rng)
        c = pke_encrypt(pk, x, y, toy_params.t)
        i = int(rng.integers(0, len(c.c0)))
        c0 = c.c0.copy()
        c0[i] ^= 1
        assert pke_decrypt(sk, PkeCiphertext(c0, c.c1)) is None


def test_tampered_c1_rejected(receiver_keys, toy_params):
    sk, pk = receiver_keys
    rng = np.random.default_rng(4)
    for _ in range(20):
        x, y = _xy(toy_params, rng)
        c = pke_encrypt(pk, x, y, toy_params.t)
        i = int(rng.integers(0, len(c.c1)))
        c1 = c.c1.copy()
        c1[i] ^= 1
        assert pke_decrypt(sk, PkeCiphertext(c.c0, c1)) is None


def test_recover_message(receiver_keys, toy_params):
    _, pk = receiver_keys
    p = toy_params
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = rng.integers(0, 2, size=p.k_tilde, dtype=np.uint8)
        y = rng.integers(0, 2, size=p.kappa, dtype=np.uint8)
        sigma = phi(y, p.n_r, p.t)
        c0 = vecmat(r, pk.G, 2) ^ sigma
        assert np.array_equal(recover_message(pk.G, c0, sigma), r)


def test_pke_decrypt_allocates_less_than_the_key():
    # the bound is the uint8 size of an unpacked k-tilde x k_r S and an
    # unpacked k-tilde x n_r S·G·P, 300 x (824 + 1024) = 554,400 bytes
    # at L1/20; the key holds S as packed rows and no S·G·P, and the
    # check XORs packed rows of S.  Measured peak of one decryption:
    # 305,492 bytes, 0.55 times the bound, mostly root finding's
    # 21 x 1024 index sum and its gather from the uint16 exp table.
    rng = np.random.default_rng(5)
    sk, pk = keygen_receiver(L1_20, rng)
    x, y = _xy(L1_20, rng)
    c = pke_encrypt(pk, x, y, L1_20.t)
    tracemalloc.start()
    try:
        res = pke_decrypt(sk, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res is not None and np.array_equal(res[0], x)
    bound = L1_20.k_tilde * (L1_20.k_r + L1_20.n_r)
    assert bound == 554_400
    assert peak < bound


def _old_pke_decrypt(sk, pk, c):
    """pke_decrypt with the re-encryption check on all n_r bits: c0 must
    equal H1(x, y)·S·G·P ⊕ sigma, re-encoded under the public key."""
    sigma = decode_permuted(sk, c.c0)
    y = None if sigma is None else phi_inv(sigma, sk.code.t)
    if y is None:
        return None
    x = c.c1 ^ hash_bits(H3, [sigma], len(c.c1))
    c0 = O.matmul(hash_bits(H1, [x, y], len(pk.G)), pk.G, 2) ^ sigma
    return (x, y) if np.array_equal(c0, c.c0) else None


def _outside_subcode(params, sk, rng):
    """A ciphertext that decodes and passes phi_inv but fails the
    re-encryption check alone: c0 = m·G·P ⊕ phi(y), for a codeword m·G
    of the whole Goppa code outside the public subcode, and c1 =
    H3(phi(y)) ⊕ x."""
    x, y = _xy(params, rng)
    sigma = phi(y, params.n_r, params.t)
    while True:
        m = rng.integers(0, 2, size=params.k_r, dtype=np.uint8)
        if mat_rank(np.vstack([unpack_rows(sk.S_rows, params.k_r), m]), 2) > params.k_tilde:
            break
    c0 = O.mono_apply(O.matmul(m, generator_matrix(sk.code), 2), sk.P, 2) ^ sigma
    c = PkeCiphertext(c0, hash_bits(H3, [sigma], len(x)) ^ x)
    assert np.array_equal(decode_permuted(sk, c0), sigma)
    assert np.array_equal(phi_inv(sigma, params.t), y)
    return c


def _flip(c, rng, which):
    c0, c1 = c.c0.copy(), c.c1.copy()
    bits = c0 if which == 0 else c1
    bits[rng.integers(0, len(bits))] ^= 1
    return PkeCiphertext(c0, c1)


@pytest.mark.parametrize("params", [TOY, L1_20], ids=["toy", "l1-20"])
def test_reencryption_check_alone_rejects(params):
    # these ciphertexts decode and pass phi_inv, so only the
    # re-encryption check can reject them
    rng = np.random.default_rng(46)
    sk, _ = keygen_receiver(params, rng)
    for _ in range(10):
        assert pke_decrypt(sk, _outside_subcode(params, sk, rng)) is None


@pytest.mark.parametrize("params", [TOY, L1_20], ids=["toy", "l1-20"])
def test_reencryption_check_agrees_with_reencoding(params):
    # the check on the information set gives the answer of re-encoding
    # all n_r bits under the public key, on honest, tampered, uniform
    # and outside-the-subcode ciphertexts: only the honest ones pass
    rng = np.random.default_rng(47)
    sk, pk = keygen_receiver(params, rng)
    honest = [pke_encrypt(pk, *_xy(params, rng), params.t) for _ in range(20)]
    classes = {
        "honest": honest,
        "c0 flipped": [_flip(c, rng, 0) for c in honest],
        "c1 flipped": [_flip(c, rng, 1) for c in honest],
        "uniform": [PkeCiphertext(rng.integers(0, 2, size=params.n_r, dtype=np.uint8),
                                  rng.integers(0, 2, size=len(c.c1), dtype=np.uint8))
                    for c in honest],
        "outside": [_outside_subcode(params, sk, rng) for _ in range(5)],
    }
    for name, cts in classes.items():
        for c in cts:
            new, old = pke_decrypt(sk, c), _old_pke_decrypt(sk, pk, c)
            assert (new is None) == (old is None), name
            assert (new is None) == (name != "honest"), name
            if new is not None:
                assert all(np.array_equal(a, b) for a, b in zip(new, old)), name
