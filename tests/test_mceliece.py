"""Randomness-recycling PKE over the permuted subcode."""

import tracemalloc

import numpy as np

from cbsc.cwencode import phi
from cbsc.goppa import keygen_receiver
from cbsc.mceliece import PkeCiphertext, pke_decrypt, pke_encrypt
from cbsc.linalg import vecmat

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
    # the bound is the uint8 size of the k-tilde x k_r S and of the
    # k-tilde x n_r public generator, 300 x (824 + 1024) = 554,400 bytes
    # at L1/20.  Measured peak of one decryption: 306,084 bytes, 0.55
    # times that, mostly root finding's 21 x 1024 index sum and its
    # gather from the uint16 exp table.
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
