"""Full signcrypt/unsigncrypt hybrid."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsc.hybrid import dem_encrypt, signcrypt, unsigncrypt

import oracles as O


def test_dem_involution():
    rng = np.random.default_rng(0)
    K = rng.integers(0, 2, size=16, dtype=np.uint8)
    for n in (0, 1, 17, 1000):
        m = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        assert dem_encrypt(K, dem_encrypt(K, m)) == m


@pytest.mark.parametrize("n", [0, 1, 7, 256 * 1024])
def test_dem_matches_bytewise_xor(n):
    rng = np.random.default_rng(n)
    K = rng.integers(0, 2, size=16, dtype=np.uint8)
    m = rng.bytes(n)
    assert dem_encrypt(K, m) == O.dem_encrypt(K, m)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.binary(max_size=300))
def test_dem_matches_bytewise_xor_random(key, m):
    K = np.array(key, dtype=np.uint8)
    assert dem_encrypt(K, m) == O.dem_encrypt(K, m)


def test_dem_key_matters():
    Ka = np.zeros(16, dtype=np.uint8)
    Kb = np.ones(16, dtype=np.uint8)
    assert dem_encrypt(Ka, b"secret") != dem_encrypt(Kb, b"secret")


def test_roundtrip_various_lengths(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(1)
    for n in (0, 1, 2, 33, 257):
        m = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        sc = signcrypt(toy_params, sk_s, pk_r, m, rng)
        assert unsigncrypt(toy_params, sk_r, pk_s, sc) == m


def test_tampered_payload_rejected(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(2)
    sc = signcrypt(toy_params, sk_s, pk_r, b"authentic message", rng)
    sc.C = bytes([sc.C[0] ^ 1]) + sc.C[1:]
    assert unsigncrypt(toy_params, sk_r, pk_s, sc) is None


def test_ciphertexts_randomized(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(3)
    a = signcrypt(toy_params, sk_s, pk_r, b"same", rng)
    b = signcrypt(toy_params, sk_s, pk_r, b"same", rng)
    assert a.C != b.C or not np.array_equal(a.E.c.c0, b.E.c.c0)
