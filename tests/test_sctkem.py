"""Tag-KEM encapsulation/decapsulation contract."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from cbsc import hashes
from cbsc.hashes import H1, hash_bits, hash_trits
from cbsc.hybrid import signcrypt, unsigncrypt
from cbsc.mceliece import PkeCiphertext, pke_encrypt
from cbsc.sctkem import Encapsulation, _bound, decap, encap, sym
from cbsc.uuvsign import sign_syndrome


def test_sym_shapes(toy_params):
    rng = np.random.default_rng(0)
    K, varpi = sym(toy_params, rng)
    assert K.shape == (toy_params.ell,)
    assert varpi.shape == (toy_params.ell,)


def test_encap_decap_roundtrip(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(1)
    for i in range(20):
        tag = bytes([i]) * 7
        K, varpi = sym(toy_params, rng)
        E = encap(toy_params, sk_s, pk_r, varpi, tag, rng)
        assert E.e.shape == (toy_params.n_s,)
        assert int(np.count_nonzero(E.e)) == toy_params.omega
        got = decap(toy_params, sk_r, pk_s, E, tag)
        assert got is not None and np.array_equal(got, K)


def test_decap_rejects_wrong_tag(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(2)
    K, varpi = sym(toy_params, rng)
    E = encap(toy_params, sk_s, pk_r, varpi, b"tag-a", rng)
    assert decap(toy_params, sk_r, pk_s, E, b"tag-b") is None


def test_decap_rejects_wrong_weight(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(3)
    K, varpi = sym(toy_params, rng)
    E = encap(toy_params, sk_s, pk_r, varpi, b"tag", rng)
    e = E.e.copy()
    i = int(np.nonzero(e)[0][0])
    e[i] = 0
    assert decap(toy_params, sk_r, pk_s, Encapsulation(e=e, c=E.c), b"tag") is None


def test_decap_rejects_wrong_length(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(7)
    K, varpi = sym(toy_params, rng)
    E = encap(toy_params, sk_s, pk_r, varpi, b"tag", rng)
    for e in (E.e[:-1], np.concatenate([E.e, [1]])):
        assert decap(toy_params, sk_r, pk_s, Encapsulation(e=e, c=E.c), b"tag") is None


def test_decap_rejects_trit_change(toy_params, receiver_keys, sender_keys):
    # same weight, different value: syndrome check must catch it
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(4)
    K, varpi = sym(toy_params, rng)
    E = encap(toy_params, sk_s, pk_r, varpi, b"tag", rng)
    e = E.e.copy()
    i = int(np.nonzero(e)[0][0])
    e[i] = 3 - e[i]
    assert decap(toy_params, sk_r, pk_s, Encapsulation(e=e, c=E.c), b"tag") is None


def test_decap_rejects_tampered_ciphertext(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(5)
    K, varpi = sym(toy_params, rng)
    E = encap(toy_params, sk_s, pk_r, varpi, b"tag", rng)
    c0 = E.c.c0.copy()
    c0[0] ^= 1
    bad = Encapsulation(e=E.e, c=PkeCiphertext(c0, E.c.c1))
    assert decap(toy_params, sk_r, pk_s, bad, b"tag") is None


def test_signature_binds_to_key(toy_params, receiver_keys, sender_keys):
    # decapsulating with a different sender public key must fail
    from cbsc.sctkem import keygen_sender_params

    sk_r, pk_r = receiver_keys
    sk_s, _ = sender_keys
    _, other_pk = keygen_sender_params(toy_params, np.random.default_rng(99))
    rng = np.random.default_rng(6)
    K, varpi = sym(toy_params, rng)
    E = encap(toy_params, sk_s, pk_r, varpi, b"tag", rng)
    assert decap(toy_params, sk_r, other_pk, E, b"tag") is None


def test_decap_rejects_encrypted_tag_hash_of_another_tag(toy_params, receiver_keys,
                                                          sender_keys):
    """An insider sender signs H2(T, varpi, H1(y)) for the tag T but
    encrypts H1(T') || varpi: the signature verifies under T, and only
    the comparison of the decrypted tag hash with H1(T) rejects it."""
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    p, rng = toy_params, np.random.default_rng(8)
    K, varpi = sym(p, rng)
    y = rng.integers(0, 2, size=p.kappa, dtype=np.uint8)
    target = hash_trits([b"tag", varpi, hash_bits(H1, [y], p.k_tilde)], p.r_s)
    e = sign_syndrome(sk_s, target, p.omega, rng)
    honest = np.concatenate([hash_bits(H1, [b"tag"], p.k_tilde), varpi])
    E = Encapsulation(e=e, c=pke_encrypt(pk_r, honest, y, p.t))
    assert np.array_equal(decap(p, sk_r, pk_s, E, b"tag"), K)
    forged = np.concatenate([hash_bits(H1, [b"other"], p.k_tilde), varpi])
    E = Encapsulation(e=e, c=pke_encrypt(pk_r, forged, y, p.t))
    assert decap(p, sk_r, pk_s, E, b"tag") is None


LONG = 256 * 1024  # a toy-bulk payload, so a tag on the worker's path


@pytest.mark.parametrize("size", [hashes._BESIDE_BYTES - 1, hashes._BESIDE_BYTES, LONG])
def test_bound_equals_the_direct_hashes(toy_params, size):
    p, rng = toy_params, np.random.default_rng(size)
    tag = rng.bytes(size)
    varpi = rng.integers(0, 2, size=p.ell, dtype=np.uint8)
    y = rng.integers(0, 2, size=p.kappa, dtype=np.uint8)
    target, tau = _bound(p, tag, varpi, y)
    assert np.array_equal(target, hash_trits([tag, varpi, hash_bits(H1, [y], p.k_tilde)], p.r_s))
    assert np.array_equal(tau, hash_bits(H1, [tag], p.k_tilde))


def _long_roundtrips(p, receiver_keys, sender_keys, seed, count):
    """Whether `count` roundtrips of LONG random bytes each return them."""
    (sk_r, pk_r), (sk_s, pk_s) = receiver_keys, sender_keys
    rng = np.random.default_rng(seed)
    payloads = [rng.bytes(LONG) for _ in range(count)]
    return all(unsigncrypt(p, sk_r, pk_s, signcrypt(p, sk_s, pk_r, m, rng)) == m
               for m in payloads)


def test_forked_child_completes_a_long_tag_roundtrip(toy_params, receiver_keys, sender_keys):
    # the parent's worker thread does not exist in a child; a child that
    # reused its pool would wait for a job that never runs
    assert _long_roundtrips(toy_params, receiver_keys, sender_keys, 10, 1)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if _long_roundtrips(toy_params, receiver_keys, sender_keys, 11, 1) else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's roundtrip did not finish in 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status[1]) == 0


def test_caller_threads_share_the_worker(toy_params, receiver_keys, sender_keys):
    # more caller threads than cores, switching often, all on long tags
    results = {}

    def run(i):
        results[i] = _long_roundtrips(toy_params, receiver_keys, sender_keys, 20 + i, 3)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {i: True for i in range(4)}
