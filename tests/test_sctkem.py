"""Tag-KEM encapsulation/decapsulation contract."""

import numpy as np

from cbsc.hashes import H1, hash_bits, hash_trits
from cbsc.linalg import vecmat
from cbsc.mceliece import PkeCiphertext, pke_encrypt
from cbsc.sctkem import Encapsulation, decap, encap, sym
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
