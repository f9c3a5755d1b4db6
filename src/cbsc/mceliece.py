"""Randomness-recycling McEliece encryption over a permuted Goppa subcode.

Encryption coins are derived from the plaintext and the error vector is
the constant-weight encoding of the coin, so decryption can re-encrypt
and reject anything that was not honestly produced.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cwencode import phi, phi_inv
from .goppa import ReceiverPublicKey, ReceiverSecretKey, decode_permuted
from .hashes import H1, H3, hash_bits
from .linalg import xor_rows


class PkeCiphertext(NamedTuple):
    c0: np.ndarray  # n_r bits
    c1: np.ndarray  # k_tilde + ell bits


def pke_encrypt(pk: ReceiverPublicKey, x: np.ndarray, y: np.ndarray,
                t: int) -> PkeCiphertext:
    """Encrypt x (k_tilde + ell bits) under coin y (kappa bits)."""
    k_tilde, n_r = pk.G.shape
    r = hash_bits(H1, [x, y], k_tilde)
    sigma = phi(y, n_r, t)
    c0 = xor_rows(r, pk.G_rows, n_r) ^ sigma
    c1 = hash_bits(H3, [sigma], len(x)) ^ np.asarray(x, dtype=np.uint8)
    return PkeCiphertext(c0, c1)


def pke_decrypt(sk: ReceiverSecretKey, c: PkeCiphertext, t: int):
    """Recover (x, y) or None.  Fails on decoding failure, a non-encodable
    error vector, or a failed re-encryption check."""
    sigma = decode_permuted(sk, c.c0)
    if sigma is None:
        return None
    y = phi_inv(sigma, t)
    if y is None:
        return None
    x = c.c1 ^ hash_bits(H3, [sigma], len(c.c1))
    k_tilde, n_r = sk.G_pk.shape
    r = hash_bits(H1, [x, y], k_tilde)
    if np.any(xor_rows(r, sk.G_rows, n_r) ^ sigma != c.c0):
        return None
    return x, y

