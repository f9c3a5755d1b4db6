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


def _c0(pk: ReceiverPublicKey, x: np.ndarray, y: np.ndarray,
        sigma: np.ndarray) -> np.ndarray:
    """c0 = H1(x, y)·G ⊕ sigma, over the packed rows of the public G."""
    return xor_rows(hash_bits(H1, [x, y], len(pk.G_rows)), pk.G_rows, pk.n) ^ sigma


def pke_encrypt(pk: ReceiverPublicKey, x: np.ndarray, y: np.ndarray,
                t: int) -> PkeCiphertext:
    """Encrypt x (k_tilde + ell bits) under coin y (kappa bits)."""
    sigma = phi(y, pk.n, t)
    c1 = hash_bits(H3, [sigma], len(x)) ^ np.asarray(x, dtype=np.uint8)
    return PkeCiphertext(_c0(pk, x, y, sigma), c1)


def pke_decrypt(sk: ReceiverSecretKey, c: PkeCiphertext):
    """Recover (x, y) or None, with the t of the secret key's code.
    Fails on decoding failure, a non-encodable error vector, or a failed
    re-encryption check: encryption's c0, computed again from (x, y)
    under the secret key's public key `sk.pk`, must equal c0."""
    sigma = decode_permuted(sk, c.c0)
    if sigma is None:
        return None
    y = phi_inv(sigma, sk.code.t)
    if y is None:
        return None
    x = c.c1 ^ hash_bits(H3, [sigma], len(c.c1))
    if np.any(_c0(sk.pk, x, y, sigma) != c.c0):
        return None
    return x, y
