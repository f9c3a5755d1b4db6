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
    """Encrypt x (k_tilde + ell bits) under coin y (kappa bits):
    c0 = H1(x, y)·S·G·P ⊕ sigma, over the packed rows of the public
    generator, and c1 = H3(sigma) ⊕ x."""
    sigma = phi(y, pk.n, t)
    c1 = hash_bits(H3, [sigma], len(x)) ^ np.asarray(x, dtype=np.uint8)
    c0 = xor_rows(hash_bits(H1, [x, y], len(pk.G_rows)), pk.G_rows, pk.n) ^ sigma
    return PkeCiphertext(c0, c1)


def pke_decrypt(sk: ReceiverSecretKey, c: PkeCiphertext):
    """Recover (x, y) or None, with the t of the secret key's code.
    Fails on decoding failure, a non-encodable error vector, or a failed
    re-encryption check: c0 must be encryption's c0 of (x, y).

    The check reads k_r bits, not n_r.  After decoding, c0 ⊕ sigma is a
    codeword m·G·P of the permuted code (`decode_permuted`), and a
    codeword is fixed by its bits on an information set: on `sk.info`,
    where S·G·P is S, m·G·P is m.  So c0 = H1(x, y)·S·G·P ⊕ sigma
    exactly when (c0 ⊕ sigma)[info] = H1(x, y)·S, which XORs the packed
    rows of S."""
    sigma = decode_permuted(sk, c.c0)
    if sigma is None:
        return None
    y = phi_inv(sigma, sk.code.t)
    if y is None:
        return None
    x = c.c1 ^ hash_bits(H3, [sigma], len(c.c1))
    h = hash_bits(H1, [x, y], len(sk.S_rows))
    if np.any(xor_rows(h, sk.S_rows, len(sk.info)) != (c.c0 ^ sigma)[sk.info]):
        return None
    return x, y
