"""Hybrid signcryption: tag-KEM plus a one-time keystream DEM.

The DEM ciphertext is the tag, so any change to it invalidates the
encapsulation; authenticity comes entirely from the tag binding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .goppa import ReceiverPublicKey, ReceiverSecretKey
from .hashes import keystream
from .params import CommonParams
from .sctkem import Encapsulation, decap, encap, sym
from .uuvsign import SenderPublicKey, SenderSecretKey


@dataclass
class SigncryptedMessage:
    E: Encapsulation
    C: bytes


def dem_encrypt(K: np.ndarray, m: bytes) -> bytes:
    """One-time keystream XOR, its own inverse; K must never be reused."""
    ks = np.frombuffer(keystream(K, len(m)), dtype=np.uint8)
    return (np.frombuffer(m, dtype=np.uint8) ^ ks).tobytes()


def signcrypt(params: CommonParams, sk_s: SenderSecretKey,
              pk_r: ReceiverPublicKey, m: bytes, rng) -> SigncryptedMessage:
    K, varpi = sym(params, rng)
    C = dem_encrypt(K, m)
    E = encap(params, sk_s, pk_r, varpi, C, rng)
    return SigncryptedMessage(E=E, C=C)


def unsigncrypt(params: CommonParams, sk_r: ReceiverSecretKey,
                pk_s: SenderPublicKey, sc: SigncryptedMessage):
    """Plaintext bytes, or None when decapsulation rejects."""
    K = decap(params, sk_r, pk_s, sc.E, sc.C)
    if K is None:
        return None
    return dem_encrypt(K, sc.C)
