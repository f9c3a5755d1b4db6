"""Signcryption tag-KEM: symmetric key generation, encapsulation, and
decapsulation.

Encapsulation signs (tag, state, hashed coin) with the sender trapdoor
and encrypts (hashed tag, state) to the receiver, recycling the coin as
the encryption randomness.  Decapsulation recovers the state, verifies
the ternary signature (including the exact weight), and re-derives the
session key.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .goppa import ReceiverPublicKey, ReceiverSecretKey, keygen_receiver as keygen_receiver_params
from .hashes import H0, H1, hash_bits, hash_bits_later, hash_trits
from .mceliece import PkeCiphertext, pke_decrypt, pke_encrypt
from .params import CommonParams
from .uuvsign import (
    SenderPublicKey,
    SenderSecretKey,
    keygen_sender as keygen_sender_params,
    sign_syndrome,
    verify_syndrome,
)

__all__ = [
    "Encapsulation", "sym", "encap", "decap",
    "keygen_receiver_params", "keygen_sender_params",
]


@dataclass
class Encapsulation:
    e: np.ndarray          # n_s trits, weight omega
    c: PkeCiphertext


def sym(params: CommonParams, rng) -> tuple[np.ndarray, np.ndarray]:
    """(session key K, one-time state varpi).  Each state must feed at
    most one encapsulation."""
    varpi = rng.integers(0, 2, size=params.ell, dtype=np.uint8)
    K = hash_bits(H0, [varpi], params.ell)
    return K, varpi


def _bound(params: CommonParams, tag: bytes, varpi: np.ndarray, y: np.ndarray):
    """What an encapsulation binds, as the pair (syndrome signed, tag
    hash): the syndrome is H2(tag, varpi, H1(y)), and H1(tag) is
    encrypted before varpi.  Encap and decap both derive them here."""
    tau = hash_bits_later(H1, [tag], params.k_tilde)
    z = hash_bits(H1, [y], params.k_tilde)
    return hash_trits([tag, varpi, z], params.r_s), tau()


def encap(params: CommonParams, sk_s: SenderSecretKey, pk_r: ReceiverPublicKey,
          varpi: np.ndarray, tag: bytes, rng) -> Encapsulation:
    y = rng.integers(0, 2, size=params.kappa, dtype=np.uint8)
    target, tau_prime = _bound(params, tag, varpi, y)
    e = sign_syndrome(sk_s, target, params.omega, rng)
    c = pke_encrypt(pk_r, np.concatenate([tau_prime, varpi]), y, params.t)
    return Encapsulation(e=e, c=c)


def decap(params: CommonParams, sk_r: ReceiverSecretKey, pk_s: SenderPublicKey,
          E: Encapsulation, tag: bytes):
    """Session key, or None on any rejection."""
    res = pke_decrypt(sk_r, E.c)
    if res is None:
        return None
    x, y = res
    tau_tilde, varpi_tilde = x[: params.k_tilde], x[params.k_tilde:]
    target, tau = _bound(params, tag, varpi_tilde, y)
    if not verify_syndrome(pk_s, E.e, target, params.omega) or not np.array_equal(tau_tilde, tau):
        return None
    return hash_bits(H0, [varpi_tilde], params.ell)
