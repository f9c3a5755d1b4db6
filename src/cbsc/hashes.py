"""Domain-separated hashing built on SHAKE-256.

Five roles share one XOF, separated by a one-byte prefix: four random
oracles (bit output for roles 0, 1, 3; trit output for role 2) and the
DEM keystream (role 4).  Inputs are sequences of fields; each field is
framed as an 8-byte big-endian bit count followed by its LSB-first byte
packing, so variable-length concatenations are unambiguous.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .linalg import pack_rows, unpack_bits, unpack_trits

H0 = 0  # session key derivation, output length ell
H1 = 1  # k-tilde-bit oracle (tags, coins, PKE randomness)
H2 = 2  # ternary syndrome target, output length r_s trits
H3 = 3  # (k-tilde + ell)-bit one-time pad over the PKE payload
DEM = 4  # symmetric keystream

_TRIT_REJECT = 243  # bytes >= 3^5 are rejected; acceptance rate 243/256
_BIT_COUNT = struct.Struct(">Q")  # a field's framing header


def _shake(domain: int, fields) -> "hashlib._hashlib.HASHXOF":
    """The XOF of the domain byte and the framed fields, each fed as its
    bit count and then its bytes, without a framed copy."""
    xof = hashlib.shake_256(bytes([domain]))
    for f in fields:
        if isinstance(f, (bytes, bytearray)):
            xof.update(_BIT_COUNT.pack(8 * len(f)))
        else:
            bits = np.asarray(f, dtype=np.uint8)
            xof.update(_BIT_COUNT.pack(bits.size))
            f = pack_rows(bits.ravel())
        xof.update(f)
    return xof


def hash_bytes(domain: int, fields, nbytes: int) -> bytes:
    return _shake(domain, fields).digest(nbytes)


def hash_bits(domain: int, fields, out_len_bits: int) -> np.ndarray:
    data = hash_bytes(domain, fields, (out_len_bits + 7) // 8)
    return unpack_bits(data, out_len_bits)


def hash_trits(fields, r_s: int) -> np.ndarray:
    """r_s exactly uniform trits via rejection sampling from the H2 stream.

    Each accepted byte b < 243 yields 5 base-3 digits, least significant
    first.  SHAKE output is prefix-stable, so extending the read on a
    rejection-heavy input is consistent.  The first read covers the
    `need` accepted bytes plus need // 16 for the expected 13/243 rejects
    and isqrt(need) + 8 (over 4 standard deviations) of slack: for every
    r_s below 100,000 a second read follows with probability under 1e-7.
    """
    if r_s < 1:
        raise ValueError("r_s must be >= 1")
    xof = _shake(H2, fields)
    need = (r_s + 4) // 5
    nbytes = need + need // 16 + math.isqrt(need) + 8
    while True:
        stream = np.frombuffer(xof.digest(nbytes), dtype=np.uint8)
        accepted = stream[stream < _TRIT_REJECT]
        if 5 * len(accepted) >= r_s:
            return unpack_trits(accepted, r_s)
        nbytes *= 2


def keystream(key_bits: np.ndarray, nbytes: int) -> bytes:
    return hash_bytes(DEM, [key_bits], nbytes)
