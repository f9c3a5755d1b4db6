"""Domain-separated hashing built on SHAKE-256.

Five roles share one XOF, separated by a one-byte prefix: four random
oracles (bit output for roles 0, 1, 3; trit output for role 2) and the
DEM keystream (role 4).  Inputs are sequences of fields; each field is
framed as an 8-byte big-endian bit count followed by its LSB-first byte
packing, so variable-length concatenations are unambiguous.

Every hash runs on the calling thread except the absorption that
`hash_bits_later` hands to one worker thread when a bytes field is at
least `_BESIDE_BYTES` long: `sctkem._bound` absorbs a long tag for
H1(tag) there while it computes H2(tag, varpi, H1(y)) itself, so a long
payload is hashed on two cores.  The worker runs only `_shake` and the
caller takes the digest, so the output is the same bytes as on the
calling thread.  Shorter inputs start no thread and import no
`concurrent.futures`; a forked child starts a worker of its own.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
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
# A bytes field at least this long is absorbed on the worker thread by
# `hash_bits_later`.  hashlib releases the GIL in update() from 2 KiB on,
# but a hand-off to the worker costs tens of microseconds.  In interleaved
# sweeps of sctkem._bound at toy, in both of the VM's speed modes
# (CHANGES.md), the worker lost at 16 KiB in every sweep, at 32 and at
# 64 KiB in one of four, and won at 128 KiB and up in every sweep (0.63 to
# 0.70 of the serial time at 128 KiB).
_BESIDE_BYTES = 128 * 1024


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


@functools.cache
def _worker():
    """The one worker thread, started at the first long field (two threads
    that get there at once may each start one; either serves)."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="cbsc-hash")


# a pool inherited across fork() has no thread behind it in the child,
# so a job submitted there would never run
os.register_at_fork(after_in_child=_worker.cache_clear)


def hash_bits_later(domain: int, fields, out_len_bits: int):
    """A zero-argument call returning hash_bits(domain, fields, out_len_bits).

    When a bytes field is at least `_BESIDE_BYTES` long, the fields are
    absorbed now on the worker thread, so the caller can hash something
    else meanwhile; the call waits for them and takes the digest.
    Otherwise the call computes hash_bits itself.  The output is the same
    either way."""
    if not any(isinstance(f, (bytes, bytearray)) and len(f) >= _BESIDE_BYTES
               for f in fields):
        return lambda: hash_bits(domain, fields, out_len_bits)
    xof = _worker().submit(_shake, domain, fields)
    return lambda: unpack_bits(xof.result().digest((out_len_bits + 7) // 8), out_len_bits)


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
