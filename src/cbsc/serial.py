"""Bit-exact binary formats for keys, encapsulations, and messages.

All files start with the magic "CBSC" and a format version byte.  Key
files add a role byte and a profile byte; custom profiles embed their
parameter block so files stay self-describing.  `_write_params` and
`_read_params` are the one statement of how a profile is written: the
id byte, then the block when the id is CUSTOM_ID.  A message embeds an
encapsulation, which starts with the version byte and no magic; one
header check reads the version of keys, messages and encapsulations.
Bit vectors are packed row-major LSB-first; trit vectors five to a
byte in base 3.

Every parser is total: a byte string either parses or raises
`FormatError`.  Encodings are canonical, one encoding per value, and
this is checked on the bytes before a field is unpacked: every trit
byte is below 3^5 = 243, and the padding of a field's last byte, its
trits beyond the field's length or its bits beyond it, is zero.  Any
16-bit element field is canonical.  A field so checked re-encodes to
its own bytes.  Fields are read through views of the input, so a
parser copies no field before unpacking it.  A custom parameter block
is parsed and validated once per distinct block and then looked up by
its bytes.  Payload lengths are checked before anything is unpacked.
Every key file, public or secret, is read by `_par_key`, which passes
its profile and fields to the role's builder in one guarded call: a
ValueError of the build is a `FormatError` with the role's one prefix,
"receiver-sec key:" and so on.  A secret key's builder makes P as a
`Monomial`, which refuses a P that is not a permutation, and applies
the one rule of a valid key of its role, which key generation also
applies.  A receiver secret key file holds g, the support, S and P's
permutation (its scalars are 1 and not stored), and
`goppa.receiver_secret_key` builds the code, checks that g is
irreducible, then checks the code's dimension and S.  A sender secret
key file holds what key generation draws, H_U, H_V and P (perm and
scalars), and is checked by `uuvsign.sender_secret_key`; a sender
public key file holds the A of the public [I | A].
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .goppa import ReceiverPublicKey, ReceiverSecretKey, receiver_secret_key
from .linalg import Monomial, pack_bits, pack_rows, pack_trits
from .linalg import unpack_bits, unpack_rows, unpack_trits
from .params import (
    CUSTOM_FIELDS,
    CUSTOM_ID,
    PROFILE_IDS,
    CommonParams,
    ParameterError,
    custom_params,
    profile_id,
)
from .sctkem import Encapsulation
from .mceliece import PkeCiphertext
from .uuvsign import SenderPublicKey, SenderSecretKey, sender_secret_key
from .hybrid import SigncryptedMessage

MAGIC = b"CBSC"
VERSION = 0x03

ROLE_SENDER_PUB = 0x01
ROLE_SENDER_SEC = 0x02
ROLE_RECEIVER_PUB = 0x03
ROLE_RECEIVER_SEC = 0x04

ROLE_NAMES = {
    ROLE_SENDER_PUB: "sender-pub",
    ROLE_SENDER_SEC: "sender-sec",
    ROLE_RECEIVER_PUB: "receiver-pub",
    ROLE_RECEIVER_SEC: "receiver-sec",
}

_CUSTOM_BLOCK = struct.Struct(f">{len(CUSTOM_FIELDS)}I")


class FormatError(ValueError):
    pass


class Codec(NamedTuple):
    nbytes: Callable[[int], int]                 # bytes that hold n values
    pack: Callable[[np.ndarray], bytes]
    unpack: Callable[[bytes, int], np.ndarray]   # (bytes, n) -> n values
    canonical: Callable[[bytes, int], bool]      # (bytes, n) -> the one encoding of n values?


def _bits_canonical(data, n: int) -> bool:
    # the bits of the last byte beyond n are zero
    return n % 8 == 0 or data[-1] >> n % 8 == 0


def _trits_canonical(data, n: int) -> bool:
    # the last byte holds n % 5 trits and zeros, and no byte reaches 3**5
    return ((n % 5 == 0 or data[-1] < 3 ** (n % 5))
            and (n == 0 or np.frombuffer(data, dtype=np.uint8).max() < 243))


BITS = Codec(lambda n: (n + 7) // 8, pack_bits, unpack_bits, _bits_canonical)
TRITS = Codec(lambda n: (n + 4) // 5, pack_trits, unpack_trits, _trits_canonical)
ELEMS = Codec(lambda n: 2 * n,                   # big-endian 16-bit integers
              lambda a: np.asarray(a, dtype=">u2").tobytes(),
              lambda b, n: np.frombuffer(b, dtype=">u2", count=n),
              lambda b, n: True)


class Field(NamedTuple):
    name: str
    codec: Codec
    shape: Callable[[CommonParams], tuple[int, ...]]
    get: Callable[[object], np.ndarray]          # the value, from the object


ENCAPSULATION = "encapsulation"

# The payload of each wire object, field by field in file order.  The
# serialisers, the length check and the parsers all read this table.
LAYOUTS = {
    ROLE_RECEIVER_PUB: (
        Field("G", BITS, lambda p: (p.k_tilde, p.n_r), lambda pk: pk.G),),
    ROLE_RECEIVER_SEC: (
        Field("g", ELEMS, lambda p: (p.t + 1,), lambda sk: sk.code.g),
        Field("support", ELEMS, lambda p: (p.n_r,), lambda sk: sk.code.support),
        Field("S", BITS, lambda p: (p.k_tilde, p.k_r),
              lambda sk: unpack_rows(sk.S_rows, len(sk.info))),
        Field("perm", ELEMS, lambda p: (p.n_r,), lambda sk: sk.P.perm)),
    ROLE_SENDER_PUB: (
        Field("A", TRITS, lambda p: (p.r_s, p.n_s - p.r_s), lambda pk: pk.A),),
    ROLE_SENDER_SEC: (
        Field("H_U", TRITS, lambda p: (p.n_s // 2 - p.k_U, p.n_s // 2), lambda sk: sk.H_U),
        Field("H_V", TRITS, lambda p: (p.n_s // 2 - p.k_V, p.n_s // 2), lambda sk: sk.H_V),
        Field("perm", ELEMS, lambda p: (p.n_s,), lambda sk: sk.P.perm),
        Field("scalars", BITS, lambda p: (p.n_s,), lambda sk: sk.P.scalars - 1)),
    ENCAPSULATION: (
        Field("e", TRITS, lambda p: (p.n_s,), lambda E: E.e),
        Field("c0", BITS, lambda p: (p.n_r,), lambda E: E.c.c0),
        Field("c1", BITS, lambda p: (p.k_tilde + p.ell,), lambda E: E.c.c1)),
}


def _pack(what, obj) -> bytes:
    return b"".join(f.codec.pack(f.get(obj)) for f in LAYOUTS[what])


def _unpack(what, params: CommonParams, payload: memoryview) -> dict[str, np.ndarray]:
    shapes = [f.shape(params) for f in LAYOUTS[what]]
    sizes = [f.codec.nbytes(math.prod(s)) for f, s in zip(LAYOUTS[what], shapes)]
    if len(payload) != sum(sizes):
        raise FormatError(f"{ROLE_NAMES.get(what, what)} payload length mismatch")
    values, off = {}, 0
    for f, shape, size in zip(LAYOUTS[what], shapes, sizes):
        field, n = payload[off: off + size], math.prod(shape)
        if not f.codec.canonical(field, n):
            raise FormatError(f"{ROLE_NAMES.get(what, what)} field {f.name} "
                              "is not canonically encoded")
        values[f.name] = f.codec.unpack(field, n).reshape(shape)
        off += size
    return values


def _write_params(params: CommonParams) -> bytes:
    """The profile id byte, then the parameter block of a custom profile."""
    pid = profile_id(params)
    if pid != CUSTOM_ID:
        return bytes([pid])
    return bytes([pid]) + _CUSTOM_BLOCK.pack(*(getattr(params, f) for f in CUSTOM_FIELDS))


@functools.lru_cache(maxsize=16)
def _custom_block(block: bytes) -> CommonParams:
    """The validated profile of a custom parameter block; a block that
    raises is not cached."""
    try:
        return custom_params(dict(zip(CUSTOM_FIELDS, _CUSTOM_BLOCK.unpack(block))))
    except ParameterError as exc:
        raise FormatError(f"invalid custom parameter block: {exc}") from exc


def _check_header(data: bytes, size: int, what: str, magic: bytes = MAGIC) -> None:
    """Raise FormatError unless `data` starts with `magic` and VERSION and
    holds the `size` bytes of a `what` header; a correct prefix of the
    magic is a truncation.  An encapsulation, which has no magic,
    passes b""."""
    if not magic.startswith(data[:len(magic)]):
        raise FormatError("bad magic")
    if len(data) < size:
        raise FormatError(f"{what} header truncated")
    if data[len(magic)] != VERSION:
        raise FormatError(f"unsupported format version {data[len(magic)]:#04x}")


def _read_params(data: bytes | memoryview, off: int) -> tuple[CommonParams, int]:
    """The profile written by `_write_params` at `off`, and the offset
    past it."""
    pid, off = data[off], off + 1
    if pid == CUSTOM_ID:
        end = off + _CUSTOM_BLOCK.size
        if len(data) < end:
            raise FormatError("custom parameter block truncated")
        return _custom_block(bytes(data[off:end])), end
    if pid not in PROFILE_IDS:
        raise FormatError(f"unknown profile id {pid:#04x}")
    return PROFILE_IDS[pid], off


# ---------------------------------------------------------------------------
# keys: magic, version, role, profile id, custom block, payload

def _ser_key(role: int, params: CommonParams, key) -> bytes:
    return MAGIC + bytes([VERSION, role]) + _write_params(params) + _pack(role, key)


def _par_key(role: int, data: bytes, build) -> tuple[CommonParams, object]:
    """The profile of a `role` key file and the key that `build(params,
    fields)` makes of its payload; the one guard of every key's build
    turns its ValueError into a FormatError with the role's prefix."""
    _check_header(data, 7, "key")
    if data[5] != role:
        raise FormatError(f"expected {ROLE_NAMES[role]} key, got "
                          f"{ROLE_NAMES.get(data[5], hex(data[5]))}")
    params, off = _read_params(data, 6)
    fields = _unpack(role, params, memoryview(data)[off:])
    try:
        return params, build(params, fields)
    except ValueError as exc:
        raise FormatError(f"{ROLE_NAMES[role]} key: {exc}") from exc


def ser_receiver_pub(params: CommonParams, pk: ReceiverPublicKey) -> bytes:
    return _ser_key(ROLE_RECEIVER_PUB, params, pk)


def par_receiver_pub(data: bytes) -> tuple[CommonParams, ReceiverPublicKey]:
    return _par_key(ROLE_RECEIVER_PUB, data,
                    lambda p, v: ReceiverPublicKey(pack_rows(v["G"]), p.n_r))


def ser_receiver_sec(params: CommonParams, sk: ReceiverSecretKey) -> bytes:
    return _ser_key(ROLE_RECEIVER_SEC, params, sk)


def par_receiver_sec(data: bytes) -> tuple[CommonParams, ReceiverSecretKey]:
    return _par_key(ROLE_RECEIVER_SEC, data, lambda p, v: receiver_secret_key(
        p.m, p.t, v["g"].tolist(), v["support"].tolist(), v["S"],
        Monomial(v["perm"], np.ones(p.n_r, dtype=np.uint8))))


def ser_sender_pub(params: CommonParams, pk: SenderPublicKey) -> bytes:
    return _ser_key(ROLE_SENDER_PUB, params, pk)


def par_sender_pub(data: bytes) -> tuple[CommonParams, SenderPublicKey]:
    return _par_key(ROLE_SENDER_PUB, data, lambda p, v: SenderPublicKey(A=v["A"]))


def ser_sender_sec(params: CommonParams, sk: SenderSecretKey) -> bytes:
    return _ser_key(ROLE_SENDER_SEC, params, sk)


def par_sender_sec(data: bytes) -> tuple[CommonParams, SenderSecretKey]:
    return _par_key(ROLE_SENDER_SEC, data, lambda p, v: sender_secret_key(
        v["H_U"], v["H_V"], Monomial(v["perm"], v["scalars"] + 1)))


# ---------------------------------------------------------------------------
# encapsulations and signcrypted messages

def ser_encapsulation(params: CommonParams, E: Encapsulation) -> bytes:
    return bytes([VERSION]) + _write_params(params) + _pack(ENCAPSULATION, E)


def par_encapsulation(data: bytes | memoryview) -> tuple[CommonParams, Encapsulation]:
    _check_header(data, 2, "encapsulation", magic=b"")
    params, off = _read_params(data, 1)
    v = _unpack(ENCAPSULATION, params, memoryview(data)[off:])
    return params, Encapsulation(e=v["e"], c=PkeCiphertext(v["c0"], v["c1"]))


def ser_message(params: CommonParams, sc: SigncryptedMessage) -> bytes:
    eblock = ser_encapsulation(params, sc.E)
    return (MAGIC + bytes([VERSION, profile_id(params)])
            + struct.pack(">Q", len(eblock)) + eblock
            + struct.pack(">Q", len(sc.C)) + sc.C)


def par_message(data: bytes) -> tuple[CommonParams, SigncryptedMessage]:
    _check_header(data, 14, "message")
    pid = data[5]
    (elen,) = struct.unpack_from(">Q", data, 6)
    off = 14
    if len(data) < off + elen + 8:
        raise FormatError("message truncated")
    eparams, E = par_encapsulation(memoryview(data)[off: off + elen])
    if profile_id(eparams) != pid:
        raise FormatError("profile mismatch between header and encapsulation")
    off += elen
    (clen,) = struct.unpack_from(">Q", data, off)
    off += 8
    if len(data) != off + clen:
        raise FormatError("message length mismatch")
    return eparams, SigncryptedMessage(E=E, C=data[off:])
