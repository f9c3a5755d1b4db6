"""Bit-exact binary formats for keys, encapsulations, and messages.

All files start with the magic "CBSC" and a format version byte.  Key
files add a role byte and a profile byte; custom profiles embed their
parameter block so files stay self-describing.  Bit vectors are packed
row-major LSB-first; trit vectors five to a byte in base 3.

Every parser is total: a byte string either parses or raises
`FormatError`.  Payload lengths are checked before anything is
unpacked, and a receiver secret key is checked (g monic irreducible of
degree t, support of distinct field elements, a true permutation)
before its decoding material is built.
"""

from __future__ import annotations

import struct

import numpy as np

from . import fields as F
from .goppa import (
    GoppaCode,
    ReceiverPublicKey,
    ReceiverSecretKey,
    receiver_secret_key,
)
from .linalg import (
    Monomial,
    invert_matrix,
    pack_bits,
    pack_trits,
    unpack_bits,
    unpack_trits,
)
from .params import (
    CUSTOM_FIELDS,
    PROFILE_BY_ID,
    PROFILE_IDS,
    PROFILES,
    CommonParams,
    ParameterError,
    custom_params,
    profile_id,
)
from .sctkem import Encapsulation
from .mceliece import PkeCiphertext
from .uuvsign import SenderPublicKey, SenderSecretKey
from .hybrid import SigncryptedMessage

MAGIC = b"CBSC"
VERSION = 0x01

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


def _params_block(params: CommonParams) -> bytes:
    if profile_id(params) != PROFILE_IDS["custom"]:
        return b""
    return _CUSTOM_BLOCK.pack(*(getattr(params, f) for f in CUSTOM_FIELDS))


def _read_params(pid: int, data: bytes, off: int) -> tuple[CommonParams, int]:
    if pid == PROFILE_IDS["custom"]:
        try:
            vals = _CUSTOM_BLOCK.unpack_from(data, off)
        except struct.error as exc:
            raise FormatError("custom parameter block truncated") from exc
        try:
            return custom_params(dict(zip(CUSTOM_FIELDS, vals))), off + _CUSTOM_BLOCK.size
        except ParameterError as exc:
            raise FormatError(f"invalid custom parameter block: {exc}") from exc
    name = PROFILE_BY_ID.get(pid)
    if name is None or name == "custom":
        raise FormatError(f"unknown profile id {pid:#04x}")
    return PROFILES[name], off


def _check_header(data: bytes, expected_role: int | None = None) -> tuple[int, int]:
    if len(data) < 7 or data[:4] != MAGIC:
        raise FormatError("bad magic")
    if data[4] != VERSION:
        raise FormatError(f"unsupported format version {data[4]:#04x}")
    role = data[5]
    if expected_role is not None and role != expected_role:
        raise FormatError(
            f"expected {ROLE_NAMES.get(expected_role)} key, got "
            f"{ROLE_NAMES.get(role, hex(role))}")
    return role, data[6]


def _key_header(role: int, params: CommonParams) -> bytes:
    return MAGIC + bytes([VERSION, role, profile_id(params)]) + _params_block(params)


def _pack_elems(elems) -> bytes:
    return np.asarray(elems, dtype=">u2").tobytes()


def _unpack_elems(data: bytes, off: int, count: int) -> tuple[np.ndarray, int]:
    return np.frombuffer(data, dtype=">u2", count=count, offset=off), off + 2 * count


# ---------------------------------------------------------------------------
# keys

def ser_receiver_pub(params: CommonParams, pk: ReceiverPublicKey) -> bytes:
    return _key_header(ROLE_RECEIVER_PUB, params) + pack_bits(pk.G)


def par_receiver_pub(data: bytes) -> tuple[CommonParams, ReceiverPublicKey]:
    _, pid = _check_header(data, ROLE_RECEIVER_PUB)
    params, off = _read_params(pid, data, 7)
    nbits = params.k_tilde * params.n_r
    if len(data) - off != (nbits + 7) // 8:
        raise FormatError("receiver public key payload length mismatch")
    G = unpack_bits(data[off:], nbits).reshape(params.k_tilde, params.n_r)
    return params, ReceiverPublicKey(G=G)


def ser_receiver_sec(params: CommonParams, sk: ReceiverSecretKey) -> bytes:
    out = [_key_header(ROLE_RECEIVER_SEC, params)]
    out.append(_pack_elems(sk.code.g))
    out.append(_pack_elems(sk.code.support))
    out.append(pack_bits(sk.S))
    out.append(_pack_elems(sk.P.perm))
    return b"".join(out)


def _check_perm(perm: np.ndarray) -> None:
    if not np.array_equal(np.sort(perm), np.arange(len(perm))):
        raise FormatError("P is not a permutation of the coordinates")


def par_receiver_sec(data: bytes) -> tuple[CommonParams, ReceiverSecretKey]:
    _, pid = _check_header(data, ROLE_RECEIVER_SEC)
    params, off = _read_params(pid, data, 7)
    m, t, n = params.m, params.t, params.n_r
    sbits = params.k_tilde * params.k_r
    if len(data) - off != 2 * (t + 1) + 2 * n + (sbits + 7) // 8 + 2 * n:
        raise FormatError("receiver secret key payload length mismatch")
    g, off = _unpack_elems(data, off, t + 1)
    support, off = _unpack_elems(data, off, n)
    g, support = g.tolist(), support.tolist()
    S = unpack_bits(data[off: off + (sbits + 7) // 8], sbits).reshape(
        params.k_tilde, params.k_r)
    off += (sbits + 7) // 8
    perm, off = _unpack_elems(data, off, n)
    _check_perm(perm)
    # Patterson's square root is only correct for an irreducible g
    if g[-1] != 1 or max(g) >> m or not F.poly_is_irreducible(g, m):
        raise FormatError("g is not monic irreducible of degree t over GF(2^m)")
    try:
        code = GoppaCode(m, t, g, support)
    except ValueError as exc:
        raise FormatError(f"invalid Goppa code: {exc}") from exc
    P = Monomial(perm, np.ones(n, dtype=np.uint8))
    return params, receiver_secret_key(code, S, P)


def ser_sender_pub(params: CommonParams, pk: SenderPublicKey) -> bytes:
    return _key_header(ROLE_SENDER_PUB, params) + pack_trits(pk.H)


def par_sender_pub(data: bytes) -> tuple[CommonParams, SenderPublicKey]:
    _, pid = _check_header(data, ROLE_SENDER_PUB)
    params, off = _read_params(pid, data, 7)
    n = params.r_s * params.n_s
    if len(data) - off != (n + 4) // 5:
        raise FormatError("sender public key payload length mismatch")
    H = unpack_trits(data[off:], n).reshape(params.r_s, params.n_s)
    return params, SenderPublicKey(H=H)


def ser_sender_sec(params: CommonParams, sk: SenderSecretKey) -> bytes:
    out = [_key_header(ROLE_SENDER_SEC, params)]
    out.append(pack_trits(sk.S))
    out.append(pack_trits(sk.H_sk))
    out.append(_pack_elems(sk.P.perm))
    out.append(pack_bits(sk.P.scalars - 1))
    return b"".join(out)


def par_sender_sec(data: bytes) -> tuple[CommonParams, SenderSecretKey]:
    _, pid = _check_header(data, ROLE_SENDER_SEC)
    params, off = _read_params(pid, data, 7)
    r, n = params.r_s, params.n_s
    ns, nh = r * r, r * n
    if len(data) - off != (ns + 4) // 5 + (nh + 4) // 5 + 2 * n + (n + 7) // 8:
        raise FormatError("sender secret key payload length mismatch")
    S = unpack_trits(data[off: off + (ns + 4) // 5], ns).reshape(r, r)
    off += (ns + 4) // 5
    H_sk = unpack_trits(data[off: off + (nh + 4) // 5], nh).reshape(r, n)
    off += (nh + 4) // 5
    perm, off = _unpack_elems(data, off, n)
    _check_perm(perm)
    scal = unpack_bits(data[off:], n)
    try:
        S_inv = invert_matrix(S, 3)
    except ValueError as exc:
        raise FormatError(f"sender secret key: {exc}") from exc
    P = Monomial(perm, scal + 1)
    return params, SenderSecretKey(S=S, S_inv=S_inv, H_sk=H_sk,
                                   P=P, k_U=params.k_U, k_V=params.k_V)


KEY_SERIALIZERS = {
    ROLE_RECEIVER_PUB: ser_receiver_pub,
    ROLE_RECEIVER_SEC: ser_receiver_sec,
    ROLE_SENDER_PUB: ser_sender_pub,
    ROLE_SENDER_SEC: ser_sender_sec,
}

KEY_PARSERS = {
    ROLE_RECEIVER_PUB: par_receiver_pub,
    ROLE_RECEIVER_SEC: par_receiver_sec,
    ROLE_SENDER_PUB: par_sender_pub,
    ROLE_SENDER_SEC: par_sender_sec,
}


# ---------------------------------------------------------------------------
# encapsulations and signcrypted messages

def ser_encapsulation(params: CommonParams, E: Encapsulation) -> bytes:
    return (bytes([VERSION, profile_id(params)]) + _params_block(params)
            + pack_trits(E.e) + pack_bits(E.c.c0) + pack_bits(E.c.c1))


def par_encapsulation(data: bytes) -> tuple[CommonParams, Encapsulation]:
    if len(data) < 2:
        raise FormatError("encapsulation truncated")
    if data[0] != VERSION:
        raise FormatError(f"unsupported format version {data[0]:#04x}")
    params, off = _read_params(data[1], data, 2)
    ne = (params.n_s + 4) // 5
    n0 = (params.n_r + 7) // 8
    n1 = (params.k_tilde + params.ell + 7) // 8
    if len(data) - off != ne + n0 + n1:
        raise FormatError("encapsulation length mismatch")
    e = unpack_trits(data[off: off + ne], params.n_s)
    off += ne
    c0 = unpack_bits(data[off: off + n0], params.n_r)
    off += n0
    c1 = unpack_bits(data[off:], params.k_tilde + params.ell)
    return params, Encapsulation(e=e, c=PkeCiphertext(c0, c1))


def ser_message(params: CommonParams, sc: SigncryptedMessage) -> bytes:
    eblock = ser_encapsulation(params, sc.E)
    return (MAGIC + bytes([VERSION, profile_id(params)])
            + struct.pack(">Q", len(eblock)) + eblock
            + struct.pack(">Q", len(sc.C)) + sc.C)


def par_message(data: bytes) -> tuple[CommonParams, SigncryptedMessage]:
    if len(data) < 14 or data[:4] != MAGIC:
        raise FormatError("bad magic")
    if data[4] != VERSION:
        raise FormatError(f"unsupported format version {data[4]:#04x}")
    pid = data[5]
    (elen,) = struct.unpack_from(">Q", data, 6)
    off = 14
    if len(data) < off + elen + 8:
        raise FormatError("message truncated")
    eparams, E = par_encapsulation(data[off: off + elen])
    if profile_id(eparams) != pid:
        raise FormatError("profile mismatch between header and encapsulation")
    off += elen
    (clen,) = struct.unpack_from(">Q", data, off)
    off += 8
    if len(data) != off + clen:
        raise FormatError("message length mismatch")
    return eparams, SigncryptedMessage(E=E, C=data[off:])
