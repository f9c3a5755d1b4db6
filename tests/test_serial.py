"""Binary formats: byte-exact round trips and strict failure on damage."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsc import fields as F
from cbsc import serial
from cbsc.estimator import sizes
from cbsc.goppa import GoppaCode, generator_matrix
from cbsc.hybrid import SigncryptedMessage, signcrypt, unsigncrypt
from cbsc.linalg import pack_bits, pack_trits, unpack_rows
from cbsc.params import TOY, custom_params, setup
from cbsc.sctkem import keygen_receiver_params, keygen_sender_params, sym, encap

import oracles as O
from test_golden import MID


def test_receiver_pub_roundtrip(toy_params, receiver_keys):
    _, pk = receiver_keys
    blob = serial.ser_receiver_pub(toy_params, pk)
    params, pk2 = serial.par_receiver_pub(blob)
    assert params == toy_params
    assert np.array_equal(pk.G, pk2.G)
    assert serial.ser_receiver_pub(params, pk2) == blob


def test_receiver_sec_roundtrip(toy_params, receiver_keys):
    sk, _ = receiver_keys
    blob = serial.ser_receiver_sec(toy_params, sk)
    params, sk2 = serial.par_receiver_sec(blob)
    assert sk2.code.g == sk.code.g
    assert sk2.code.support == sk.code.support
    assert np.array_equal(sk2.S_rows, sk.S_rows)
    assert np.array_equal(sk2.P.perm, sk.P.perm)
    assert np.array_equal(sk2.P.scalars, sk.P.scalars)
    assert np.array_equal(sk2.info, sk.info)
    assert serial.ser_receiver_sec(params, sk2) == blob


def test_sender_pub_roundtrip(toy_params, sender_keys):
    _, pk = sender_keys
    blob = serial.ser_sender_pub(toy_params, pk)
    params, pk2 = serial.par_sender_pub(blob)
    assert np.array_equal(pk.A, pk2.A)
    assert serial.ser_sender_pub(params, pk2) == blob


def test_sender_sec_roundtrip(toy_params, sender_keys):
    sk, _ = sender_keys
    blob = serial.ser_sender_sec(toy_params, sk)
    params, sk2 = serial.par_sender_sec(blob)
    assert np.array_equal(sk2.H_U, sk.H_U)
    assert np.array_equal(sk2.H_V, sk.H_V)
    assert np.array_equal(sk2.P.perm, sk.P.perm)
    assert np.array_equal(sk2.P.scalars, sk.P.scalars)
    assert serial.ser_sender_sec(params, sk2) == blob


L1_20 = setup(str(Path(__file__).resolve().parent.parent / "perfbench" / "l1-20.profile"))


# n_r = 30: each public row ends mid-byte, so the file's flat bit
# packing and the key's packed rows differ
N30 = custom_params(dict(n_s=16, k_U=4, k_V=4, omega=14, m=5, n_r=30,
                         t=2, k_tilde=16, ell=16, salt_bits=16))


@pytest.mark.parametrize("params", [TOY, N30, L1_20], ids=["toy", "n30", "l1-20"])
def test_receiver_sec_file_rederives_the_pub_file(params):
    """A receiver secret key file alone gives back the public key file's
    S·G·P: the product of the loaded S and the code's generator, under
    the loaded P."""
    sk, pk = keygen_receiver_params(params, np.random.default_rng(0))
    _, pk2 = serial.par_receiver_pub(serial.ser_receiver_pub(params, pk))
    _, sk2 = serial.par_receiver_sec(serial.ser_receiver_sec(params, sk))
    SG = O.matmul(unpack_rows(sk2.S_rows, params.k_r), generator_matrix(sk2.code), 2)
    assert np.array_equal(pk2.G, O.mat_mono(SG, sk2.P, 2))


@pytest.mark.parametrize("params", [TOY, MID, L1_20], ids=["toy", "mid", "l1-20"])
def test_sender_pub_file_matches_size_formula(params):
    """The payload of a sender public key file is the A of [I | A]: at
    least the r_s(n_s - r_s) trits of `sender_pub_bits`, and at most
    0.95% more (five trits in 8 bits, not 5 log2 3) plus the padding of
    the last byte."""
    _, pk = keygen_sender_params(params, np.random.default_rng(0))
    blob = serial.ser_sender_pub(params, pk)
    payload_bits = 8 * (len(blob) - 6 - len(serial._write_params(params)))
    formula = next(r.value for r in sizes(params) if r.name == "sender_pub_bits")
    assert formula <= payload_bits <= formula * 1.0095 + 8


@pytest.mark.parametrize("params", [TOY, MID, L1_20], ids=["toy", "mid", "l1-20"])
def test_sender_sec_file_holds_the_draws(params):
    """The payload of a sender secret key file is H_U and H_V, each held
    once as trits, then the perm and scalars of P: no H_sk, whose blocks
    repeat H_V and add a zero block."""
    sk, _ = keygen_sender_params(params, np.random.default_rng(0))
    blob = serial.ser_sender_sec(params, sk)
    payload = blob[6 + len(serial._write_params(params)):]
    assert payload == (pack_trits(sk.H_U) + pack_trits(sk.H_V)
                       + np.asarray(sk.P.perm, dtype=">u2").tobytes()
                       + pack_bits(sk.P.scalars - 1))


def test_reparsed_keys_interoperate(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    _, sk_r2 = serial.par_receiver_sec(serial.ser_receiver_sec(toy_params, sk_r))
    _, pk_r2 = serial.par_receiver_pub(serial.ser_receiver_pub(toy_params, pk_r))
    _, sk_s2 = serial.par_sender_sec(serial.ser_sender_sec(toy_params, sk_s))
    _, pk_s2 = serial.par_sender_pub(serial.ser_sender_pub(toy_params, pk_s))
    rng = np.random.default_rng(0)
    sc = signcrypt(toy_params, sk_s2, pk_r2, b"interop", rng)
    assert unsigncrypt(toy_params, sk_r2, pk_s2, sc) == b"interop"


def test_encapsulation_roundtrip(toy_params, receiver_keys, sender_keys):
    _, pk_r = receiver_keys
    sk_s, _ = sender_keys
    rng = np.random.default_rng(1)
    _, varpi = sym(toy_params, rng)
    E = encap(toy_params, sk_s, pk_r, varpi, b"tag", rng)
    blob = serial.ser_encapsulation(toy_params, E)
    params, E2 = serial.par_encapsulation(blob)
    assert np.array_equal(E.e, E2.e)
    assert np.array_equal(E.c.c0, E2.c.c0)
    assert np.array_equal(E.c.c1, E2.c.c1)
    assert serial.ser_encapsulation(params, E2) == blob


def test_message_roundtrip(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(2)
    sc = signcrypt(toy_params, sk_s, pk_r, b"wire format", rng)
    blob = serial.ser_message(toy_params, sc)
    params, sc2 = serial.par_message(blob)
    assert sc2.C == sc.C
    assert np.array_equal(sc2.E.e, sc.E.e)
    assert unsigncrypt(params, sk_r, pk_s, sc2) == b"wire format"
    assert serial.ser_message(params, sc2) == blob


def test_custom_profile_embedded(receiver_keys):
    params = custom_params(dict(n_s=16, k_U=4, k_V=4, omega=14, m=5, n_r=32,
                                t=2, k_tilde=16, ell=16, salt_bits=16))
    _, pk = receiver_keys
    blob = serial.ser_receiver_pub(params, pk)
    # custom profile id plus a 40-byte parameter block
    assert blob[6] == 0x7F
    parsed, pk2 = serial.par_receiver_pub(blob)
    assert parsed.n_s == 16 and parsed.salt_bits == 16
    assert np.array_equal(pk.G, pk2.G)
    assert len(blob) == len(serial.ser_receiver_pub(TOY, pk)) + 40


def test_named_profile_with_other_values_is_custom(receiver_keys, sender_keys):
    # a profile that keeps the name "toy" with omega = 12 is written with
    # the custom id and its block, so its key and message files parse
    # back with omega = 12, not as TOY with omega = 14
    params = dataclasses.replace(TOY, omega=12)
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    key = serial.ser_sender_pub(params, pk_s)
    assert key[6] == 0x7F
    parsed, pk2 = serial.par_sender_pub(key)
    assert parsed.omega == 12 and parsed != TOY
    assert serial.ser_sender_pub(parsed, pk2) == key
    sc = signcrypt(params, sk_s, pk_r, b"omega 12", np.random.default_rng(5))
    assert int(np.count_nonzero(sc.E.e)) == 12
    blob = serial.ser_message(params, sc)
    assert blob[5] == 0x7F
    parsed, sc2 = serial.par_message(blob)
    assert parsed.omega == 12
    assert serial.ser_message(parsed, sc2) == blob
    assert unsigncrypt(parsed, sk_r, pk_s, sc2) == b"omega 12"
    assert serial.ser_message(TOY, sc)[5] == 0x01


def test_bad_magic(toy_params, receiver_keys):
    _, pk = receiver_keys
    blob = serial.ser_receiver_pub(toy_params, pk)
    with pytest.raises(serial.FormatError, match="bad magic"):
        serial.par_receiver_pub(b"XXXX" + blob[4:])
    with pytest.raises(serial.FormatError, match="bad magic"):
        serial.par_message(b"XXXX" + blob[4:])


def test_bad_version(toy_params, receiver_keys, sender_keys):
    # 0x01 is the format whose sender keys held S and the full S H_sk P,
    # 0x02 the one whose sender secret key held H_sk.  A message carries
    # two version bytes: its own at 4 and its encapsulation's at 14.
    message = serial.ser_message(toy_params, signcrypt(
        toy_params, sender_keys[0], receiver_keys[1], b"version", np.random.default_rng(5)))
    cases = [(serial.par_receiver_pub, serial.ser_receiver_pub(toy_params, receiver_keys[1]), 4),
             (serial.par_sender_pub, serial.ser_sender_pub(toy_params, sender_keys[1]), 4),
             (serial.par_sender_sec, serial.ser_sender_sec(toy_params, sender_keys[0]), 4),
             (serial.par_message, message, 4),
             (serial.par_message, message, 14)]
    for parse, blob, offset in cases:
        for version in (0x01, 0x02, 0x99):
            old = bytearray(blob)
            old[offset] = version
            with pytest.raises(serial.FormatError, match="unsupported format version"):
                parse(bytes(old))


def test_message_profile_mismatch_rejected(toy_params, receiver_keys, sender_keys):
    # the header's profile id is paper-l1's, its encapsulation's is toy's
    blob = bytearray(serial.ser_message(toy_params, signcrypt(
        toy_params, sender_keys[0], receiver_keys[1], b"profile", np.random.default_rng(5))))
    assert blob[5] == 0x01
    blob[5] = 0x02
    with pytest.raises(serial.FormatError, match="profile mismatch between header"):
        serial.par_message(bytes(blob))


def test_role_mismatch(toy_params, receiver_keys):
    _, pk = receiver_keys
    blob = serial.ser_receiver_pub(toy_params, pk)
    with pytest.raises(serial.FormatError):
        serial.par_sender_pub(blob)


@pytest.mark.parametrize("pid", range(256))
def test_unknown_profile_id(toy_params, receiver_keys, pid):
    # only the toy id parses a toy payload: paper-l1's expects another
    # length, and 0x7F reads the payload as a custom parameter block
    _, pk = receiver_keys
    blob = bytearray(serial.ser_receiver_pub(toy_params, pk))
    blob[6] = pid
    if pid == 0x01:
        assert serial.par_receiver_pub(bytes(blob))[0] is TOY
    else:
        with pytest.raises(serial.FormatError):
            serial.par_receiver_pub(bytes(blob))


def test_truncated_payloads_rejected(toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    rng = np.random.default_rng(3)
    sc = signcrypt(toy_params, sk_s, pk_r, b"truncation", rng)
    blobs = [
        serial.ser_receiver_pub(toy_params, pk_r),
        serial.ser_receiver_sec(toy_params, sk_r),
        serial.ser_sender_pub(toy_params, pk_s),
        serial.ser_sender_sec(toy_params, sk_s),
        serial.ser_message(toy_params, sc),
    ]
    parsers = [serial.par_receiver_pub, serial.par_receiver_sec,
               serial.par_sender_pub, serial.par_sender_sec,
               serial.par_message]
    for blob, parse in zip(blobs, parsers):
        for cut in (len(blob) - 1, len(blob) // 2, 3):
            with pytest.raises(serial.FormatError):
                parse(blob[:cut])
        with pytest.raises(serial.FormatError):
            parse(blob + b"\x00")
    # a header cut after a correct magic is a truncation, not bad magic
    for parse in (serial.par_receiver_pub, serial.par_message):
        with pytest.raises(serial.FormatError, match="header truncated"):
            parse(b"CBSC\x03\x03")


def test_cut_inside_custom_parameter_block_rejected():
    # an L1/20 key file has its 40-byte block after 7 header bytes, an
    # encapsulation after 2
    rng = np.random.default_rng(9)
    sk_r, pk_r = keygen_receiver_params(L1_20, rng)
    sk_s, _ = keygen_sender_params(L1_20, rng)
    _, varpi = sym(L1_20, rng)
    E = encap(L1_20, sk_s, pk_r, varpi, b"cut", rng)
    for parse, blob, start in ((serial.par_receiver_pub, serial.ser_receiver_pub(L1_20, pk_r), 7),
                               (serial.par_encapsulation, serial.ser_encapsulation(L1_20, E), 2)):
        assert parse(blob)[0] == L1_20
        for cut in (start, start + 20, start + 39):
            with pytest.raises(serial.FormatError, match="custom parameter block truncated"):
                parse(blob[:cut])


# --- total parsers ------------------------------------------------------------

_TOY_VALUES = dict(n_s=16, k_U=4, k_V=4, omega=14, m=5, n_r=32, t=2,
                   k_tilde=16, ell=16, salt_bits=16)


def _custom_message(receiver_keys, sender_keys):
    """A toy signcryption serialised under an equivalent custom profile."""
    params = custom_params(_TOY_VALUES)
    sk_r, pk_r = receiver_keys
    sk_s, _ = sender_keys
    sc = signcrypt(params, sk_s, pk_r, b"custom", np.random.default_rng(4))
    return serial.ser_message(params, sc)


def test_invalid_custom_block_is_a_format_error(receiver_keys, sender_keys):
    blob = bytearray(_custom_message(receiver_keys, sender_keys))
    assert serial.par_message(bytes(blob))[0].n_s == 16
    # message header (14 bytes), then version, profile id, block (n_s first)
    blob[16:20] = (17).to_bytes(4, "big")                 # odd n_s
    with pytest.raises(serial.FormatError, match="n_s must be even"):
        serial.par_message(bytes(blob))
    with pytest.raises(serial.FormatError):
        serial.par_encapsulation(bytes(blob[14:-8 - 6]))
    _, pk = receiver_keys
    key = bytearray(serial.ser_receiver_pub(custom_params(_TOY_VALUES), pk))
    key[7:11] = (0).to_bytes(4, "big")
    with pytest.raises(serial.FormatError):
        serial.par_receiver_pub(bytes(key))


def test_custom_block_is_parsed_once(monkeypatch, receiver_keys, sender_keys):
    """Messages and key files that carry one custom block share the
    profile validated from its first parse; a block that fails raises
    on every parse."""
    serial._custom_block.cache_clear()
    calls = []
    monkeypatch.setattr(serial, "custom_params",
                        lambda values: calls.append(values) or custom_params(values))
    blob = _custom_message(receiver_keys, sender_keys)
    _, pk = receiver_keys
    key = serial.ser_receiver_pub(custom_params(_TOY_VALUES), pk)
    parsed = [serial.par_message(blob)[0] for _ in range(3)]
    parsed.append(serial.par_receiver_pub(key)[0])
    assert len(calls) == 1 and all(p is parsed[0] for p in parsed)
    bad = bytearray(blob)
    bad[16:20] = (17).to_bytes(4, "big")                  # odd n_s
    for _ in range(2):
        with pytest.raises(serial.FormatError, match="n_s must be even"):
            serial.par_message(bytes(bad))
    assert len(calls) == 3


def test_custom_block_with_too_few_H_V_rows_is_a_format_error(receiver_keys,
                                                              sender_keys):
    blob = bytearray(_custom_message(receiver_keys, sender_keys))
    blob[24:28] = (7).to_bytes(4, "big")   # k_V: H_V has 8 - 7 = 1 row, 3 < 16
    with pytest.raises(serial.FormatError, match=r"3\^\(n_s/2 - k_V\) >= n_s"):
        serial.par_message(bytes(blob))


def test_receiver_sec_with_reducible_g_rejected():
    # t = 4 and g a product of two irreducible quadratics: g has no root
    # in GF(32), so only the irreducibility check can reject it
    params = custom_params(dict(_TOY_VALUES, t=4, k_tilde=8))
    rng = np.random.default_rng(21)
    sk, _ = keygen_receiver_params(params, rng)
    g = O.poly_mul(F.random_irreducible(2, 5, rng), F.random_irreducible(2, 5, rng), 5)
    assert all(O.poly_eval(g, a, 5) for a in range(32))
    GoppaCode(5, 4, g, sk.code.support)      # the code itself would build
    blob = bytearray(serial.ser_receiver_sec(params, sk))
    off = 7 + 40
    blob[off: off + 10] = b"".join(c.to_bytes(2, "big") for c in g)
    with pytest.raises(serial.FormatError, match="irreducible"):
        serial.par_receiver_sec(bytes(blob))


def test_receiver_sec_with_square_g_rejected():
    # g = h^2 for an irreducible quadratic h has no root in GF(32) and no
    # odd coefficient, so x has no square root modulo g, and the
    # decoder's reading of the code as Gamma(L, g^2) needs a square-free
    # g; the code's tables still build, and the irreducibility check
    # rejects it
    params = custom_params(dict(_TOY_VALUES, t=4, k_tilde=8))
    rng = np.random.default_rng(21)
    sk, _ = keygen_receiver_params(params, rng)
    h = F.random_irreducible(2, 5, rng)
    g = O.poly_mul(h, h, 5)
    assert all(O.poly_eval(g, a, 5) for a in range(32)) and not any(g[1::2])
    blob = bytearray(serial.ser_receiver_sec(params, sk))
    off = 7 + 40
    blob[off: off + 10] = b"".join(c.to_bytes(2, "big") for c in g)
    with pytest.raises(serial.FormatError, match="irreducible"):
        serial.par_receiver_sec(bytes(blob))


def test_receiver_sec_with_support_on_the_root_of_g_rejected():
    # at t = 1, g = x + g_0 has the root g_0 in GF(32), which key
    # generation leaves out of the support; a file may put it back
    params = custom_params(dict(_TOY_VALUES, n_r=31, t=1))
    sk, _ = keygen_receiver_params(params, np.random.default_rng(22))
    blob = serial.ser_receiver_sec(params, sk)
    assert serial.par_receiver_sec(blob)[0] == params
    g0, off = int(sk.code.g[0]), 7 + 40 + 2 * 2 + 2 * 3      # support[3]
    bad = blob[:off] + g0.to_bytes(2, "big") + blob[off + 2:]
    with pytest.raises(serial.FormatError, match="support element is a root of g"):
        serial.par_receiver_sec(bad)


def test_receiver_sec_declaring_t_above_128_rejected(receiver_keys):
    # m = 16 and n_r = 4096 leave room for t = 129, so only the cap on t
    # rejects it, before any irreducibility test runs
    sk, _ = receiver_keys
    big = dict(name="custom", m=16, n_r=4096, k_tilde=1)
    blob = serial.ser_receiver_sec(dataclasses.replace(TOY, t=128, **big), sk)
    with pytest.raises(serial.FormatError, match="payload length"):
        serial.par_receiver_sec(blob)
    blob = serial.ser_receiver_sec(dataclasses.replace(TOY, t=129, **big), sk)
    with pytest.raises(serial.FormatError, match=r"t must be in \[1, 128\]"):
        serial.par_receiver_sec(blob)


def test_receiver_sec_with_rank_deficient_code_rejected(rank_deficient_receiver_sec):
    with pytest.raises(serial.FormatError, match="dimension 5"):
        serial.par_receiver_sec(rank_deficient_receiver_sec)


@pytest.mark.parametrize("kind", ["zero-S", "repeated-row"])
def test_receiver_sec_with_singular_S_rejected(malformed_receiver_secs, kind):
    with pytest.raises(serial.FormatError, match="S does not have full row rank"):
        serial.par_receiver_sec(malformed_receiver_secs[kind])


@pytest.mark.parametrize("kind,reason", [
    pytest.param("repeated-row", "first r_s columns of H_sk P are singular",
                 id="repeated-row"),
    pytest.param("zero-column", "H_V has a zero column", id="zero-column"),
    pytest.param("singular-first-columns", "first r_s columns of H_sk P are singular",
                 id="singular-first-columns"),
])
def test_sender_sec_with_malformed_trapdoor_rejected(malformed_sender_secs,
                                                     kind, reason):
    with pytest.raises(serial.FormatError, match=reason):
        serial.par_sender_sec(malformed_sender_secs[kind])


def _patched_receiver_sec(blob, field, index, value, t=2):
    # element offsets in a toy receiver secret key, 2 bytes per element
    start = {"g": 7, "support": 7 + 2 * (t + 1)}[field]
    out = bytearray(blob)
    out[start + 2 * index: start + 2 * index + 2] = value.to_bytes(2, "big")
    return bytes(out)


@pytest.mark.parametrize("field,index,value,reason", [
    pytest.param("g", 2, 3, "g must be monic", id="g-not-monic"),
    pytest.param("g", 0, 40, r"must lie in GF\(2\^m\)", id="g-coefficient-outside-field"),
    pytest.param("support", 5, 40, r"must lie in GF\(2\^m\)", id="support-outside-field"),
    pytest.param("support", 1, None, "support elements must be distinct",
                 id="support-duplicate"),
])
def test_receiver_sec_bad_code_rejected(toy_params, receiver_keys, field, index,
                                        value, reason):
    sk, _ = receiver_keys
    blob = serial.ser_receiver_sec(toy_params, sk)
    if value is None:
        value = sk.code.support[0]
    with pytest.raises(serial.FormatError, match=reason):
        serial.par_receiver_sec(_patched_receiver_sec(blob, field, index, value))


def test_secret_keys_with_bad_permutation_rejected(toy_params, receiver_keys,
                                                   sender_keys):
    sk_r, _ = receiver_keys
    sk_s, _ = sender_keys
    rblob = bytearray(serial.ser_receiver_sec(toy_params, sk_r))
    rblob[-2:] = rblob[-4:-2]                           # repeated index
    sblob = bytearray(serial.ser_sender_sec(toy_params, sk_s))
    off = len(sblob) - 2 - 2                            # last perm entry
    sblob[off: off + 2] = (999).to_bytes(2, "big")      # out of range
    with pytest.raises(serial.FormatError, match="permutation"):
        serial.par_receiver_sec(bytes(rblob))
    with pytest.raises(serial.FormatError, match="permutation"):
        serial.par_sender_sec(bytes(sblob))


def test_non_canonical_fields_rejected():
    """Each field value has one encoding.  Setting a padding trit, writing
    a trit byte of 243 or more, or setting a padding bit used to decode
    to the same values and unsigncrypt to the same plaintext."""
    rng = np.random.default_rng(7)
    sk_r, pk_r = keygen_receiver_params(TOY, rng)
    sk_s, pk_s = keygen_sender_params(TOY, rng)
    blob = serial.ser_message(TOY, signcrypt(TOY, sk_s, pk_r, b"canonical", rng))
    # message header (14 bytes), encapsulation header (2), then e
    last_e = 14 + 2 + serial.TRITS.nbytes(TOY.n_s) - 1
    assert blob[last_e] < 3  # n_s = 16: one trit and four padding trits
    for bad in (blob[last_e] + 3, blob[last_e] + 243):
        tampered = bytearray(blob)
        tampered[last_e] = bad
        with pytest.raises(serial.FormatError, match="canonical"):
            serial.par_message(bytes(tampered))

    # n_r = 30: the last byte of c0 holds two padding bits
    params = N30
    sk_r, pk_r = keygen_receiver_params(params, rng)
    sk_s, pk_s = keygen_sender_params(params, rng)
    sc = signcrypt(params, sk_s, pk_r, b"canonical", rng)
    blob = serial.ser_encapsulation(params, sc.E)
    last_c0 = (2 + 40 + serial.TRITS.nbytes(params.n_s)
               + serial.BITS.nbytes(params.n_r) - 1)
    assert blob[last_c0] < 0x40
    tampered = bytearray(blob)
    tampered[last_c0] |= 0x80
    with pytest.raises(serial.FormatError, match="canonical"):
        serial.par_encapsulation(bytes(tampered))
    assert unsigncrypt(params, sk_r, pk_s, sc) == b"canonical"

    # key files, after their 7-byte header: a byte of the sender's A at
    # 243; nonzero padding trits in H_U, whose 4 x 8 = 32 trits leave two
    # in the last byte; nonzero padding bits in a receiver's G, whose
    # 15 x 30 = 450 bits leave two in the last byte, after a custom block
    _, pk_s = keygen_sender_params(TOY, rng)
    sender_pub = bytearray(serial.ser_sender_pub(TOY, pk_s))
    sender_pub[7] = 243
    sender_sec = bytearray(serial.ser_sender_sec(TOY, sk_s))
    last_H_U = 7 + serial.TRITS.nbytes(sk_s.H_U.size) - 1
    assert sender_sec[last_H_U] < 9
    sender_sec[last_H_U] += 9
    params = custom_params(dict(n_s=16, k_U=4, k_V=4, omega=14, m=5, n_r=30,
                                t=2, k_tilde=15, ell=16, salt_bits=16))
    _, pk_r = keygen_receiver_params(params, rng)
    receiver_pub = bytearray(serial.ser_receiver_pub(params, pk_r))
    assert len(receiver_pub) == 7 + 40 + 57 and receiver_pub[-1] < 4
    receiver_pub[-1] |= 0x80
    for parse, blob, name in ((serial.par_sender_pub, sender_pub, "A"),
                              (serial.par_sender_sec, sender_sec, "H_U"),
                              (serial.par_receiver_pub, receiver_pub, "G")):
        with pytest.raises(serial.FormatError, match=f"field {name} is not canonical"):
            parse(bytes(blob))


# the largest value of one unpacked entry, by codec
_CODEC_VALUES = {"BITS": 2, "TRITS": 3, "ELEMS": 1 << 16}


@pytest.mark.parametrize("name", list(_CODEC_VALUES))
def test_codec_checks_match_reencoding(name):
    """At every n from 0 to 40, so at every residue mod 8 and mod 5, the
    check on the bytes accepts a byte string exactly when the values
    unpacked from it re-encode to it: canonical encodings, each with one
    byte replaced, with its last byte replaced, or all bytes random."""
    codec = getattr(serial, name)
    rng = np.random.default_rng(26)
    verdicts = set()
    for n in range(41):
        size = codec.nbytes(n)
        for _ in range(40):
            data = bytearray(codec.pack(rng.integers(0, _CODEC_VALUES[name], n)))
            if size:
                kind = rng.integers(4)
                if kind == 1:
                    data[rng.integers(size)] = rng.integers(256)
                elif kind == 2:
                    data[-1] = rng.integers(256)
                elif kind == 3:
                    data[:] = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            want = O.canonical_by_reencoding(codec, bytes(data), n)
            assert codec.canonical(memoryview(bytes(data)), n) == want, (n, bytes(data))
            verdicts.add(want)
    assert verdicts == ({True} if name == "ELEMS" else {True, False})


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parsers_are_total(data, toy_params, receiver_keys, sender_keys):
    """Any byte string either raises FormatError or parses to an object
    that serialises back to the same bytes."""
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    sc = signcrypt(toy_params, sk_s, pk_r, b"fuzz", np.random.default_rng(9))
    cases = [
        (serial.par_receiver_pub, serial.ser_receiver_pub, pk_r),
        (serial.par_receiver_sec, serial.ser_receiver_sec, sk_r),
        (serial.par_sender_pub, serial.ser_sender_pub, pk_s),
        (serial.par_sender_sec, serial.ser_sender_sec, sk_s),
        (serial.par_message, serial.ser_message, sc),
        (serial.par_encapsulation, serial.ser_encapsulation, sc.E),
    ]
    parse, ser, obj = data.draw(st.sampled_from(cases))
    blob = bytearray(ser(toy_params, obj))
    for _ in range(data.draw(st.integers(0, 4))):
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob[pos] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(blob) + 2))
    blob = bytes(blob[:cut]) + data.draw(st.binary(max_size=2))
    try:
        parsed = parse(blob)
    except serial.FormatError:
        return
    assert ser(*parsed) == blob
