"""Binary formats: byte-exact round trips and strict failure on damage."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsc import fields as F
from cbsc import serial
from cbsc.goppa import GoppaCode
from cbsc.hybrid import SigncryptedMessage, signcrypt, unsigncrypt
from cbsc.params import TOY, custom_params
from cbsc.sctkem import keygen_receiver_params, keygen_sender_params, sym, encap


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
    assert np.array_equal(sk2.S, sk.S)
    assert sk2.P == sk.P
    assert np.array_equal(sk2.G_pk, sk.G_pk)
    assert serial.ser_receiver_sec(params, sk2) == blob


def test_sender_pub_roundtrip(toy_params, sender_keys):
    _, pk = sender_keys
    blob = serial.ser_sender_pub(toy_params, pk)
    params, pk2 = serial.par_sender_pub(blob)
    assert np.array_equal(pk.H, pk2.H)
    assert serial.ser_sender_pub(params, pk2) == blob


def test_sender_sec_roundtrip(toy_params, sender_keys):
    sk, _ = sender_keys
    blob = serial.ser_sender_sec(toy_params, sk)
    params, sk2 = serial.par_sender_sec(blob)
    assert np.array_equal(sk2.S, sk.S)
    assert np.array_equal(sk2.S_inv, sk.S_inv)
    assert np.array_equal(sk2.H_sk, sk.H_sk)
    assert sk2.P == sk.P
    assert (sk2.k_U, sk2.k_V) == (sk.k_U, sk.k_V)
    assert serial.ser_sender_sec(params, sk2) == blob


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


def test_bad_magic(toy_params, receiver_keys):
    _, pk = receiver_keys
    blob = serial.ser_receiver_pub(toy_params, pk)
    with pytest.raises(serial.FormatError):
        serial.par_receiver_pub(b"XXXX" + blob[4:])


def test_bad_version(toy_params, receiver_keys):
    _, pk = receiver_keys
    blob = bytearray(serial.ser_receiver_pub(toy_params, pk))
    blob[4] = 0x99
    with pytest.raises(serial.FormatError):
        serial.par_receiver_pub(bytes(blob))


def test_role_mismatch(toy_params, receiver_keys):
    _, pk = receiver_keys
    blob = serial.ser_receiver_pub(toy_params, pk)
    with pytest.raises(serial.FormatError):
        serial.par_sender_pub(blob)


def test_unknown_profile_id(toy_params, receiver_keys):
    _, pk = receiver_keys
    blob = bytearray(serial.ser_receiver_pub(toy_params, pk))
    blob[6] = 0x55
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


def test_receiver_sec_with_reducible_g_rejected():
    # t = 4 and g a product of two irreducible quadratics: g has no root
    # in GF(32), so only the irreducibility check can reject it
    params = custom_params(dict(_TOY_VALUES, t=4, k_tilde=8))
    rng = np.random.default_rng(21)
    sk, _ = keygen_receiver_params(params, rng)
    g = F.poly_mul(F.random_irreducible(2, 5, rng), F.random_irreducible(2, 5, rng), 5)
    assert all(F.poly_eval(g, a, 5) for a in range(32))
    GoppaCode(5, 4, g, sk.code.support)      # the code itself would build
    blob = bytearray(serial.ser_receiver_sec(params, sk))
    off = 7 + 40
    blob[off: off + 10] = b"".join(c.to_bytes(2, "big") for c in g)
    with pytest.raises(serial.FormatError, match="irreducible"):
        serial.par_receiver_sec(bytes(blob))


def _patched_receiver_sec(blob, field, index, value, t=2):
    # element offsets in a toy receiver secret key, 2 bytes per element
    start = {"g": 7, "support": 7 + 2 * (t + 1)}[field]
    out = bytearray(blob)
    out[start + 2 * index: start + 2 * index + 2] = value.to_bytes(2, "big")
    return bytes(out)


@pytest.mark.parametrize("field,index,value", [
    pytest.param("g", 2, 3, id="g-not-monic"),
    pytest.param("g", 0, 40, id="g-coefficient-outside-field"),
    pytest.param("support", 5, 40, id="support-outside-field"),
    pytest.param("support", 1, None, id="support-duplicate"),
])
def test_receiver_sec_bad_code_rejected(toy_params, receiver_keys, field, index,
                                        value):
    sk, _ = receiver_keys
    blob = serial.ser_receiver_sec(toy_params, sk)
    if value is None:
        value = sk.code.support[0]
    with pytest.raises(serial.FormatError):
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


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parsers_are_total(data, toy_params, receiver_keys, sender_keys):
    sk_r, pk_r = receiver_keys
    sk_s, pk_s = sender_keys
    sc = signcrypt(toy_params, sk_s, pk_r, b"fuzz", np.random.default_rng(9))
    cases = [
        (serial.par_receiver_pub, serial.ser_receiver_pub(toy_params, pk_r)),
        (serial.par_receiver_sec, serial.ser_receiver_sec(toy_params, sk_r)),
        (serial.par_sender_pub, serial.ser_sender_pub(toy_params, pk_s)),
        (serial.par_sender_sec, serial.ser_sender_sec(toy_params, sk_s)),
        (serial.par_message, serial.ser_message(toy_params, sc)),
        (serial.par_encapsulation, serial.ser_encapsulation(toy_params, sc.E)),
    ]
    parse, blob = data.draw(st.sampled_from(cases))
    blob = bytearray(blob)
    for _ in range(data.draw(st.integers(0, 4))):
        pos = data.draw(st.integers(0, len(blob) - 1))
        blob[pos] = data.draw(st.integers(0, 255))
    cut = data.draw(st.integers(0, len(blob) + 2))
    blob = bytes(blob[:cut]) + data.draw(st.binary(max_size=2))
    try:
        parse(blob)
    except serial.FormatError:
        pass
