"""CLI surface: subcommands, exit codes, and deterministic seeding."""

import dataclasses

import numpy as np
import pytest

from cbsc import serial
from cbsc.cli import EXIT_CRYPTO, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from cbsc.hybrid import signcrypt
from cbsc.params import TOY


@pytest.fixture()
def keyset(tmp_path):
    rcv = tmp_path / "rcv"
    snd = tmp_path / "snd"
    assert main(["keygen", "--role", "receiver", "--profile", "toy",
                 "--out", str(rcv), "--seed", "0a"]) == EXIT_OK
    assert main(["keygen", "--role", "sender", "--profile", "toy",
                 "--out", str(snd), "--seed", "0b"]) == EXIT_OK
    return tmp_path


def test_keygen_writes_both_halves(keyset):
    for stem in ("rcv", "snd"):
        assert (keyset / f"{stem}.pub").exists()
        assert (keyset / f"{stem}.sec").exists()


def test_keygen_seed_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["keygen", "--role", "sender", "--out", str(out), "--seed", "1234"])
    assert a.with_suffix(".pub").read_bytes() == b.with_suffix(".pub").read_bytes()
    assert a.with_suffix(".sec").read_bytes() == b.with_suffix(".sec").read_bytes()


def test_keygen_bad_seed(tmp_path):
    rc = main(["keygen", "--role", "sender", "--out", str(tmp_path / "x"),
               "--seed", "not-hex"])
    assert rc == EXIT_USAGE


def test_keygen_bad_profile(tmp_path):
    rc = main(["keygen", "--role", "sender", "--out", str(tmp_path / "x"),
               "--profile", "nope"])
    assert rc == EXIT_USAGE


def test_signcrypt_unsigncrypt_roundtrip(keyset):
    msg = keyset / "msg.txt"
    msg.write_bytes(b"the quick brown fox")
    ct = keyset / "msg.cbsc"
    out = keyset / "msg.out"
    assert main(["signcrypt", "--sender-sec", str(keyset / "snd.sec"),
                 "--receiver-pub", str(keyset / "rcv.pub"),
                 "--in", str(msg), "--out", str(ct)]) == EXIT_OK
    assert main(["unsigncrypt", "--receiver-sec", str(keyset / "rcv.sec"),
                 "--sender-pub", str(keyset / "snd.pub"),
                 "--in", str(ct), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == b"the quick brown fox"


def test_signcrypt_seed_deterministic(keyset):
    msg = keyset / "m.txt"
    msg.write_bytes(b"fixed coins")
    outs = []
    for name in ("c1", "c2"):
        ct = keyset / name
        main(["signcrypt", "--sender-sec", str(keyset / "snd.sec"),
              "--receiver-pub", str(keyset / "rcv.pub"),
              "--in", str(msg), "--out", str(ct), "--seed", "ff"])
        outs.append(ct.read_bytes())
    assert outs[0] == outs[1]


def test_tampered_ciphertext_exit4(keyset):
    msg = keyset / "m.txt"
    msg.write_bytes(b"payload")
    ct = keyset / "c"
    main(["signcrypt", "--sender-sec", str(keyset / "snd.sec"),
          "--receiver-pub", str(keyset / "rcv.pub"),
          "--in", str(msg), "--out", str(ct)])
    blob = bytearray(ct.read_bytes())
    blob[-1] ^= 1
    ct.write_bytes(bytes(blob))
    rc = main(["unsigncrypt", "--receiver-sec", str(keyset / "rcv.sec"),
               "--sender-pub", str(keyset / "snd.pub"),
               "--in", str(ct), "--out", str(keyset / "o")])
    assert rc == EXIT_CRYPTO


def test_truncated_ciphertext_exit4(keyset):
    msg = keyset / "m.txt"
    msg.write_bytes(b"payload")
    ct = keyset / "c"
    main(["signcrypt", "--sender-sec", str(keyset / "snd.sec"),
          "--receiver-pub", str(keyset / "rcv.pub"),
          "--in", str(msg), "--out", str(ct)])
    ct.write_bytes(ct.read_bytes()[:20])
    rc = main(["unsigncrypt", "--receiver-sec", str(keyset / "rcv.sec"),
               "--sender-pub", str(keyset / "snd.pub"),
               "--in", str(ct), "--out", str(keyset / "o")])
    assert rc == EXIT_CRYPTO


def test_missing_input_exit3(keyset):
    rc = main(["signcrypt", "--sender-sec", str(keyset / "snd.sec"),
               "--receiver-pub", str(keyset / "rcv.pub"),
               "--in", str(keyset / "missing"), "--out", str(keyset / "c")])
    assert rc == EXIT_IO


def test_swapped_key_roles_exit4(keyset):
    msg = keyset / "m.txt"
    msg.write_bytes(b"x")
    rc = main(["signcrypt", "--sender-sec", str(keyset / "rcv.sec"),
               "--receiver-pub", str(keyset / "rcv.pub"),
               "--in", str(msg), "--out", str(keyset / "c")])
    assert rc == EXIT_CRYPTO


def test_usage_error_exit2():
    assert main(["signcrypt"]) == EXIT_USAGE
    assert main(["keygen", "--role", "alien", "--out", "x"]) == EXIT_USAGE


def test_estimate_text_and_csv(capsys):
    assert main(["estimate", "--profile", "toy"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "receiver_pub_bits" in out
    assert main(["estimate", "--profile", "paper-l1", "--report", "csv"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("quantity,")
    assert "6330720" in out


def test_custom_profile_file(tmp_path):
    prof = tmp_path / "small.params"
    prof.write_text(
        "# tiny custom profile\n"
        "n_s = 16\nk_U = 4\nk_V = 4\nomega = 14\n"
        "m = 5\nn_r = 32\nt = 2\nk_tilde = 16\nell = 16\nsalt_bits = 16\n")
    out = tmp_path / "k"
    assert main(["keygen", "--role", "receiver", "--profile", str(prof),
                 "--out", str(out), "--seed", "07"]) == EXIT_OK
    assert main(["estimate", "--profile", str(prof)]) == EXIT_OK



def test_invalid_custom_block_in_message_exit4(keyset):
    # a toy message framed under the custom profile id, whose embedded
    # parameter block then declares an odd n_s
    _, pk_r = serial.par_receiver_pub((keyset / "rcv.pub").read_bytes())
    _, sk_s = serial.par_sender_sec((keyset / "snd.sec").read_bytes())
    custom = dataclasses.replace(TOY, name="custom")
    sc = signcrypt(custom, sk_s, pk_r, b"x", np.random.default_rng(1))
    wire = bytearray(serial.ser_message(custom, sc))
    wire[16:20] = (17).to_bytes(4, "big")       # n_s, first field of the block
    ct = keyset / "bad.cbsc"
    ct.write_bytes(bytes(wire))
    rc = main(["unsigncrypt", "--receiver-sec", str(keyset / "rcv.sec"),
               "--sender-pub", str(keyset / "snd.pub"),
               "--in", str(ct), "--out", str(keyset / "bad.out")])
    assert rc == EXIT_CRYPTO
