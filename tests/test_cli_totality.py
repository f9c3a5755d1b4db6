"""CLI totality: whatever file sits in a key or message slot, a command
exits 0, 2, 3 or 4 and prints at most one `error:` line, never a
traceback.  `cli.main` maps each failure class to its exit code."""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import cbsc
from cbsc.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from cbsc.params import MAX_BITS, MAX_N_S, custom_params

from oracles import TOY_FIELDS

# the slots of each command, and the valid file that fills each slot
SLOTS = {
    "signcrypt": {"--sender-sec": "snd.sec", "--receiver-pub": "rcv.pub",
                  "--in": "plain.txt"},
    "unsigncrypt": {"--receiver-sec": "rcv.sec", "--sender-pub": "snd.pub",
                    "--in": "msg.cbsc"},
}
VALID = ("rcv.pub", "rcv.sec", "snd.pub", "snd.sec", "msg.cbsc")


def _run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _argv(command: str, files: dict[str, str], tmp: Path, out: str = "out") -> list[str]:
    argv = [command, "--out", str(tmp / out)]
    for slot, name in files.items():
        argv += [slot, str(tmp / name)]
    return argv + (["--seed", "05"] if command == "signcrypt" else [])


@pytest.fixture(scope="module")
def keyset():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for role, stem, seed in (("receiver", "rcv", "0a"), ("sender", "snd", "0b")):
            assert _run(["keygen", "--role", role, "--profile", "toy",
                         "--out", str(tmp / stem), "--seed", seed])[0] == EXIT_OK
        (tmp / "plain.txt").write_bytes(b"attack at dawn")
        assert _run(_argv("signcrypt", SLOTS["signcrypt"], tmp, "msg.cbsc"))[0] == EXIT_OK
        yield {name: (tmp / name).read_bytes() for name in (*VALID, "plain.txt")}


@st.composite
def bad_files(draw):
    """(kind, bytes or None): random bytes, a truncated or role-swapped
    valid file, or no file at all."""
    kind = draw(st.sampled_from(["random", "truncated", "swapped", "missing"]))
    if kind == "random":
        return kind, draw(st.binary(max_size=600))
    if kind == "missing":
        return kind, None
    return kind, (draw(st.sampled_from(VALID)), draw(st.integers(0, 10**6)))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(sorted((c, s) for c in SLOTS for s in SLOTS[c])), bad_files())
def test_any_file_in_any_slot_exits_0_2_3_or_4(keyset, slot, bad):
    command, slot = slot
    kind, value = bad
    right = SLOTS[command][slot]
    if kind == "truncated":
        name, cut = value
        value = keyset[name][:cut % len(keyset[name])]
    elif kind == "swapped":
        assume(value[0] != right)
        value = keyset[value[0]]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in keyset.items():
            (tmp / name).write_bytes(data)
        files = dict(SLOTS[command])
        files[slot] = "bad"
        if value is not None:
            (tmp / "bad").write_bytes(value)
        code, err = _run(_argv(command, files, tmp))
    assert "Traceback" not in err
    if slot == "--in" and command == "signcrypt" and value is not None:
        # any bytes are a plaintext
        assert (code, err) == (EXIT_OK, "")
    else:
        assert code in (2, 3, 4)
        assert err.count("error:") == 1 and err.startswith("error:"), err
        assert code != EXIT_IO or kind == "missing"


def test_profile_mismatches_exit2(keyset, tmp_path):
    for name, data in keyset.items():
        (tmp_path / name).write_bytes(data)
    profile = tmp_path / "salt32.profile"
    fields = TOY_FIELDS | {"salt_bits": 32}
    profile.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
    for role, stem in (("receiver", "crcv"), ("sender", "csnd")):
        assert _run(["keygen", "--role", role, "--profile", str(profile),
                     "--out", str(tmp_path / stem), "--seed", "01"])[0] == EXIT_OK
    # sender and receiver keys of different profiles, in both commands
    for command, files in (
            ("signcrypt", {**SLOTS["signcrypt"], "--receiver-pub": "crcv.pub"}),
            ("unsigncrypt", {**SLOTS["unsigncrypt"], "--sender-pub": "csnd.pub"})):
        code, err = _run(_argv(command, files, tmp_path))
        assert code == EXIT_USAGE
        assert "use different profiles" in err and str(tmp_path / "c") in err
    # a message signcrypted under the other profile, with toy keys
    assert _run(_argv("signcrypt", {"--sender-sec": "csnd.sec",
                                    "--receiver-pub": "crcv.pub",
                                    "--in": "plain.txt"}, tmp_path, "cmsg.cbsc"))[0] == EXIT_OK
    code, err = _run(_argv("unsigncrypt", {**SLOTS["unsigncrypt"], "--in": "cmsg.cbsc"},
                           tmp_path))
    assert code == EXIT_USAGE
    assert f"message file {tmp_path / 'cmsg.cbsc'}" in err


@pytest.mark.parametrize("field,bound,value", [("n_s", MAX_N_S, MAX_N_S + 2),
                                               ("ell", MAX_BITS, MAX_BITS + 1),
                                               ("salt_bits", MAX_BITS, MAX_BITS + 1)])
def test_profile_one_past_a_size_bound_exits2(tmp_path, field, bound, value):
    # unbounded, n_s = 2,000,000 made sender keygen die on a 931 GiB
    # allocation and ell = 10^11 made receiver keygen die packing the
    # custom block, whose fields are 32 bits; n_s is even past its bound.
    # A profile at the bound validates, and is not keyed here.
    assert getattr(custom_params(TOY_FIELDS | {field: bound}), field) == bound
    profile = tmp_path / "big.profile"
    profile.write_text("".join(f"{k} = {v}\n" for k, v in (TOY_FIELDS | {field: value}).items()))
    for role in ("receiver", "sender"):
        code, err = _run(["keygen", "--role", role, "--profile", str(profile),
                          "--out", str(tmp_path / role), "--seed", "01"])
        assert code == EXIT_USAGE
        assert err.count("error:") == 1 and err.startswith("error:"), err
        assert field in err and str(bound) in err, err
        assert not list(tmp_path.glob(f"{role}.*"))


def test_closed_stdout_exits_3_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(cbsc.__file__).parent.parent))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cbsc.cli", "estimate", "--profile", "paper-l1"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == EXIT_IO, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.count("error:") == 1
