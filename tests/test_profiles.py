"""Profiles: CommonParams.validate is the one place where profile rules
live, so every profile it accepts keys through the CLI, or exits 2 when
no sender key is found within the draw budget, never with a traceback.
The receiver key that keygen writes loads back and decrypts, which runs
Patterson decoding at every (m, n_r, t) the profiles reach."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cbsc import serial
from cbsc.cli import EXIT_OK, EXIT_USAGE, main
from cbsc.mceliece import pke_decrypt, pke_encrypt
from cbsc.params import ParameterError, custom_params, load_profile_file

from oracles import TOY_FIELDS


@st.composite
def small_profiles(draw):
    # n_r > m t, so that k_tilde can be drawn; the other rules of validate
    # fall on both sides
    half = draw(st.integers(2, 16))
    m = draw(st.integers(2, 6))
    n_r = draw(st.integers(m + 1, 1 << m))
    t = draw(st.integers(1, (n_r - 1) // m))
    return dict(n_s=2 * half, k_U=draw(st.integers(1, half - 1)),
                k_V=draw(st.integers(1, half - 1)), omega=draw(st.integers(1, 2 * half)),
                m=m, n_r=n_r, t=t, k_tilde=draw(st.integers(1, n_r - m * t)),
                ell=16, salt_bits=16)


def _keygen(fields: dict, role: str, seed: int) -> tuple[int, bytes, bytes]:
    """keygen's exit code and, when it is EXIT_OK, the .pub and .sec
    files it wrote (else b"", b"")."""
    with tempfile.TemporaryDirectory() as tmp:
        profile = Path(tmp) / "custom.profile"
        profile.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        out = str(Path(tmp) / role)
        code = main(["keygen", "--role", role, "--profile", str(profile),
                     "--out", out, "--seed", f"{seed:x}"])
        if code != EXIT_OK:
            return code, b"", b""
        return code, Path(out + ".pub").read_bytes(), Path(out + ".sec").read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_profiles(), st.integers(0, 2**16))
# t = 1 with n_r = 2^m: the support cannot avoid the root of g
@example({**TOY_FIELDS, "m": 4, "n_r": 16, "t": 1, "k_tilde": 8}, 0)
# right-half columns of H_sk span at most r_V = 12 dimensions, so the
# first r_s = 42 columns of H_sk P are invertible only if at least 30 of
# them come from the 32 left-half ones: sender keygen gives up
@example({**TOY_FIELDS, "n_s": 64, "k_U": 2, "k_V": 20, "omega": 60}, 0)
def test_an_accepted_profile_keys_or_exits_2(fields, seed):
    try:
        custom_params(fields)
    except ParameterError:
        assert _keygen(fields, "receiver", seed)[0] == EXIT_USAGE
        return
    code, pub, sec = _keygen(fields, "receiver", seed)
    assert code == EXIT_OK
    _, pk = serial.par_receiver_pub(pub)
    params, sk = serial.par_receiver_sec(sec)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.integers(0, 2, size=params.k_tilde + params.ell, dtype=np.uint8)
        y = rng.integers(0, 2, size=params.kappa, dtype=np.uint8)
        got = pke_decrypt(sk, pke_encrypt(pk, x, y, params.t))
        assert got is not None
        assert np.array_equal(got[0], x) and np.array_equal(got[1], y)
    assert _keygen(fields, "sender", seed)[0] in (EXIT_OK, EXIT_USAGE)


@pytest.mark.parametrize("change,reason", [
    pytest.param({"omega": 0}, r"need 0 < omega <= n_s", id="omega-0"),
    pytest.param({"omega": 17}, r"need 0 < omega <= n_s", id="omega-n_s-plus-1"),
    pytest.param({"m": 1}, r"extension degree must be in \[2, 16\]", id="m-1"),
    pytest.param({"m": 17}, r"extension degree must be in \[2, 16\]", id="m-17"),
    pytest.param({"q": 3}, r"unknown parameters: \['q'\]", id="unknown-field"),
    pytest.param({"ell": None}, r"missing parameters: \['ell'\]", id="missing-field"),
])
def test_custom_params_rejects_with_its_rule(change, reason):
    # one past either end of the omega and m rules of validate, which the
    # drawn profiles above do not reach, and the field names of a block
    fields = {k: v for k, v in (TOY_FIELDS | change).items() if v is not None}
    with pytest.raises(ParameterError, match=reason):
        custom_params(fields)


@pytest.mark.parametrize("line,reason", [
    pytest.param("n_s 16", r"bad line in profile .*: 'n_s 16'", id="bad-line"),
    pytest.param("n_s = sixteen", r"bad integer for 'n_s' in profile .*: 'sixteen'",
                 id="bad-integer"),
])
def test_profile_file_rejects_a_bad_line(tmp_path, line, reason):
    rest = "".join(f"{k} = {v}\n" for k, v in TOY_FIELDS.items() if k != "n_s")
    path = tmp_path / "custom.profile"
    path.write_text(rest + "n_s = 16\n")
    assert load_profile_file(path).n_s == 16
    path.write_text(rest + line + "\n")
    with pytest.raises(ParameterError, match=reason):
        load_profile_file(path)
