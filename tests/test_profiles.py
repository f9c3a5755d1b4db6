"""Profiles: CommonParams.validate is the one place where profile rules
live, so every profile it accepts keys through the CLI, or exits 2 when
no sender key is found within the draw budget, never with a traceback."""

import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from cbsc.cli import EXIT_OK, EXIT_USAGE, main
from cbsc.params import ParameterError, custom_params

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


def _keygen(fields: dict, role: str, seed: int) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        profile = Path(tmp) / "custom.profile"
        profile.write_text("".join(f"{k} = {v}\n" for k, v in fields.items()))
        return main(["keygen", "--role", role, "--profile", str(profile),
                     "--out", str(Path(tmp) / role), "--seed", f"{seed:x}"])


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
        assert _keygen(fields, "receiver", seed) == EXIT_USAGE
        return
    assert _keygen(fields, "receiver", seed) == EXIT_OK
    assert _keygen(fields, "sender", seed) in (EXIT_OK, EXIT_USAGE)
