"""Parameter profiles and derived quantities shared by both parties."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .cwencode import kappa as _kappa


class ParameterError(ValueError):
    pass


# the largest n_s, and the largest ell and salt_bits, that validate accepts
MAX_N_S = 1 << 14
MAX_BITS = 1 << 16


@dataclass(frozen=True)
class CommonParams:
    name: str
    # sender (ternary (U, U+V) code)
    n_s: int
    k_U: int
    k_V: int
    omega: int
    # receiver (binary Goppa subcode)
    m: int
    n_r: int
    t: int
    k_tilde: int
    # symmetric key bits, and signature salt bits: no scheme code reads
    # salt_bits, as the tag-KEM signs H2(tag, varpi, z), which has no
    # salt; it is validated and carried in custom parameter blocks, as
    # part of the format
    ell: int
    salt_bits: int

    @property
    def k_s(self) -> int:
        return self.k_U + self.k_V

    @property
    def r_s(self) -> int:
        return self.n_s - self.k_s

    @property
    def k_r(self) -> int:
        return self.n_r - self.m * self.t

    @property
    def kappa(self) -> int:
        return _kappa(self.n_r, self.t)

    def validate(self) -> "CommonParams":
        if self.n_s % 2:
            raise ParameterError("n_s must be even")
        # about twice paper-l1's n_s: H_sk·P has at most 2^28 entries, and
        # with the bound on ell and salt_bits below, every field of a
        # custom parameter block fits its 32 bits
        if self.n_s > MAX_N_S:
            raise ParameterError(f"n_s must be at most {MAX_N_S}")
        half = self.n_s // 2
        if not (0 < self.k_U < half and 0 < self.k_V < half):
            raise ParameterError("need 0 < k_U, k_V < n_s/2")
        # keep n_s/2 * 3^-(n_s/2 - k_V), which bounds the chance that a drawn
        # H_V has a zero column, at most 1/2 (3^x > n_s once 2^x > n_s)
        if 3 ** min(half - self.k_V, self.n_s.bit_length()) < self.n_s:
            raise ParameterError("need 3^(n_s/2 - k_V) >= n_s")
        if not 0 < self.omega <= self.n_s:
            raise ParameterError("need 0 < omega <= n_s")
        if not 2 <= self.m <= 16:
            raise ParameterError("extension degree must be in [2, 16]")
        # the support must avoid the roots of g: an irreducible g of degree
        # t >= 2 has none in GF(2^m), and g of degree 1 has exactly one
        if self.n_r > (1 << self.m) - (self.t == 1):
            raise ParameterError("n_r exceeds 2^m (2^m - 1 when t = 1)")
        # 128 is the largest t of Classic McEliece; it also bounds the
        # O(m t^3) irreducibility test that loading a receiver key runs
        if not 1 <= self.t <= 128:
            raise ParameterError("t must be in [1, 128]")
        if not 1 <= self.k_tilde <= self.k_r:
            raise ParameterError("need 1 <= k_tilde <= n_r - m*t")
        if not (1 <= self.ell <= MAX_BITS and 1 <= self.salt_bits <= MAX_BITS):
            raise ParameterError(f"ell and salt_bits must be in [1, {MAX_BITS}]")
        return self


TOY = CommonParams(
    name="toy",
    n_s=16, k_U=4, k_V=4, omega=14,
    m=5, n_r=32, t=2, k_tilde=16,
    ell=16, salt_bits=16,
)

# NIST level-1 scale; describable (sizes, estimates) but not meant for
# desk-scale cryptographic runs.
PAPER_L1 = CommonParams(
    name="paper-l1",
    n_s=8492, k_U=3558, k_V=2047, omega=7980,
    m=12, n_r=3488, t=64, k_tilde=1815,
    ell=512, salt_bits=256,
)

# the profile byte of the wire format: a named profile's id, or
# CUSTOM_ID before an embedded parameter block
PROFILE_IDS = {0x01: TOY, 0x02: PAPER_L1}
CUSTOM_ID = 0x7F
PROFILES = {p.name: p for p in PROFILE_IDS.values()}

# the fields of a custom profile, in the order of the serialised block
CUSTOM_FIELDS = ("n_s", "k_U", "k_V", "omega", "m", "n_r", "t",
                 "k_tilde", "ell", "salt_bits")


def custom_params(values: dict[str, int]) -> CommonParams:
    unknown = set(values) - set(CUSTOM_FIELDS)
    if unknown:
        raise ParameterError(f"unknown parameters: {sorted(unknown)}")
    missing = set(CUSTOM_FIELDS) - set(values)
    if missing:
        raise ParameterError(f"missing parameters: {sorted(missing)}")
    return CommonParams(name="custom", **{k: int(values[k]) for k in CUSTOM_FIELDS}).validate()


def load_profile_file(path) -> CommonParams:
    """Custom profile as key=value lines; '#' starts a comment."""
    values: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError(f"profile {path} is not UTF-8 text: {exc}") from exc
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"bad line in profile {path}: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ParameterError(f"{key!r} given twice in profile {path}")
        try:
            values[key] = int(val)
        except ValueError as exc:
            raise ParameterError(f"bad integer for {key!r} in profile {path}: {val!r}") from exc
    try:
        return custom_params(values)
    except ParameterError as exc:
        raise ParameterError(f"profile {path}: {exc}") from exc


def setup(profile) -> CommonParams:
    """Common-parameter setup: named profile or profile file path."""
    if profile in PROFILES:
        return PROFILES[profile].validate()
    p = Path(str(profile))
    if p.exists():
        return load_profile_file(p)
    raise ParameterError(f"unknown profile: {profile!r}")


def profile_id(params: CommonParams) -> int:
    """The id of the named profile equal to params in every field, or
    CUSTOM_ID: a profile that keeps a name but not its values is custom."""
    return next((pid for pid, p in PROFILE_IDS.items() if p == params), CUSTOM_ID)
