"""Security- and size-estimate formulas, evaluated exactly where possible.

Big quantities are kept as exact integers or rationals alongside a log2
rendering; attack workfactors are reported as exponents with constants
dropped, never executed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .params import CommonParams

LOG2_3 = math.log2(3.0)


@dataclass
class CostReport:
    """One report row.  `log2` is derived from `exact`, or from `value`
    when `exact` is None, unless the row is only an exponent."""
    name: str
    exact: object | None = None   # int or Fraction when exactly representable
    value: float | None = None    # linear-scale value when meaningful
    note: str = ""
    log2: float | None = None

    def __post_init__(self):
        if self.log2 is None:
            # a Fraction's two parts may lie beyond float range, so each
            # gets its own log2; an int or float is its own numerator
            x = self.exact if self.exact is not None else self.value
            self.log2 = (math.log2(getattr(x, "numerator", x))
                         - math.log2(getattr(x, "denominator", 1))
                         if x else float("-inf"))


def _check(n: int, k: int, omega: int) -> None:
    if not (0 <= omega <= n and 0 <= k <= n):
        raise ValueError("need 0 <= omega, k <= n")


def isd_ratio(n: int, k: int, omega: int) -> CostReport:
    """Fraction of error-free information sets, C(n-omega, k) / C(n, k)."""
    _check(n, k, omega)
    ratio = Fraction(math.comb(n - omega, k), math.comb(n, k))
    return CostReport(f"isd_ratio(n={n},k={k},w={omega})", ratio, float(ratio),
                      "low-weight Prange: the share of information sets "
                      "that avoid a weight-w error; 0 when k > n - w")


def prange_large_weight(n: int, k: int, omega: int) -> CostReport:
    """Success probability of one large-weight ternary Prange step,
    C(n-k, omega-k) 2^(omega-k) / 3^(n-k), where omega >= k: the k
    coordinates of an information set get nonzero trits, and the other
    n - k, uniform for a uniform syndrome, must hold omega - k nonzeros.
    This is the regime of Wave's signatures, where `isd_ratio` is 0.
    Bricout, Chailloux, Debris-Alazard and Lequesne, "Ternary Syndrome
    Decoding with Large Weight" (SAC 2019), give faster algorithms for
    it, which are not evaluated here.  0 when omega < k."""
    _check(n, k, omega)
    r, extra = n - k, omega - k
    p = Fraction(math.comb(r, extra) * 2 ** extra, 3 ** r) if extra >= 0 else Fraction(0)
    return CostReport(f"prange_large_weight(n={n},k={k},w={omega})", p,
                      note="ternary Prange at large weight, one iteration")


def solutions_per_syndrome(n: int, k: int, omega: int) -> CostReport:
    """Mean number of weight-omega solutions of a ternary syndrome of an
    [n, k] code with a full-rank parity check: C(n, omega) 2^omega words
    spread over 3^(n-k) syndromes."""
    _check(n, k, omega)
    mean = Fraction(math.comb(n, omega) * 2 ** omega, 3 ** (n - k))
    return CostReport(f"solutions_per_syndrome(n={n},k={k},w={omega})", mean)


def goppa_poly_count(q: int, t: int) -> CostReport:
    """Number of monic irreducible degree-t polynomials over GF(q), by
    Gauss's identity q^n = sum over d | n of d N(d), solved for N(n) at
    each divisor n of t in increasing order."""
    if t < 1:
        raise ValueError("t must be >= 1")
    count: dict[int, int] = {}
    for n in (d for d in range(1, t + 1) if t % d == 0):
        count[n] = (q ** n - sum(d * c for d, c in count.items() if n % d == 0)) // n
    return CostReport(f"goppa_poly_count(q={q},t={t})", count[t])


def georgiades_wf(n: int, k_tilde: int) -> CostReport:
    """Permutation-search workfactor n! / k_tilde!."""
    if not 0 <= k_tilde <= n:
        raise ValueError("need 0 <= k_tilde <= n")
    return CostReport(f"georgiades_wf(n={n},k={k_tilde})",
                      math.perm(n, n - k_tilde),  # == n! / k_tilde!
                      note="asymptotic exponent, constants dropped")


def paiva_terada_wf(n: int, m: int, t: int, k_tilde: int) -> CostReport:
    """Permuted-subcode search exponent:
    (n - mt - k_tilde * n^(-1/5)) * (ceil(log2 n) - 1) - 0.91 n + log2(n)/2."""
    if min(n, m, t, k_tilde) <= 0:
        raise ValueError("arguments must be positive")
    exponent = ((n - m * t - k_tilde * n ** (-1.0 / 5.0))
                * (math.ceil(math.log2(n)) - 1)
                - 0.91 * n + math.log2(n) / 2.0)
    return CostReport(f"paiva_terada_wf(n={n},m={m},t={t},k={k_tilde})",
                      note="asymptotic exponent, constants dropped", log2=exponent)


def gamma_uniformity(k_tilde: int, n: int, t: int) -> Fraction:
    """Upper bound on the coin-to-ciphertext collision probability."""
    if not 0 <= t <= n:
        raise ValueError("need 0 <= t <= n")
    return Fraction(1, (1 << k_tilde) * math.comb(n, t))


def sizes(params: CommonParams) -> list[CostReport]:
    """Bit sizes of keys and ciphertexts for a parameter set.

    Ternary objects are counted at log2(3) bits per trit.  The published
    level-1 comparison table lists the ciphertext as 2.1e4 bits while the
    accompanying formula gives 23,311 and the surrounding text 2.9e4; all
    three are reported, flagged, without reconciliation.
    """
    p = params
    rows: list[CostReport] = []

    def add(name, bits, exact=None, note=""):
        rows.append(CostReport(name, exact, float(bits), note))

    enc_bits = 2 * p.n_s + p.n_r + p.k_tilde + p.ell
    add("encapsulation_bits", enc_bits, exact=enc_bits)
    ct_bits = 2 * p.n_s + p.n_r + p.k_tilde + 2 * p.ell
    add("ciphertext_bits", ct_bits, exact=ct_bits,
        note="formula value; published level-1 renderings 2.9e4 (text) "
             "and 2.1e4 (table) disagree and are reported as-is")
    add("receiver_pub_bits", p.k_tilde * p.n_r, exact=p.k_tilde * p.n_r)
    recv_sec = p.m * (2 * p.n_r + p.t - p.k_tilde * p.t) + p.k_tilde * p.n_r
    add("receiver_sec_bits", recv_sec, exact=recv_sec,
        note="first term is negative at level-1 scale; total matches the "
             "published 5.0e6")
    r = p.r_s
    add("sender_pub_bits", r * (p.n_s - r) * LOG2_3,
        note=f"{r}*{p.n_s - r} trits at log2(3) bits each")
    add("sender_sec_bits", (p.n_s * (p.n_s + r) + r * r) * LOG2_3,
        note=f"{p.n_s * (p.n_s + r) + r * r} trits at log2(3) bits each: "
             "S, H_sk and a dense n_s x n_s P; the key file, far smaller, "
             "holds H_U, H_V, perm and scalars")
    return rows


def full_report(params: CommonParams) -> list[CostReport]:
    p = params
    rows = [
        isd_ratio(p.n_r, p.k_tilde, p.t),
        isd_ratio(p.n_s, p.k_s, p.omega),
        prange_large_weight(p.n_s, p.k_s, p.omega),
        solutions_per_syndrome(p.n_s, p.k_s, p.omega),
        goppa_poly_count(1 << p.m, p.t),
        georgiades_wf(p.n_r, p.k_tilde),
        paiva_terada_wf(p.n_r, p.m, p.t, p.k_tilde),
        CostReport(f"gamma_uniformity(k={p.k_tilde},n={p.n_r},t={p.t})",
                   gamma_uniformity(p.k_tilde, p.n_r, p.t)),
    ]
    rows.extend(sizes(p))
    return rows


def _fmt_big_int(v: int) -> str:
    # ~40 decimal digits; beyond that str() is unreadable (and CPython
    # caps int-to-str conversion anyway)
    if v.bit_length() <= 132:
        return str(v)
    return format(Decimal(v), ".6e")


def _fmt_exact(x) -> str:
    if x is None:
        return ""
    if isinstance(x, Fraction):
        return f"{_fmt_big_int(x.numerator)}/{_fmt_big_int(x.denominator)}"
    if isinstance(x, int):
        return _fmt_big_int(x)
    return str(x)


def format_text(rows: list[CostReport]) -> str:
    widths = (max(len(r.name) for r in rows), 24)
    out = [f"{'quantity':<{widths[0]}}  {'exact':<{widths[1]}}  log2"]
    for r in rows:
        out.append(f"{r.name:<{widths[0]}}  {_fmt_exact(r.exact):<{widths[1]}}  "
                   f"{r.log2:.10g}")
    return "\n".join(out)


def format_csv(rows: list[CostReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["quantity", "exact", "value", "log2", "note"])
    for r in rows:
        w.writerow([r.name, _fmt_exact(r.exact),
                    "" if r.value is None else repr(r.value),
                    f"{r.log2:.10g}", r.note])
    return buf.getvalue()
