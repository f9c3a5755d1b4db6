"""Estimator formulas against exhaustive oracles and published figures."""

import itertools
import math
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from cbsc import fields as F
from cbsc.estimator import (
    LOG2_3,
    format_csv,
    format_text,
    full_report,
    gamma_uniformity,
    georgiades_wf,
    goppa_poly_count,
    isd_ratio,
    paiva_terada_wf,
    prange_large_weight,
    sizes,
    solutions_per_syndrome,
)
from cbsc.params import PAPER_L1, TOY
from cbsc.uuvsign import keygen_sender

from oracles import coset_solutions, georgiades_log2_lgamma, irreducible_count, toy_with
from test_serial import L1_20


def test_isd_ratio_exhaustive_oracle():
    # count information sets avoiding a fixed weight-w support directly
    for n in range(2, 13):
        for k in range(0, min(n, 6) + 1):
            for w in range(0, min(n, 3) + 1):
                err = set(range(w))  # symmetric: any support gives same count
                good = sum(1 for s in itertools.combinations(range(n), k)
                           if not err & set(s))
                expected = Fraction(good, comb(n, k))
                assert isd_ratio(n, k, w).exact == expected


def test_isd_ratio_zero_when_k_too_large():
    r = isd_ratio(10, 9, 2)
    assert r.exact == 0 and r.log2 == float("-inf")


def test_large_weight_rows_at_toy():
    # r = 8 redundancy trits, omega - k = 6 of them nonzero
    assert prange_large_weight(16, 8, 14).exact == Fraction(1792, 6561)
    assert solutions_per_syndrome(16, 8, 14).exact == Fraction(120 * 2**14, 3**8)
    assert prange_large_weight(16, 8, 14).log2 == pytest.approx(-1.8723, abs=1e-4)
    assert solutions_per_syndrome(16, 8, 14).log2 == pytest.approx(8.2272, abs=1e-4)
    assert prange_large_weight(16, 8, 7).exact == 0     # omega < k


def test_large_weight_rows_at_paper_l1():
    # the sender forgery rows are finite where isd_ratio is 0
    n, k, omega = PAPER_L1.n_s, PAPER_L1.k_s, PAPER_L1.omega
    assert isd_ratio(n, k, omega).exact == 0
    prange = prange_large_weight(n, k, omega)
    assert prange.exact == Fraction(comb(2887, 2375) * 2**2375, 3**2887)
    assert prange.log2 == pytest.approx(-259.95, abs=0.01)
    mean = solutions_per_syndrome(n, k, omega)
    assert mean.exact == Fraction(comb(8492, 7980) * 2**7980, 3**2887)
    assert mean.log2 == pytest.approx(6188.93, abs=0.01)
    names = [r.name for r in full_report(PAPER_L1)]
    assert names.index(prange.name) == names.index(isd_ratio(n, k, omega).name) + 1
    assert names.index(mean.name) == names.index(prange.name) + 1


def test_large_weight_rows_against_enumeration():
    # an n_s = 8 key, k_s = 4: every syndrome's weight-omega solutions,
    # and one Prange step on the last k coordinates set to ones, whose
    # redundancy part y - A 1 runs over all of F_3^4 with y
    params = toy_with(n_s=8, k_U=2, k_V=2, omega=6)
    _, pk = keygen_sender(params, np.random.default_rng(11))
    n, k, r = params.n_s, params.k_s, params.r_s
    syndromes = (np.arange(3 ** r)[:, None] // 3 ** np.arange(r)) % 3
    redundancy = (syndromes - pk.A.sum(axis=1, dtype=np.int64)) % 3
    for omega in range(n + 1):
        found = sum(len(coset_solutions(pk, y, omega)) for y in syndromes)
        assert Fraction(found, 3 ** r) == solutions_per_syndrome(n, k, omega).exact
        hits = int((np.count_nonzero(redundancy, axis=1) == omega - k).sum())
        assert Fraction(hits, 3 ** r) == prange_large_weight(n, k, omega).exact


def test_goppa_poly_count_gf4_exhaustive():
    # enumerate monic quadratics over GF(4) with the field arithmetic
    count = sum(F.poly_is_irreducible([c, b, 1], 2)
                for b in range(4) for c in range(4))
    assert count == 6
    assert goppa_poly_count(4, 2).exact == 6


def test_goppa_poly_count_known_values():
    assert goppa_poly_count(2, 3).exact == 2      # x^3+x+1, x^3+x^2+1
    assert goppa_poly_count(2, 4).exact == 3
    assert goppa_poly_count(32, 2).exact == (32 * 32 - 32) // 2
    # necklace-count sanity: t * count <= q^t
    rep = goppa_poly_count(4096, 64)
    assert 64 * rep.exact <= 4096 ** 64
    assert rep.log2 == pytest.approx(762, abs=1)


def test_goppa_poly_count_matches_mobius_oracle():
    for q in (2, 3, 4, 32, 4096):
        for t in range(1, 71):
            assert goppa_poly_count(q, t).exact == irreducible_count(q, t), (q, t)


@pytest.mark.parametrize("params", [TOY, L1_20, PAPER_L1], ids=["toy", "l1-20", "paper-l1"])
def test_every_row_log2_is_that_of_its_number(params):
    for row in full_report(params):
        if row.exact is None and row.value is None:
            assert row.name.startswith("paiva_terada_wf")   # only an exponent
            continue
        x = Fraction(row.exact if row.exact is not None else row.value)
        if x == 0:
            assert row.log2 == float("-inf"), row.name
        else:
            want = math.log2(x.numerator) - math.log2(x.denominator)
            assert row.log2 == pytest.approx(want, rel=1e-14, abs=1e-12), row.name


def test_georgiades_exact_and_lgamma_agree():
    for n, k in [(10, 3), (32, 16), (3488, 1815)]:
        rep = georgiades_wf(n, k)
        assert rep.exact == math.factorial(n) // math.factorial(k)
        assert rep.log2 == pytest.approx(georgiades_log2_lgamma(n, k), rel=1e-12)


def test_paiva_terada_formula_value():
    # independent re-evaluation of the closed form
    n, m, t, k = 3488, 12, 64, 1815
    expected = ((n - m * t - k * n ** (-0.2)) * (math.ceil(math.log2(n)) - 1)
                - 0.91 * n + math.log2(n) / 2)
    assert paiva_terada_wf(n, m, t, k).log2 == pytest.approx(expected)


@pytest.mark.parametrize("zero", range(4))
def test_paiva_terada_rejects_a_zero_argument(zero):
    args = [3488, 12, 64, 1815]
    args[zero] = 0
    with pytest.raises(ValueError, match="arguments must be positive"):
        paiva_terada_wf(*args)


def test_gamma_uniformity_fraction():
    assert gamma_uniformity(8, 16, 2) == Fraction(1, 256 * 120)
    assert gamma_uniformity(16, 32, 2) == Fraction(1, (1 << 16) * 496)


def test_sizes_level1():
    rows = {r.name: r for r in sizes(PAPER_L1)}
    assert rows["receiver_pub_bits"].exact == 6_330_720
    assert rows["receiver_sec_bits"].exact == 5_021_280
    assert rows["ciphertext_bits"].exact == 23_311
    assert rows["encapsulation_bits"].exact == 2 * 8492 + 3488 + 1815 + 512
    assert rows["sender_pub_bits"].value == pytest.approx(
        2887 * 5605 * LOG2_3)
    assert rows["sender_sec_bits"].value == pytest.approx(
        (8492 * (8492 + 2887) + 2887 ** 2) * LOG2_3)


def test_sizes_toy_consistency():
    rows = {r.name: r for r in sizes(TOY)}
    assert rows["receiver_pub_bits"].exact == 16 * 32
    assert rows["encapsulation_bits"].exact == 2 * 16 + 32 + 16 + 16


def test_report_formats():
    rows = full_report(TOY)
    text = format_text(rows)
    assert "receiver_pub_bits" in text
    assert text.splitlines()[0].split() == ["quantity", "exact", "log2"]
    csv_out = format_csv(rows)
    assert csv_out.splitlines()[0] == "quantity,exact,value,log2,note"
    assert len(csv_out.splitlines()) == len(rows) + 1
    # level-1 report must render despite astronomically large exact values
    assert "georgiades" in format_text(full_report(PAPER_L1))


def test_input_validation():
    with pytest.raises(ValueError):
        isd_ratio(10, 11, 0)
    with pytest.raises(ValueError):
        goppa_poly_count(4, 0)
    with pytest.raises(ValueError):
        georgiades_wf(5, 6)
    with pytest.raises(ValueError):
        gamma_uniformity(8, 4, 5)
