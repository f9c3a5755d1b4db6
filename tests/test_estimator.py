"""Estimator formulas against exhaustive oracles and published figures."""

import itertools
import math
from fractions import Fraction
from math import comb

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
    sizes,
)
from cbsc.params import PAPER_L1, TOY

from oracles import georgiades_log2_lgamma


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
    csv_out = format_csv(rows)
    assert csv_out.splitlines()[0].startswith("quantity,")
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
