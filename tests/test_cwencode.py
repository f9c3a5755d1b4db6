"""Constant-weight encoding, checked against an exhaustive colex oracle."""

import itertools
import random
from math import comb, exp

import numpy as np
import pytest

from cbsc import cwencode as cw
from cbsc.linalg import ints_to_rows

import oracles as O


def _colex_order(n, t):
    """All t-subsets of range(n) sorted by colex order: compare reversed."""
    return sorted(itertools.combinations(range(n), t),
                  key=lambda s: tuple(reversed(s)))


@pytest.mark.parametrize("n,t", [(6, 1), (8, 3), (10, 3), (7, 7)])
def test_rank_matches_colex_enumeration(n, t):
    for r, subset in enumerate(_colex_order(n, t)):
        assert cw.rank_support(subset) == r
        assert cw.unrank_support(r, n, t) == list(subset)


def _boundary_ranks(n, t, rnd):
    """Ranks where the unranking's float estimate is tightest: for a
    random support whose j lowest elements are 0..j-1, the remainder at
    the next level is exactly C(c, j + 1), so the rank and the one below
    it sit on either side of that boundary; about 16 levels j."""
    ranks = []
    for j in range(0, t, max(1, t // 16)):
        top = sorted(rnd.sample(range(j, n), t - j))
        r = cw.rank_support(list(range(j)) + top)
        ranks += [r, r - 1] if r else [r]
    return ranks


@pytest.mark.parametrize("n,t,overshoot", [
    pytest.param(n, t, over, id=f"{n}-{t}" + (f"-estimate-plus-{over}" if over else ""))
    for over in (0, 3) for n, t in [(32, 2), (1024, 20), (2048, 40), (3488, 64)]])
def test_unrank_matches_scan_oracle(monkeypatch, n, t, overshoot):
    # the receiver shapes of toy, L1/20, L1/8 and paper-l1: both ends,
    # the top encodable rank, level boundaries, and random ranks.  The
    # float estimate never overshoots but by rounding, so the walk down
    # to C(c, k) <= r runs only when the estimate is raised on purpose
    monkeypatch.setattr(cw, "exp", lambda x: exp(x) + overshoot)
    rnd = random.Random(n + t)
    top = comb(n, t) - 1
    ranks = [0, top, (1 << cw.kappa(n, t)) - 1] + _boundary_ranks(n, t, rnd)
    ranks += [comb(c, t) - d for c in rnd.sample(range(t, n), 10) for d in (0, 1)]
    for r in ranks + [rnd.randint(0, top) for _ in range(60)]:
        assert cw.unrank_support(r, n, t) == O.unrank_support(r, n, t)


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        cw.unrank_support(comb(8, 3), 8, 3)


def test_kappa_values():
    assert cw.kappa(32, 2) == 8    # C(32,2) = 496
    assert cw.kappa(16, 2) == 6    # C(16,2) = 120
    assert cw.kappa(3488, 64) == comb(3488, 64).bit_length() - 1
    assert cw.kappa(4, 4) == 0
    for t in (5, -1):
        with pytest.raises(ValueError, match="need 0 <= t <= n"):
            cw.kappa(4, t)


def test_phi_bijection_exhaustive_16_2():
    n, t = 16, 2
    k = cw.kappa(n, t)
    seen = set()
    for v in range(1 << k):
        y = ints_to_rows([v], k)[0]
        sigma = cw.phi(y, n, t)
        assert sigma.shape == (n,) and int(sigma.sum()) == t
        back = cw.phi_inv(sigma, t)
        assert back is not None and np.array_equal(back, y)
        seen.add(tuple(sigma))
    assert len(seen) == 1 << k


def test_phi_inv_rejects_wrong_weight():
    assert cw.phi_inv(np.zeros(16, dtype=np.uint8), 2) is None
    v = np.zeros(16, dtype=np.uint8)
    v[:3] = 1
    assert cw.phi_inv(v, 2) is None


def test_phi_inv_rejects_out_of_image():
    # n=16, t=2: ranks 64..119 have weight 2 but exceed 2^6 - 1
    n, t = 16, 2
    hit_none = 0
    for subset in itertools.combinations(range(n), t):
        sigma = np.zeros(n, dtype=np.uint8)
        sigma[list(subset)] = 1
        if cw.rank_support(subset) >= 64:
            assert cw.phi_inv(sigma, t) is None
            hit_none += 1
        else:
            assert cw.phi_inv(sigma, t) is not None
    assert hit_none == comb(n, t) - 64


def test_phi_wrong_input_length():
    with pytest.raises(ValueError):
        cw.phi(np.zeros(5, dtype=np.uint8), 16, 2)
