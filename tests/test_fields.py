"""GF(2^m) and polynomial arithmetic, checked against independent
reference implementations (naive GF(2)[x] arithmetic on ints)."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsc import fields as F

import oracles as O


# --- independent GF(2)[x] reference on ints ---------------------------------

def _gf2x_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _gf2x_mod(a: int, mod: int) -> int:
    dm = mod.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= mod << (a.bit_length() - 1 - dm)
    return a


def _mul(a: int, b: int, m: int) -> int:
    """The table product of `fields`: exp[log a + log b]."""
    T = F.tables(m)
    return T.exp[T.log[a] + T.log[b]]


def _gf2x_irreducible(p: int) -> bool:
    d = p.bit_length() - 1
    if d < 1:
        return False
    for q in range(2, 1 << (d // 2 + 1)):
        if q.bit_length() - 1 >= 1 and _gf2x_mod(p, q) == 0:
            return False
    return True


def test_modulus_table_irreducible():
    for m, mod in F.IRREDUCIBLE_POLY.items():
        assert mod.bit_length() - 1 == m
        assert _gf2x_irreducible(mod), f"modulus for m={m} is reducible"


@pytest.mark.parametrize("m", [2, 3, 5, 8, 13])
def test_gf_mul_matches_reference(m):
    rnd = random.Random(m)
    mod = F.IRREDUCIBLE_POLY[m]
    for _ in range(200):
        a = rnd.randrange(1 << m)
        b = rnd.randrange(1 << m)
        assert _mul(a, b, m) == _gf2x_mod(_gf2x_mul(a, b), mod)


def test_gf_mul_ring_axioms():
    m = 5
    rnd = random.Random(7)
    for _ in range(100):
        a, b, c = (rnd.randrange(32) for _ in range(3))
        assert _mul(a, b, m) == _mul(b, a, m)
        assert _mul(a, _mul(b, c, m), m) == _mul(_mul(a, b, m), c, m)
        assert _mul(a, b ^ c, m) == _mul(a, b, m) ^ _mul(a, c, m)
        assert _mul(a, 1, m) == a


def test_gf_inv_exhaustive_m5():
    for a in range(1, 32):
        assert _mul(a, F.gf_inv(a, 5), 5) == 1


def test_gf_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F.gf_inv(0, 5)


def test_gf_pow_matches_repeated_mul():
    m = 4
    for a in range(1, 16):
        acc = 1
        for e in range(10):
            assert O.gf_pow(a, e, m) == acc
            acc = _mul(acc, a, m)


# --- polynomials over GF(2^m) ----------------------------------------------

poly_st = st.lists(st.integers(0, 31), max_size=8)


@given(poly_st, poly_st)
def test_poly_mod_matches_oracle_remainder(p, d):
    m = 5
    p = F.poly_trim(list(p))
    d = F.poly_trim(list(d))
    if not d:
        with pytest.raises(ZeroDivisionError):
            F.poly_mod(p, d, m)
        return
    r = F.poly_mod(p, d, m)
    assert F.poly_deg(r) < F.poly_deg(d)
    assert r == O.poly_mod(p, d, m) == O.poly_divmod_tables(p, d, m)[1]
    assert O.poly_divmod_tables(p, d, m) == O.poly_divmod(p, d, m)


def test_poly_eval_on_known_values():
    # p(x) = x^2 + x over GF(2^3) vanishes exactly on GF(2)
    p = [0, 1, 1]
    roots = np.flatnonzero(F.poly_eval_many(p, np.arange(8), 3) == 0)
    assert roots.tolist() == [0, 1]


def test_poly_inv_mod():
    m = 5
    rnd = random.Random(3)
    rng = _NumpyLike(rnd)
    g = F.random_irreducible(4, m, rng)
    for _ in range(30):
        p = F.poly_trim([rnd.randrange(32) for _ in range(4)])
        if not p:
            continue
        inv = F.poly_inv_mod(p, g, m)
        assert F.poly_mod(O.poly_mul(p, inv, m), g, m) == [1]


@pytest.mark.parametrize("m,t", [(5, 2), (8, 10)])
def test_poly_inv_mod_any_degree_and_non_invertible(m, t):
    # p of degree t to 2t + 1 is inverted without a reduction first; the
    # zero polynomial and nonzero multiples of g have no inverse
    rng = np.random.default_rng(29 + m)
    g = F.random_irreducible(t, m, rng)
    for deg in range(t, 2 * t + 2):
        for _ in range(3):
            p = rng.integers(0, 1 << m, size=deg + 1).tolist()
            p[-1] = int(rng.integers(1, 1 << m))
            if O.poly_mod(p, g, m):
                inv = F.poly_inv_mod(p, g, m)
                assert inv == O.poly_inv_mod(p, g, m)
                assert F.poly_deg(inv) < t
    multiples = [g, O.poly_mul(g, [0, 1], m)]
    multiples += [O.poly_mul(g, [int(c) for c in rng.integers(1, 1 << m, size=k)], m)
                  for k in (1, t, t + 2)]
    for p in [[]] + multiples:
        with pytest.raises(ZeroDivisionError):
            F.poly_inv_mod(p, g, m)


def test_poly_gcd_matches_the_divmod_chain():
    # random pairs, a zero q (and p), deg q > deg p, and pairs with a
    # common factor f, whose gcd f must divide
    m = 10
    rng = np.random.default_rng(28)

    def rand(deg):
        return F.poly_trim([int(c) for c in rng.integers(0, 1 << m, size=deg + 1)])
    pairs = [(rand(20), rand(20)) for _ in range(50)]
    pairs += [(rand(20), []), ([], rand(7)), ([], []), ([5], []), (rand(5), rand(20))]
    factors = [rand(int(rng.integers(1, 8))) for _ in range(20)]
    common = [(O.poly_mul(f, rand(12), m), O.poly_mul(f, rand(9), m)) for f in factors]
    for p, q in pairs + common:
        gcd = F.poly_gcd(p, q, m)
        assert gcd == O.poly_gcd(p, q, m), (p, q)
        assert not gcd or gcd[-1] == 1
    for f, (p, q) in zip(factors, common):
        gcd = F.poly_gcd(p, q, m)
        assert F.poly_mod(gcd, f, m) == [] and F.poly_mod(p, gcd, m) == [] \
            and F.poly_mod(q, gcd, m) == []


def test_poly_sqrt_mod():
    m = 5
    rnd = random.Random(11)
    g = F.random_irreducible(3, m, _NumpyLike(rnd))
    sqrt_table = F.poly_sqrt_table(g, m)
    for _ in range(30):
        p = F.poly_trim([rnd.randrange(32) for _ in range(3)])
        s = F.poly_sqrt_mod(p, g, m, sqrt_table)
        assert O.poly_square_mod(s, g, m) == F.poly_mod(p, g, m)


def test_irreducible_count_matches_formula():
    # every monic polynomial of degree t over GF(q): the irreducible ones
    # number (1/t) sum over d | t of mu(d) q^(t/d); degrees from 4 up
    # take the squaring rounds, 2 and 3 only the root check
    for m, t in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3),
                 (3, 4), (4, 2), (4, 3)]:
        q = 1 << m
        count = sum(F.poly_is_irreducible(list(low) + [1], m)
                    for low in itertools.product(range(q), repeat=t))
        assert count == O.irreducible_count(q, t), (m, t)


def test_irreducible_matches_oracle():
    rng = np.random.default_rng(20)
    for t, m, n in [(20, 10, 150), (8, 4, 40), (64, 12, 6)]:
        cases = [[int(c) for c in rng.integers(0, 1 << m, size=t + 1)] for _ in range(n)]
        cases += [F.random_irreducible(t, m, rng)]
        if t < 64:
            # products of two distinct irreducibles of degree t/2, and
            # squares of one: only the last coprimality test rejects them
            for _ in range(3):
                f, g = (F.random_irreducible(t // 2, m, rng) for _ in range(2))
                assert f != g
                c = [int(rng.integers(1, 1 << m))]
                cases += [O.poly_mul(O.poly_mul(f, g, m), c, m), O.poly_mul(f, f, m)]
        for p in cases:
            p = F.poly_trim(p)  # leading coefficients other than 1 too
            assert F.poly_is_irreducible(p, m) == O.poly_is_irreducible(p, m), p


def test_reducible_detected():
    # (x + 1)(x + 2) over GF(4)
    p = O.poly_mul([1, 1], [2, 1], 2)
    assert not F.poly_is_irreducible(p, 2)


def test_random_irreducible_properties():
    rng = _NumpyLike(random.Random(5))
    for m, t in [(4, 2), (5, 3), (6, 4)]:
        g = F.random_irreducible(t, m, rng)
        assert F.poly_deg(g) == t and g[-1] == 1
        assert F.poly_is_irreducible(g, m)
        # no roots in the base field (degree >= 2)
        assert F.poly_eval_many(g, np.arange(1 << m), m).all()


class _NumpyLike:
    """random.Random adapter exposing the one Generator method used here."""

    def __init__(self, rnd):
        self._rnd = rnd

    def integers(self, lo, hi):
        return self._rnd.randrange(lo, hi)
