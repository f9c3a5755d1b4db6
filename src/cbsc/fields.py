"""Arithmetic in GF(2^m) and for polynomials over GF(2^m).

Field elements are plain ints holding the bit-vector of polynomial
coefficients over GF(2) (bit i = coefficient of x^i), reduced modulo
`IRREDUCIBLE_POLY[m]`.  Polynomials over GF(2^m) are lists of such
ints, index = degree, with no trailing zeros.

Multiplication runs on log/antilog tables (`tables`), built once per m
the first time that m is used.  `log[0]` points into a run of zeros at
the end of `exp`, so ``exp[log[a] + log[b]] == a * b`` holds for every
pair, zero included, with no branch; callers multiply by that lookup.
Vector code gathers from one antilog array, `Tables.exp_u16`, the same
list as uint16: the row tables below, Ben-Or's squarings, and the
key-time tables and decoders of `goppa`, where a polynomial's values at
a code's support, g(alpha_j) and the roots of an error locator, are
one gather from the code's table of the powers alpha_j^i.

Every remainder and inverse runs one in-place loop, `_euclid`: Euclid
on a pair down to a stop degree, clearing the top coefficients of one
polynomial by multiples of the other, with the Bezout coefficient
carried only when the caller asks for it at entry (`poly_euclid`).
Ben-Or's coprimality test in `poly_is_irreducible` stops at a constant
and reads whether it is nonzero, `poly_inv_mod` stops at the unit
remainder, and Patterson's key equation stops at degree t/2.  Operands
may have any degree, so `poly_inv_mod` reduces neither its input nor
its output.
There is no general product: a product modulo a fixed polynomial is a
gather from the rows x^i f mod that polynomial (`_times_x_rows`) and an
XOR down the columns, in `poly_sqrt_x`, `poly_sqrt_mod` and
`poly_is_irreducible`.
`poly_sqrt_mod` takes square roots modulo a fixed polynomial with the
table that `poly_sqrt_table` builds for it once.
"""

from __future__ import annotations

import functools

import numpy as np

# One fixed irreducible modulus per extension degree.  Both sides of a
# key exchange must use the same representation, so this table is part
# of the wire format and must never change for a given format version.
IRREDUCIBLE_POLY = {
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0x11B,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
}


class Tables:
    """Log/antilog tables of GF(2^m) for one m.

    ``exp[i] = gamma^(i mod (q-1))`` for a primitive element gamma and
    ``0 <= i < zero = 2(q-1)``; ``exp[i] = 0`` for ``zero <= i <= 2 zero``.
    ``log[0] = zero`` and ``log[a]`` is the discrete log of a otherwise,
    so a sum of two logs always indexes `exp` correctly.  ``sqrt[a]`` is
    the square root of a.  For vector work there is one antilog array,
    ``exp_u16``, `exp` as uint16, which holds every element of GF(2^16),
    so every gather from it returns a quarter of an intp array's bytes;
    ``log_np`` is `log` as intp, and ``square_np[a]`` is the square of a.
    """

    def __init__(self, m: int):
        mod = IRREDUCIBLE_POLY[m]
        q = 1 << m
        order = q - 1
        for gamma in range(2, q):
            powers = [1]
            a = gamma
            while a != 1:
                powers.append(a)
                a = _mul_by(a, gamma, m, mod)
            if len(powers) == order:
                break
        zero = 2 * order
        log = [zero] * q
        for i, a in enumerate(powers):
            log[a] = i
        self.order = order
        self.exp = powers + powers + [0] * (zero + 1)
        self.log = log
        half = (order + 1) // 2        # 1/2 mod (q - 1)
        self.sqrt = [0] + [powers[(log[a] * half) % order] for a in range(1, q)]
        self.exp_u16 = np.array(self.exp, dtype=np.uint16)
        self.log_np = np.array(log, dtype=np.intp)
        self.square_np = self.exp_u16[2 * self.log_np]  # exp[2 zero] = 0


def _mul_by(a: int, b: int, m: int, mod: int) -> int:
    # bit-serial product, used only to build the tables
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= mod
    return r


@functools.lru_cache(maxsize=None)
def tables(m: int) -> Tables:
    """The tables of GF(2^m); built on first use, one per m <= 16."""
    if m not in IRREDUCIBLE_POLY:
        raise ValueError(f"no field GF(2^{m})")
    return Tables(m)


def gf_inv(a: int, m: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(2^m)")
    T = tables(m)
    return T.exp[T.order - T.log[a]]


# ---------------------------------------------------------------------------
# polynomials over GF(2^m)

def poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_deg(p: list[int]) -> int:
    return len(p) - 1  # zero polynomial -> -1


def poly_add(p: list[int], q: list[int]) -> list[int]:
    if len(p) < len(q):
        p, q = q, p
    r = list(p)
    for i, c in enumerate(q):
        r[i] ^= c
    return poly_trim(r)


def poly_scale(p: list[int], c: int, m: int) -> list[int]:
    if c == 0:
        return []
    T = tables(m)
    exp, log = T.exp, T.log
    lc = log[c]
    return [exp[log[x] + lc] for x in p]


def _euclid(r0: list[int], r1: list[int], stop: int, T: Tables, track: bool):
    """Euclid on (r0, r1), r1 trimmed, until deg r1 <= stop: the last
    two remainders (r0, r1) and, when `track` is set, their Bezout
    coefficients (u0, u1) with r_i = u_i * b modulo a for the entry
    pair (a, b); else ([], []).  r0 and r1 may have any degrees: when
    deg r1 > deg r0, the first step only swaps the pairs.

    The only loop that clears coefficients, in place on the lists it is
    given, with no quotient, product or sum list: each step takes the
    logs of r1 (and of u1) once, then clears r0's coefficients from the
    top down to degree deg r1: a coefficient c at degree deg r1 + s is
    cleared by adding (c / lead r1) x^s r1 to r0, and the same multiple
    of u1 to u0.  r0 is then the remainder of r0 by r1, u0 has gained
    the quotient times u1, and the pairs swap.  `track` is fixed at
    entry, not read from u1, which can be [] after a swap and must still
    be carried.
    """
    exp, log, order = T.exp, T.log, T.order
    u0, u1 = [], [1] if track else []
    while len(r1) - 1 > stop:
        lr = [log[c] for c in r1]
        llead = lr.pop()
        dn = len(lr)
        if track:
            lu = [log[c] for c in u1]
            u0 += [0] * (len(r0) - 1 - dn + len(u1) - len(u0))
        while len(r0) > dn:
            c = r0.pop()
            if c:
                lc = log[c] - llead
                if lc < 0:
                    lc += order
                s = len(r0) - dn
                for i, li in enumerate(lr, s):
                    r0[i] ^= exp[lc + li]
                if track:
                    for i, li in enumerate(lu, s):
                        u0[i] ^= exp[lc + li]
        r0, r1 = r1, poly_trim(r0)
        if track:
            u0, u1 = u1, poly_trim(u0)
    return r0, r1, u0, u1


def poly_euclid(a: list[int], b: list[int], stop: int, m: int):
    """Extended Euclid on (a, b), both trimmed, until deg r1 <= stop:
    (r0, r1, u0, u1), the last two remainders with r_i = u_i * b modulo
    a (`_euclid` with the Bezout coefficient)."""
    return _euclid(list(a), list(b), stop, tables(m), True)


def poly_inv_mod(p: list[int], mod: list[int], m: int) -> list[int]:
    """Inverse of p modulo mod (mod irreducible, p nonzero mod mod):
    Euclid stops at the unit remainder r1 = u1 * p mod `mod`, and u1,
    which has degree < deg mod, is scaled by its inverse."""
    _, r1, _, u1 = poly_euclid(mod, p, 0, m)
    if not r1:
        raise ZeroDivisionError("element not invertible")
    return poly_scale(u1, gf_inv(r1[0], m), m)


def _times_x_rows(first: list[int], mod: list[int], count: int, m: int) -> np.ndarray:
    """count x t array, t = deg mod, mod monic: row 0 holds the
    coefficients of `first` (deg first < t), and row j those of x times
    row j - 1, modulo mod: x^j first mod mod."""
    T = tables(m)
    exp, log = T.exp_u16, T.log_np
    t = poly_deg(mod)
    log_low = log[mod[:t]]
    rows = np.zeros((count, t), dtype=np.intp)
    rows[0, :len(first)] = first
    for j in range(1, count):
        rows[j, 1:] = rows[j - 1, :-1]
        rows[j] ^= exp[log[rows[j - 1, -1]] + log_low]
    return rows


def poly_is_irreducible(p: list[int], m: int) -> bool:
    """Deterministic irreducibility test over GF(2^m) (Ben-Or).

    A p of degree 1 is irreducible and one of degree 0 or less is not.
    A reducible p of degree t >= 2 has an irreducible factor of some
    degree d <= t // 2, and then gcd(p, x^(q^d) - x) != 1, q = 2^m; so
    p is irreducible exactly when that gcd is 1 at every round d =
    1..t//2.  Round d squares x^(q^(d-1)) mod p m times, to x^(q^d) mod
    p: the terms of degree t + j of sum r_i^2 x^(2i) are reduced with
    the rows x^(t+j) mod p, j = 0..t-2, built once per call, as one
    table product with the rows and an XOR down the columns.  Round 1
    finds the roots in GF(q): its gcd is 1 exactly when p has none,
    which alone decides degrees 2 and 3.
    """
    t = poly_deg(p)
    if t < 2:
        return t == 1
    p = poly_scale(p, gf_inv(p[-1], m), m)
    T = tables(m)
    exp, log = T.exp_u16, T.log_np
    # x^t = p - x^t for a monic p in characteristic 2
    log_rows = log[_times_x_rows(p[:t], p, t - 1, m)]
    square = np.zeros(2 * t - 1, dtype=np.intp)
    r = np.zeros(t, dtype=np.intp)
    r[1] = 1
    for _ in range(t // 2):
        for _ in range(m):  # r = r^2 mod p, m times: r^q
            square[::2] = T.square_np[r]
            r = square[:t] ^ np.bitwise_xor.reduce(
                exp[log[square[t:], None] + log_rows], axis=0)
        # coprime exactly when Euclid's chain ends in a nonzero constant
        if not _euclid(list(p), poly_add(r.tolist(), [0, 1]), 0, T, False)[1]:
            return False
    return True


def poly_sqrt_x(mod: list[int], m: int) -> list[int]:
    """sqrt(x) in GF(2^m)[x]/(mod), mod monic irreducible of degree t >= 1.

    Split mod = A(x)^2 + x B(x)^2 by even and odd coefficients; then
    x = (A/B)^2 modulo mod, so sqrt(x) = A * B^-1: the gather of the
    logs of A's coefficients plus those of the rows x^i B^-1 mod `mod`,
    XORed down the columns.
    """
    T = tables(m)
    sqrt, log = T.sqrt, T.log
    log_A = np.array([log[sqrt[c]] for c in mod[0::2]], dtype=np.intp)
    B = poly_trim([sqrt[c] for c in mod[1::2]])
    rows = _times_x_rows(poly_inv_mod(B, mod, m), mod, len(log_A), m)
    return poly_trim(np.bitwise_xor.reduce(
        T.exp_u16[log_A[:, None] + T.log_np[rows]], axis=0).tolist())


def poly_sqrt_table(mod: list[int], m: int) -> np.ndarray:
    """The logs of sqrt(x) x^i mod `mod`, i < ceil(t/2): a ceil(t/2) x t
    array, for `poly_sqrt_mod`.  mod is monic irreducible of degree t."""
    t = poly_deg(mod)
    return tables(m).log_np[_times_x_rows(poly_sqrt_x(mod, m), mod, (t + 1) // 2, m)]


def poly_sqrt_mod(p: list[int], m: int, sqrt_table: np.ndarray) -> list[int]:
    """Square root of p in the field GF(2^m)[x]/(g), g monic irreducible
    of degree t, with sqrt_table = `poly_sqrt_table(g, m)`.  p has degree
    at most t and is taken as it is, unreduced.

    With p = sum p_i x^i: sqrt(p) = sum_even sqrt(p_i) x^(i/2) + sum_odd
    sqrt(p_i) sqrt(x) x^((i-1)/2).  For i <= t, an even term lands at
    x^(i/2), already reduced as i/2 < t, and an odd term reads table row
    (i-1)/2 < ceil(t/2), so the table's ceil(t/2) rows cover every p of
    degree at most t, Patterson's R^2 = 1/S + x included.  The odd terms
    are one gather of their logs plus the table rows and one XOR down
    the columns.  A higher degree is outside this contract: at t = 2, a
    p of degree 3 comes out wrong without an error.
    """
    T = tables(m)
    sqrt, log = T.sqrt, T.log
    odd = np.array([log[sqrt[c]] for c in p[1::2]], dtype=np.intp)
    r = np.bitwise_xor.reduce(T.exp_u16[odd[:, None] + sqrt_table[:len(odd)]], axis=0)
    r[:(len(p) + 1) // 2] ^= np.array([sqrt[c] for c in p[0::2]], dtype=np.uint16)
    return poly_trim(r.tolist())


def random_irreducible(t: int, m: int, rng) -> list[int]:
    """Uniform random monic irreducible polynomial of degree t over GF(2^m)."""
    q = 1 << m
    while True:
        coeffs = [int(rng.integers(0, q)) for _ in range(t)] + [1]
        if poly_is_irreducible(coeffs, m):
            return coeffs
