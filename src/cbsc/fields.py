"""Arithmetic in GF(2^m) and for polynomials over GF(2^m).

Field elements are plain ints holding the bit-vector of polynomial
coefficients over GF(2) (bit i = coefficient of x^i), reduced modulo
`IRREDUCIBLE_POLY[m]`.  Polynomials over GF(2^m) are lists of such
ints, index = degree, with no trailing zeros.

Multiplication runs on log/antilog tables (`tables`), built once per m
the first time that m is used.  `log[0]` points into a run of zeros at
the end of `exp`, so ``exp[log[a] + log[b]] == a * b`` holds for every
pair, zero included, with no branch.  The scalar functions below are
the API that key generation and the tests use; `poly_eval_many` is the
numpy form that evaluates one polynomial over a whole support at once.
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
    the square root and ``square[a]`` the square of a.  The ``*_np``
    arrays are the same tables as numpy arrays for vector work.
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
        self.square = [0] + [powers[(2 * log[a]) % order] for a in range(1, q)]
        self.exp_np = np.array(self.exp, dtype=np.intp)
        self.log_np = np.array(log, dtype=np.intp)


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


def gf_mul(a: int, b: int, m: int) -> int:
    """Multiply two GF(2^m) elements."""
    T = tables(m)
    return T.exp[T.log[a] + T.log[b]]


def gf_pow(a: int, e: int, m: int) -> int:
    if a == 0:
        return int(e == 0)
    T = tables(m)
    return T.exp[(T.log[a] * e) % T.order]


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


def poly_mul(p: list[int], q: list[int], m: int) -> list[int]:
    if not p or not q:
        return []
    T = tables(m)
    exp, log = T.exp, T.log
    lq = [log[b] for b in q]
    r = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            la = log[a]
            for j, lb in enumerate(lq, i):
                r[j] ^= exp[la + lb]
    return poly_trim(r)


def poly_divmod(p: list[int], d: list[int], m: int) -> tuple[list[int], list[int]]:
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    T = tables(m)
    exp, log, order = T.exp, T.log, T.order
    ld = [log[c] for c in d]
    dn = len(d) - 1
    llead = ld.pop()
    r = list(p)
    q = [0] * max(0, len(p) - dn)
    for s in range(len(r) - 1 - dn, -1, -1):
        c = r[s + dn]
        if c:
            lc = (log[c] - llead) % order
            q[s] = exp[lc]
            for i, li in enumerate(ld, s):
                r[i] ^= exp[lc + li]
            r[s + dn] = 0
    return poly_trim(q), poly_trim(r)


def poly_mod(p: list[int], d: list[int], m: int) -> list[int]:
    return poly_divmod(p, d, m)[1]


def poly_gcd(p: list[int], q: list[int], m: int) -> list[int]:
    while q:
        p, q = q, poly_mod(p, q, m)
    if p:
        p = poly_scale(p, gf_inv(p[-1], m), m)  # monic
    return p


def poly_inv_mod(p: list[int], mod: list[int], m: int) -> list[int]:
    """Inverse of p modulo mod (mod irreducible, p nonzero mod mod)."""
    r0, r1 = list(mod), poly_mod(p, mod, m)
    u0, u1 = [], [1]
    while r1:
        q, rem = poly_divmod(r0, r1, m)
        r0, r1 = r1, rem
        u0, u1 = u1, poly_add(u0, poly_mul(q, u1, m))
    if poly_deg(r0) != 0:
        raise ZeroDivisionError("element not invertible")
    return poly_mod(poly_scale(u0, gf_inv(r0[0], m), m), mod, m)


def poly_eval(p: list[int], x: int, m: int) -> int:
    T = tables(m)
    exp, log = T.exp, T.log
    lx = log[x]
    r = 0
    for c in reversed(p):
        r = exp[log[r] + lx] ^ c
    return r


def poly_eval_many(p: list[int], xs: np.ndarray, m: int) -> np.ndarray:
    """p(x) for every x in xs, by one numpy Horner pass over the tables."""
    T = tables(m)
    exp, log = T.exp_np, T.log_np
    lx = log[np.asarray(xs, dtype=np.intp)]
    r = np.full(len(lx), p[-1] if p else 0, dtype=np.intp)
    for c in reversed(p[:-1]):
        r = exp[log[r] + lx]
        r ^= c
    return r


def poly_square_mod(p: list[int], mod: list[int], m: int) -> list[int]:
    # (sum a_i x^i)^2 = sum a_i^2 x^(2i) in characteristic 2
    sq = tables(m).square
    r = [0] * (2 * len(p) - 1) if p else []
    r[::2] = [sq[c] for c in p]
    return poly_mod(r, mod, m)


def poly_pow_q_mod(p: list[int], mod: list[int], m: int) -> list[int]:
    """p^(2^m) mod `mod`, i.e. one Frobenius power over GF(2^m)."""
    r = list(p)
    for _ in range(m):
        r = poly_square_mod(r, mod, m)
    return r


def poly_is_irreducible(p: list[int], m: int) -> bool:
    """Deterministic irreducibility test over GF(2^m).

    A reducible polynomial of degree t has an irreducible factor of
    degree <= t // 2, so it is caught by gcd(p, x^(q^i) - x).
    """
    t = poly_deg(p)
    if t <= 0:
        return False
    if t == 1:
        return True
    x = [0, 1]
    r = x
    for _ in range(t // 2):
        r = poly_pow_q_mod(r, p, m)
        g = poly_gcd(poly_add(r, x), p, m)
        if poly_deg(g) != 0:
            return False
    return True


def poly_sqrt_x(mod: list[int], m: int) -> list[int]:
    """sqrt(x) in GF(2^m)[x]/(mod), mod irreducible of degree t >= 1.

    Split mod = A(x)^2 + x B(x)^2 by even and odd coefficients; then
    x = (A/B)^2 modulo mod, so sqrt(x) = A * B^-1.
    """
    sqrt = tables(m).sqrt
    A = poly_trim([sqrt[c] for c in mod[0::2]])
    B = poly_trim([sqrt[c] for c in mod[1::2]])
    return poly_mod(poly_mul(A, poly_inv_mod(B, mod, m), m), mod, m)


def poly_sqrt_mod(p: list[int], mod: list[int], m: int,
                  sqrt_x: list[int] | None = None) -> list[int]:
    """Square root in the field GF(2^m)[x]/(mod), mod irreducible.

    With u = sum u_i x^i: sqrt(u) = sum_even sqrt(u_i) x^(i/2)
    + sqrt(x) * sum_odd sqrt(u_i) x^((i-1)/2), one multiply and one
    reduction.  `sqrt_x` is `poly_sqrt_x(mod, m)`, computed here if not
    given.
    """
    if sqrt_x is None:
        sqrt_x = poly_sqrt_x(mod, m)
    sqrt = tables(m).sqrt
    u = poly_mod(p, mod, m)
    even = poly_trim([sqrt[c] for c in u[0::2]])
    odd = poly_trim([sqrt[c] for c in u[1::2]])
    return poly_add(even, poly_mod(poly_mul(sqrt_x, odd, m), mod, m))


def random_irreducible(t: int, m: int, rng) -> list[int]:
    """Uniform random monic irreducible polynomial of degree t over GF(2^m)."""
    q = 1 << m
    while True:
        coeffs = [int(rng.integers(0, q)) for _ in range(t)] + [1]
        if poly_is_irreducible(coeffs, m):
            return coeffs
