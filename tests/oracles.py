"""Reference oracles: bit-serial GF(2^m) arithmetic and list-based
Patterson decoding, written independently of the log/antilog tables and
the key-time decoding material in `cbsc.fields` and `cbsc.goppa`.

They are slow and simple on purpose; tests compare the library against
them.  Polynomials are lists of ints, index = degree, no trailing zeros.
"""

from __future__ import annotations

import numpy as np

from cbsc.fields import IRREDUCIBLE_POLY


def gf_mul(a: int, b: int, m: int) -> int:
    mod = IRREDUCIBLE_POLY[m]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m:
            a ^= mod
    return r


def gf_inv(a: int, m: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(2^m)")
    r, e = 1, (1 << m) - 2
    while e:
        if e & 1:
            r = gf_mul(r, a, m)
        a = gf_mul(a, a, m)
        e >>= 1
    return r


def _trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p: list[int], q: list[int]) -> list[int]:
    r = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        r[i] ^= c
    for i, c in enumerate(q):
        r[i] ^= c
    return _trim(r)


def poly_mul(p: list[int], q: list[int], m: int) -> list[int]:
    if not p or not q:
        return []
    r = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            r[i + j] ^= gf_mul(a, b, m)
    return _trim(r)


def poly_divmod(p: list[int], d: list[int], m: int) -> tuple[list[int], list[int]]:
    r = list(p)
    q = [0] * max(0, len(p) - len(d) + 1)
    inv = gf_inv(d[-1], m)
    while len(r) >= len(d):
        c = gf_mul(r[-1], inv, m)
        shift = len(r) - len(d)
        q[shift] = c
        for i, dc in enumerate(d):
            r[shift + i] ^= gf_mul(c, dc, m)
        _trim(r)
    return _trim(q), r


def poly_mod(p: list[int], d: list[int], m: int) -> list[int]:
    return poly_divmod(p, d, m)[1]


def poly_eval(p: list[int], x: int, m: int) -> int:
    r = 0
    for c in reversed(p):
        r = gf_mul(r, x, m) ^ c
    return r


def poly_inv_mod(p: list[int], mod: list[int], m: int) -> list[int]:
    r0, r1 = list(mod), poly_mod(p, mod, m)
    u0, u1 = [], [1]
    while r1:
        q, rem = poly_divmod(r0, r1, m)
        r0, r1 = r1, rem
        u0, u1 = u1, poly_add(u0, poly_mul(q, u1, m))
    if len(r0) != 1:
        raise ZeroDivisionError("element not invertible")
    return poly_mod(poly_mul(u0, [gf_inv(r0[0], m)], m), mod, m)


def poly_square_mod(p: list[int], mod: list[int], m: int) -> list[int]:
    r = [0] * (2 * len(p))
    r[::2] = [gf_mul(c, c, m) for c in p]   # cross terms cancel in characteristic 2
    return poly_mod(_trim(r), mod, m)


def poly_sqrt_mod(p: list[int], mod: list[int], m: int) -> list[int]:
    """sqrt(u) = u^(2^(mt-1)) in the field GF(2^m)[x]/(mod) of 2^(mt) elements."""
    r = poly_mod(p, mod, m)
    for _ in range(m * (len(mod) - 1) - 1):
        r = poly_square_mod(r, mod, m)
    return r


def syndrome_poly(g: list[int], support, word, m: int) -> list[int]:
    """sum over the nonzero positions j of 1/(x + alpha_j) mod g."""
    acc: list[int] = []
    for j in np.nonzero(np.asarray(word, dtype=np.uint8))[0]:
        acc = poly_add(acc, poly_inv_mod([support[j], 1], g, m))
    return acc


def patterson_decode(g: list[int], support, word, m: int):
    """(codeword, error) for at most t = deg g errors, else None."""
    word = np.asarray(word, dtype=np.uint8) % 2
    t = len(g) - 1
    S = syndrome_poly(g, support, word, m)
    if not S:
        return word.copy(), np.zeros(len(word), dtype=np.uint8)
    R2 = poly_add(poly_inv_mod(S, g, m), [0, 1])
    if not R2:
        sigma = [0, 1]
    else:
        r0, r1 = list(g), poly_sqrt_mod(R2, g, m)
        u0, u1 = [], [1]
        while len(r1) - 1 > t // 2:
            q, rem = poly_divmod(r0, r1, m)
            r0, r1 = r1, rem
            u0, u1 = u1, poly_add(u0, poly_mul(q, u1, m))
        sigma = poly_add(poly_mul(r1, r1, m), poly_mul([0, 1], poly_mul(u1, u1, m), m))
    if not sigma:
        return None
    error = np.array([poly_eval(sigma, a, m) == 0 for a in support], dtype=np.uint8)
    nroots = int(error.sum())
    if nroots == 0 or nroots > t or nroots != len(sigma) - 1:
        return None
    corrected = word ^ error
    if syndrome_poly(g, support, corrected, m):
        return None
    return corrected, error


def gf_mul_many(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """Elementwise bit-serial product of two int arrays of GF(2^m) elements."""
    mod = IRREDUCIBLE_POLY[m]
    a = np.array(a, dtype=np.int64)
    b = np.array(b, dtype=np.int64)
    r = np.zeros_like(a)
    for _ in range(m):
        r ^= np.where(b & 1, a, 0)
        b >>= 1
        a <<= 1
        a ^= np.where(a >> m, mod, 0)
    return r


def parity_check_vandermonde(g: list[int], support, m: int) -> np.ndarray:
    """The textbook mt x n parity check: entry (i, j) = alpha_j^i / g(alpha_j),
    each entry expanded into m rows of bits."""
    t = len(g) - 1
    H = np.zeros((m * t, len(support)), dtype=np.uint8)
    for j, a in enumerate(support):
        col = gf_inv(poly_eval(g, a, m), m)
        for i in range(t):
            for b in range(m):
                H[i * m + b, j] = (col >> b) & 1
            col = gf_mul(col, a, m)
    return H
