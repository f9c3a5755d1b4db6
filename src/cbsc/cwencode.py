"""Constant-weight encoding between bit strings and weight-t vectors.

The encoding is the colexicographic combinadic: a t-subset
{c_0 < c_1 < ... < c_{t-1}} of [0, n) has rank sum(C(c_i, i+1)).  Ranks
below 2^kappa are exactly the encodable bit strings; weight-t vectors
whose rank is >= 2^kappa are outside the image and decode to None.
Unranking takes the elements from the largest down, each by bisection
over the binomials, so it makes O(t log n) `comb` calls, not one per
position.
"""

from __future__ import annotations

from bisect import bisect_right
from math import comb

import numpy as np

from .linalg import pack_bits, unpack_bits


def kappa(n: int, t: int) -> int:
    """floor(log2(C(n, t))), from the exact big-integer binomial."""
    if not 0 <= t <= n:
        raise ValueError("need 0 <= t <= n")
    return comb(n, t).bit_length() - 1


def rank_support(support) -> int:
    """Colex rank of a strictly increasing index sequence."""
    return sum(comb(int(c), i + 1) for i, c in enumerate(support))


def unrank_support(r: int, n: int, t: int) -> list[int]:
    """t-subset of [0, n) with colex rank r.

    Greedy from the largest element down: for k = t, ..., 1 it is the
    largest c below the previous one with C(c, k) <= r, and r drops by
    C(c, k).  C(c, k) grows with c, so bisection finds each c in
    O(log n) binomials rather than one per position.
    """
    if not 0 <= r < comb(n, t):
        raise ValueError("rank out of range")
    support = [0] * t
    for k in range(t, 0, -1):
        n = bisect_right(range(n), r, key=lambda c: comb(c, k)) - 1
        r -= comb(n, k)
        support[k - 1] = n
    return support


def bits_to_int(bits: np.ndarray) -> int:
    """LSB-first bit vector to integer."""
    return int.from_bytes(pack_bits(bits), "little")


def int_to_bits(v: int, nbits: int) -> np.ndarray:
    """The low nbits bits of v, LSB first."""
    v &= (1 << nbits) - 1
    return unpack_bits(v.to_bytes((nbits + 7) // 8, "little"), nbits)


def phi(y: np.ndarray, n: int, t: int) -> np.ndarray:
    """Encode kappa(n, t) bits into a length-n weight-t binary vector."""
    if len(y) != kappa(n, t):
        raise ValueError("input must have exactly kappa(n, t) bits")
    support = unrank_support(bits_to_int(y), n, t)
    sigma = np.zeros(n, dtype=np.uint8)
    sigma[support] = 1
    return sigma


def phi_inv(sigma: np.ndarray, t: int) -> np.ndarray | None:
    """Left inverse of phi; None when the vector is outside phi's image."""
    sigma = np.asarray(sigma, dtype=np.uint8)
    support = np.nonzero(sigma)[0]
    if len(support) != t:
        return None
    n = len(sigma)
    k = kappa(n, t)
    r = rank_support(support)
    if r >= (1 << k):
        return None
    return int_to_bits(r, k)
