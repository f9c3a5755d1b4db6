"""Ternary (U, U+V) trapdoor signatures with prescribed high weight.

The secret parity check H_sk = [[H_U, 0], [-H_V, H_V]] is built from
two codes, U = ker H_U and V = ker H_V.  The trapdoor decodes the coset
of a word (w1, w2) to a word (u, u + v) of exact weight omega, retrying
until the weight lands.  Each attempt draws p, omega/n plus N(0, 0.15)
noise clipped to [0, 1], and solves v in the coset of w2 - w1 under H_V,
then u in that of w1 under H_U, with free variables from one sampler,
`_free_values`: one uniform per free coordinate, looked up in a table by
the other half's trit there (zero for v, v for u), gives the pair
(x, x + other) weight 2 with probability p, else the weight of `other`.

A sender secret key is what key generation draws, (H_U, H_V, P), and
H_sk is built from it.  Its public key is the systematic form [I | A]
of H_sk·P, whose first r_s columns must be invertible.  [y | 0] has
syndrome y under [I | A], so signing decodes the coset of [y | 0]·P^-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashes import hash_trits
from .linalg import (
    AffineSolver,
    Monomial,
    mat_reduce,
    mono_apply,
    mono_apply_inv,
    random_matrix,
    random_monomial,
    vecmat,
)


class RetryExhausted(RuntimeError):
    """Weight target not reached within the retry budget."""


@dataclass
class SenderSecretKey:
    H_U: np.ndarray        # (n_s/2 - k_U) x n_s/2 over GF(3)
    H_V: np.ndarray        # (n_s/2 - k_V) x n_s/2 over GF(3)
    P: Monomial            # monomial over GF(3)
    solver_U: AffineSolver  # for H_U, built with the key
    solver_V: AffineSolver  # for H_V

    @property
    def n_s(self) -> int:
        return 2 * self.H_U.shape[1]

    @property
    def r_s(self) -> int:
        return len(self.H_U) + len(self.H_V)


@dataclass
class SenderPublicKey:
    A: np.ndarray          # r_s x (n_s - r_s) over GF(3): H_pk = [I | A]

    @property
    def n_s(self) -> int:
        return sum(self.A.shape)

    @property
    def r_s(self) -> int:
        return self.A.shape[0]


@dataclass
class Signature:
    e: np.ndarray          # n_s trits, weight omega
    salt: np.ndarray       # salt_bits bits


def build_uuv_parity_check(H_U: np.ndarray, H_V: np.ndarray) -> np.ndarray:
    """[[H_U, 0], [-H_V, H_V]]: checks u in U and (second - first) in V."""
    rU, half = H_U.shape
    rV = H_V.shape[0]
    H = np.zeros((rU + rV, 2 * half), dtype=np.uint8)
    H[:rU, :half] = H_U
    H[rU:, :half] = (3 - H_V) % 3
    H[rU:, half:] = H_V
    return H


def sender_keys(H_U: np.ndarray, H_V: np.ndarray,
                P: Monomial) -> tuple[SenderSecretKey, SenderPublicKey]:
    """Both halves of the sender key (H_U, H_V, P).  Raises ValueError
    unless H_V has no zero column and the first r_s columns of H_sk·P are
    invertible.  The last rule makes H_sk, hence H_U and H_V, of full row
    rank."""
    # a zero column of H_V, hence of H_pk, makes a signature trit malleable
    if not H_V.any(axis=0).all():
        raise ValueError("H_V has a zero column")
    HP = mono_apply(build_uuv_parity_check(H_U, H_V), P, 3)
    r_s = len(HP)
    R, _, pivots = mat_reduce(HP, 3)
    if pivots != list(range(r_s)):
        raise ValueError("the first r_s columns of H_sk P are singular")
    sk = SenderSecretKey(H_U=H_U, H_V=H_V, P=P, solver_U=AffineSolver(H_U, 3),
                         solver_V=AffineSolver(H_V, 3))
    return sk, SenderPublicKey(A=R[:, r_s:])


def keygen_sender(n_s: int, k_U: int, k_V: int, rng):
    """Draws H_U, H_V and P until `sender_keys` accepts them.  Its rules
    are on the draws only, so the key is uniform on valid ones."""
    half = n_s // 2
    if n_s % 2 or not (0 < k_U < half and 0 < k_V < half):
        raise ValueError("need n_s even and 0 < k_U, k_V < n_s/2")
    while True:
        H_U = random_matrix(half - k_U, half, 3, rng)
        H_V = random_matrix(half - k_V, half, 3, rng)
        P = random_monomial(n_s, 3, rng)
        try:
            return sender_keys(H_U, H_V, P)
        except ValueError:
            continue


# The free value x, by the other half's trit at its coordinate (row) and
# by the interval of [0, 1) that one uniform falls in (column): [0, p/2),
# [p/2, p), [p, (1+p)/2) and [(1+p)/2, 1).  Below p the pair
# (x, x + other) has weight 2; from p on, the weight of `other` alone.
_FREE_TABLE = np.array([[1, 2, 0, 0], [1, 1, 2, 0], [2, 2, 1, 0]], dtype=np.uint8)


def _free_values(other: np.ndarray, p_two: float, rng) -> np.ndarray:
    """One free value x per trit of `other`: (x, x + other) has weight 2
    with probability p_two, and the weight of `other` otherwise."""
    edges = np.array([p_two / 2, p_two, (1 + p_two) / 2])
    return _FREE_TABLE[other, np.searchsorted(edges, rng.random(len(other)), "right")]


def uuv_decode(sk: SenderSecretKey, w: np.ndarray, omega: int, rng,
               max_attempts: int = 10_000) -> np.ndarray:
    """e with e @ H_sk.T = w @ H_sk.T and wt(e) = omega exactly."""
    n_s = sk.n_s
    if not 0 <= omega <= n_s:
        raise ValueError("omega out of range")
    w = np.asarray(w, dtype=np.uint8) % 3
    if len(w) != n_s:
        raise ValueError("word length mismatch")
    solver_U, solver_V = sk.solver_U, sk.solver_V
    w_U, w_V = w[:n_s // 2], (w[n_s // 2:] + 3 - w[:n_s // 2]) % 3
    zeros_V = np.zeros(len(solver_V.free), dtype=np.uint8)
    target = omega / n_s
    for _ in range(max_attempts):
        p = min(1.0, max(0.0, target + rng.normal(0.0, 0.15)))
        e_V = solver_V.solve(w_V, _free_values(zeros_V, p, rng))
        e1 = solver_U.solve(w_U, _free_values(e_V[solver_U.free], p, rng))
        e2 = (e1 + e_V) % 3
        e = np.concatenate([e1, e2]).astype(np.uint8)
        if int(np.count_nonzero(e)) == omega:
            return e
    raise RetryExhausted(f"no weight-{omega} solution in {max_attempts} attempts")


def sign_syndrome(sk: SenderSecretKey, y: np.ndarray, omega: int, rng) -> np.ndarray:
    """e with e @ [I | A].T = y and wt(e) = omega: P^-1, the decode, P."""
    w = np.concatenate([y, np.zeros(sk.n_s - sk.r_s, dtype=np.uint8)])
    return mono_apply(uuv_decode(sk, mono_apply_inv(w, sk.P, 3), omega, rng), sk.P, 3)


def verify_syndrome(pk: SenderPublicKey, e: np.ndarray, y: np.ndarray,
                    omega: int) -> bool:
    """Whether e has length n_s, weight omega, and e @ [I | A].T = y."""
    e = np.asarray(e, dtype=np.uint8) % 3
    r = pk.r_s
    return (len(e) == pk.n_s and int(np.count_nonzero(e)) == omega
            and bool(np.array_equal((e[:r] + vecmat(e[r:], pk.A.T, 3)) % 3, y)))


def sign(sk: SenderSecretKey, msg: bytes, omega: int, salt_bits: int, rng) -> Signature:
    salt = rng.integers(0, 2, size=salt_bits, dtype=np.uint8)
    e = sign_syndrome(sk, hash_trits([msg, salt], sk.r_s), omega, rng)
    return Signature(e=e, salt=salt)


def verify(pk: SenderPublicKey, msg: bytes, sig: Signature, omega: int) -> bool:
    return verify_syndrome(pk, sig.e, hash_trits([msg, sig.salt], pk.r_s), omega)
