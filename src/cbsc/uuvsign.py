"""Ternary (U, U+V) trapdoor signatures with prescribed high weight.

The secret parity check keeps the block shape [[H_U, 0], [-H_V, H_V]].
The trapdoor decodes a syndrome to an error (u, u + v) of exact weight
omega, retrying until the weight lands.  Each attempt draws p, omega/n
plus N(0, 0.15) noise clipped to [0, 1], and solves the V half and then
the U half with free variables from one sampler, `_free_values`: one
uniform per free coordinate, looked up in a table by the other half's
trit there (zero for the V half, v for the U half), gives the pair
(x, x + other) weight 2 with probability p and the weight of `other`
alone otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashes import hash_trits
from .linalg import (
    AffineSolver,
    Monomial,
    invert_matrix,
    mat_mono,
    matmul,
    mono_apply,
    random_matrix,
    random_monomial,
    vecmat,
)


class RetryExhausted(RuntimeError):
    """Weight target not reached within the retry budget."""


@dataclass
class SenderSecretKey:
    S: np.ndarray          # r_s x r_s invertible over GF(3)
    S_inv: np.ndarray
    H_sk: np.ndarray       # r_s x n_s, block (U, U+V) parity check
    P: Monomial            # monomial over GF(3)
    k_U: int
    k_V: int
    solver_U: AffineSolver  # for the H_U block, built with the key
    solver_V: AffineSolver  # for the H_V block

    @property
    def n_s(self) -> int:
        return self.H_sk.shape[1]

    @property
    def r_s(self) -> int:
        return self.H_sk.shape[0]


@dataclass
class SenderPublicKey:
    H: np.ndarray          # r_s x n_s over GF(3)

    @property
    def n_s(self) -> int:
        return self.H.shape[1]

    @property
    def r_s(self) -> int:
        return self.H.shape[0]


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


def sender_secret_key(S: np.ndarray, H_sk: np.ndarray, P: Monomial,
                      k_U: int, k_V: int) -> SenderSecretKey:
    """The secret key of (S, H_sk, P), with S^-1 and the H_U and H_V solvers.
    Raises ValueError unless H_sk is the (U, U+V) check of its blocks, H_V
    has no zero column, S is invertible and both blocks have full row rank."""
    half = H_sk.shape[1] // 2
    rU = half - k_U
    H_U, H_V = H_sk[:rU, :half], H_sk[rU:, half:]
    if not np.array_equal(H_sk, build_uuv_parity_check(H_U, H_V)):
        raise ValueError("H_sk is not the (U, U+V) parity check of its blocks")
    # a zero column of H_V, hence of H_pk, makes a signature trit malleable
    if not H_V.any(axis=0).all():
        raise ValueError("H_V has a zero column")
    S_inv = invert_matrix(S, 3)
    solver_U, solver_V = AffineSolver(H_U, 3), AffineSolver(H_V, 3)
    if solver_U.rank < solver_U.rows or solver_V.rank < solver_V.rows:
        raise ValueError("H_U or H_V does not have full row rank")
    return SenderSecretKey(S=S, S_inv=S_inv, H_sk=H_sk, P=P,
                           k_U=k_U, k_V=k_V, solver_U=solver_U, solver_V=solver_V)


def keygen_sender(n_s: int, k_U: int, k_V: int, rng):
    """Draws H_U, H_V, S and P until `sender_secret_key` accepts them.  Its
    rules are on independent parts, so each part is uniform on valid ones."""
    half = n_s // 2
    if n_s % 2 or not (0 < k_U < half and 0 < k_V < half):
        raise ValueError("need n_s even and 0 < k_U, k_V < n_s/2")
    r_s = n_s - k_U - k_V
    while True:
        H_U = random_matrix(half - k_U, half, 3, rng)
        H_V = random_matrix(half - k_V, half, 3, rng)
        S = random_matrix(r_s, r_s, 3, rng)
        P = random_monomial(n_s, 3, rng)
        try:
            sk = sender_secret_key(S, build_uuv_parity_check(H_U, H_V), P, k_U, k_V)
        except ValueError:
            continue
        return sk, SenderPublicKey(H=mat_mono(matmul(S, sk.H_sk, 3), P, 3))


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


def uuv_decode(sk: SenderSecretKey, s: np.ndarray, omega: int, rng,
               max_attempts: int = 10_000) -> np.ndarray:
    """e with e @ H_sk.T = s and wt(e) = omega exactly."""
    n_s = sk.n_s
    if not 0 <= omega <= n_s:
        raise ValueError("omega out of range")
    s = np.asarray(s, dtype=np.uint8) % 3
    if len(s) != sk.r_s:
        raise ValueError("syndrome length mismatch")
    solver_U, solver_V = sk.solver_U, sk.solver_V
    s_U, s_V = s[:solver_U.rows], s[solver_U.rows:]
    zeros_V = np.zeros(len(solver_V.free), dtype=np.uint8)
    target = omega / n_s
    for _ in range(max_attempts):
        p = min(1.0, max(0.0, target + rng.normal(0.0, 0.15)))
        # both blocks have full row rank, so neither solve returns None
        e_V = solver_V.solve(s_V, _free_values(zeros_V, p, rng))
        e1 = solver_U.solve(s_U, _free_values(e_V[solver_U.free], p, rng))
        e2 = (e1 + e_V) % 3
        e = np.concatenate([e1, e2]).astype(np.uint8)
        if int(np.count_nonzero(e)) == omega:
            return e
    raise RetryExhausted(f"no weight-{omega} solution in {max_attempts} attempts")


def sign_syndrome(sk: SenderSecretKey, y: np.ndarray, omega: int, rng) -> np.ndarray:
    """e with e @ H_pk.T = y and wt(e) = omega: S^-1, the trapdoor decode, P."""
    e_inner = uuv_decode(sk, vecmat(y, sk.S_inv.T, 3), omega, rng)
    return mono_apply(e_inner, sk.P, 3)


def verify_syndrome(pk: SenderPublicKey, e: np.ndarray, y: np.ndarray,
                    omega: int) -> bool:
    """Whether e has length n_s, weight omega, and e @ H_pk.T = y."""
    e = np.asarray(e, dtype=np.uint8) % 3
    return (len(e) == pk.n_s and int(np.count_nonzero(e)) == omega
            and bool(np.array_equal(vecmat(e, pk.H.T, 3), y)))


def sign(sk: SenderSecretKey, msg: bytes, omega: int, salt_bits: int, rng) -> Signature:
    salt = rng.integers(0, 2, size=salt_bits, dtype=np.uint8)
    e = sign_syndrome(sk, hash_trits([msg, salt], sk.r_s), omega, rng)
    return Signature(e=e, salt=salt)


def verify(pk: SenderPublicKey, msg: bytes, sig: Signature, omega: int) -> bool:
    return verify_syndrome(pk, sig.e, hash_trits([msg, sig.salt], pk.r_s), omega)
