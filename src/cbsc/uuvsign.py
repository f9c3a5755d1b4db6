"""Ternary (U, U+V) trapdoor signatures with prescribed high weight.

The secret parity check keeps the block shape [[H_U, 0], [-H_V, H_V]];
the trapdoor decodes a syndrome to an error of exact weight omega by
solving the V half first and then steering the free variables of the U
half toward the weight target, retrying until it lands exactly.
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
    random_full_rank,
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
    """The secret key of (S, H_sk, P), with S^-1 and the solvers of the
    H_U and H_V blocks.  Raises ValueError if S is not invertible."""
    half = H_sk.shape[1] // 2
    rU = half - k_U
    return SenderSecretKey(S=S, S_inv=invert_matrix(S, 3), H_sk=H_sk, P=P,
                           k_U=k_U, k_V=k_V,
                           solver_U=AffineSolver(H_sk[:rU, :half], 3),
                           solver_V=AffineSolver(H_sk[rU:, half:], 3))


def keygen_sender(n_s: int, k_U: int, k_V: int, rng):
    if n_s % 2:
        raise ValueError("n_s must be even")
    half = n_s // 2
    if not (0 < k_U < half and 0 < k_V < half):
        raise ValueError("need 0 < k_U, k_V < n_s/2")
    H_U = random_full_rank(half - k_U, half, 3, rng)
    # a zero column of H_V is a zero column of H_pk, where a signature
    # trit could change without changing its weight or its syndrome
    H_V = random_full_rank(half - k_V, half, 3, rng)
    while not H_V.any(axis=0).all():
        H_V = random_full_rank(half - k_V, half, 3, rng)
    H_sk = build_uuv_parity_check(H_U, H_V)
    r_s = n_s - k_U - k_V
    S = random_full_rank(r_s, r_s, 3, rng)
    P = random_monomial(n_s, 3, rng)
    H_pk = mat_mono(matmul(S, H_sk, 3), P, 3)
    return sender_secret_key(S, H_sk, P, k_U, k_V), SenderPublicKey(H=H_pk)


def _steered_free_values(solver: AffineSolver, e_other: np.ndarray,
                         p_two: float, rng) -> np.ndarray:
    # pick each free variable to contribute 2 to the weight with prob p_two
    vals = np.zeros(len(solver.free), dtype=np.uint8)
    for k, i in enumerate(solver.free):
        other = int(e_other[i])
        if rng.random() < p_two:
            if other == 0:
                vals[k] = rng.integers(1, 3)
            else:
                # nonzero and not cancelling the second half
                vals[k] = next(v for v in (1, 2) if (v + other) % 3 != 0)
        else:
            vals[k] = 0 if other == 0 else (0, (3 - other) % 3)[rng.integers(0, 2)]
    return vals


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
    target = omega / n_s
    for _ in range(max_attempts):
        p = min(1.0, max(0.0, target + rng.normal(0.0, 0.15)))
        fv = (rng.integers(1, 3, size=len(solver_V.free), dtype=np.uint8)
              * (rng.random(len(solver_V.free)) < p)).astype(np.uint8)
        e_V = solver_V.solve(s_V, fv)
        if e_V is None:
            raise RetryExhausted("V system inconsistent")
        e1 = solver_U.solve(s_U, _steered_free_values(solver_U, e_V, p, rng))
        if e1 is None:
            raise RetryExhausted("U system inconsistent")
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
