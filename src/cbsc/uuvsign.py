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
Attempts run BATCH at a time, each half of a batch one solver product:
B values of p, then a B-row matrix of uniforms for v, then one for u.
The rows are independent attempts, each with the law of a lone attempt,
and the decoder returns the first row, in batch order, of weight omega.
The first success of independent attempts has the same law whether they
are drawn one at a time or in batches, so batching changes the
generator's consumption, not the law of a signature.

A sender secret key is what key generation draws, (H_U, H_V, P), and
H_sk is never formed: `hsk_p_columns` gathers the leading columns of
H_sk·P from it.  Its public key is the systematic form [I | A] of
H_sk·P, whose first r_s columns must be invertible;
`sender_secret_key` checks that rule for key generation and key loading
alike, on those columns alone.  The key builds its two solvers at its
first signature and keeps them, so neither key generation nor loading
reduces H_U or H_V.  [y | 0] has syndrome y under [I | A], so signing
decodes the coset of [y | 0]·P^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    AffineSolver,
    Monomial,
    _mod_small,
    mat_rank,
    mat_reduce,
    mono_apply,
    mono_apply_inv,
    random_matrix,
    random_monomial,
    vecmat,
)
from .params import CommonParams, ParameterError


class RetryExhausted(RuntimeError):
    """Weight target not reached within the retry budget."""


@dataclass
class SenderSecretKey:
    H_U: np.ndarray        # (n_s/2 - k_U) x n_s/2 over GF(3)
    H_V: np.ndarray        # (n_s/2 - k_V) x n_s/2 over GF(3)
    P: Monomial            # monomial over GF(3)

    @cached_property
    def solvers(self) -> tuple[AffineSolver, AffineSolver]:
        """The solvers of H_U and H_V, built at the first signature."""
        return AffineSolver(self.H_U, 3), AffineSolver(self.H_V, 3)


@dataclass
class SenderPublicKey:
    A: np.ndarray          # r_s x (n_s - r_s) over GF(3): H_pk = [I | A]


def hsk_p_columns(H_U: np.ndarray, H_V: np.ndarray, P: Monomial, count: int) -> np.ndarray:
    """The first `count` columns of H_sk·P, gathered from (H_U, H_V, P)
    without forming H_sk: column j is column P.inv[j] of H_sk times
    P.inv_scalars[j]."""
    r_U, half = H_U.shape
    cols, scalars = P.inv[:count], P.inv_scalars[:count]
    index, left = cols % half, (cols < half).astype(np.uint8)
    out = np.empty((r_U + len(H_V), count), dtype=np.uint8)
    # column c of H_sk is (H_U[:, c], -H_V[:, c]) on the left half and
    # (0, H_V[:, c - half]) on the right, and -1 = 2 over GF(3): one
    # multiplier per column and block, each below 3, so every product is
    # below 6.  The indices are in range, and mode="clip" writes straight
    # into `out`, where the default mode would buffer.
    for block, H, mult in ((out[:r_U], H_U, scalars * left),
                           (out[r_U:], H_V, scalars * (left + 1) % 3)):
        H.take(index, axis=1, out=block, mode="clip")
        block *= mult
    return _mod_small(out, 3)


_SINGULAR = "the first r_s columns of H_sk P are singular"


def sender_secret_key(H_U: np.ndarray, H_V: np.ndarray, P: Monomial) -> SenderSecretKey:
    """The secret key (H_U, H_V, P).  Raises ValueError unless H_V has no
    zero column and the first r_s columns of H_sk·P are invertible.  The
    last rule makes H_sk, hence H_U and H_V, of full row rank.  It is
    checked on that r_s x r_s square alone."""
    # a zero column of H_V, hence of H_pk, makes a signature trit malleable
    if not H_V.any(axis=0).all():
        raise ValueError("H_V has a zero column")
    r_s = len(H_U) + len(H_V)
    if mat_rank(hsk_p_columns(H_U, H_V, P, r_s), 3) != r_s:
        raise ValueError(_SINGULAR)
    return SenderSecretKey(H_U=H_U, H_V=H_V, P=P)


# draws of (H_U, H_V, P) that sender key generation makes before it gives up
KEYGEN_DRAWS = 1000


def keygen_sender(params: CommonParams, rng):
    """A sender key pair of the validated profile `params`: draws H_U,
    H_V and P until `sender_secret_key` accepts them, then reduces H_sk·P
    once for A, the R_free of its RREF [I | A], whose pivots are the
    first r_s columns.  The rules are on the draws only, so the key is
    uniform on valid ones.  Raises ParameterError after KEYGEN_DRAWS
    rejected draws: some profiles almost never make the first r_s
    columns of H_sk·P invertible."""
    half = params.n_s // 2
    for _ in range(KEYGEN_DRAWS):
        H_U = random_matrix(half - params.k_U, half, 3, rng)
        H_V = random_matrix(half - params.k_V, half, 3, rng)
        P = random_monomial(params.n_s, 3, rng)
        try:
            sk = sender_secret_key(H_U, H_V, P)
        except ValueError:
            continue
        _, _, A = mat_reduce(hsk_p_columns(H_U, H_V, P, params.n_s), 3)
        return sk, SenderPublicKey(A=A)
    raise ParameterError(f"no valid sender key in {KEYGEN_DRAWS} draws")


# The free value x, by the other half's trit at its coordinate (row) and
# by the interval of [0, 1) that one uniform falls in (column): [0, p/2),
# [p/2, p), [p, (1+p)/2) and [(1+p)/2, 1).  Below p the pair
# (x, x + other) has weight 2; from p on, the weight of `other` alone.
_FREE_TABLE = np.array([[1, 2, 0, 0], [1, 1, 2, 0], [2, 2, 1, 0]], dtype=np.uint8)

# decoding attempts per solver product, and per signature before
# RetryExhausted
BATCH = 32
SIGN_ATTEMPTS = 10_000


def _free_values(other: np.ndarray, p_two: float | np.ndarray, rng) -> np.ndarray:
    """One free value x per trit of `other`: (x, x + other) has weight 2
    with probability p_two, and the weight of `other` otherwise.  For a
    batch, `other` has one row per attempt and p_two one entry per row."""
    p = np.asarray(p_two)[..., None]
    u = rng.random(other.shape)
    # the flat index of _FREE_TABLE[other, interval], built in place
    index = other * np.uint8(4)
    index += u >= p / 2
    index += u >= p
    index += u >= (1 + p) / 2
    return _FREE_TABLE.take(index)


def _attempts(sk: SenderSecretKey, w: np.ndarray, p_two: np.ndarray, rng) -> np.ndarray:
    """One decoding attempt of the coset of w per entry of p_two, as the
    rows of e = (u, u + v): v in the coset of w2 - w1 under H_V, then u
    in that of w1 under H_U, each half's free values from one
    `_free_values` batch."""
    half = len(w) // 2
    solver_U, solver_V = sk.solvers
    w_U, w_V = w[:half], _mod_small(w[half:] + 3 - w[:half], 3)
    zeros_V = np.zeros((len(p_two), len(solver_V.free)), dtype=np.uint8)
    e_V = solver_V.solve(w_V, _free_values(zeros_V, p_two, rng))
    e1 = solver_U.solve(w_U, _free_values(e_V[:, solver_U.free], p_two, rng))
    return np.concatenate([e1, _mod_small(e1 + e_V, 3)], axis=1)


def uuv_decode(sk: SenderSecretKey, w: np.ndarray, omega: int, rng) -> np.ndarray:
    """e with e @ H_sk.T = w @ H_sk.T and wt(e) = omega exactly, for a
    reduced uint8 word w of length n_s and the omega of a validated
    profile.  The attempts run BATCH at a time and the first row of
    weight omega, in batch order, is returned; the last batch is cut so
    that exactly SIGN_ATTEMPTS attempts are made before RetryExhausted."""
    for done in range(0, SIGN_ATTEMPTS, BATCH):
        noise = rng.normal(0.0, 0.15, min(BATCH, SIGN_ATTEMPTS - done))
        e = _attempts(sk, w, np.clip(omega / len(w) + noise, 0.0, 1.0), rng)
        hits = np.flatnonzero(np.count_nonzero(e, axis=1) == omega)
        if len(hits):
            return e[hits[0]]
    raise RetryExhausted(f"no weight-{omega} solution in {SIGN_ATTEMPTS} attempts")


def sign_syndrome(sk: SenderSecretKey, y: np.ndarray, omega: int, rng) -> np.ndarray:
    """e with e @ [I | A].T = y and wt(e) = omega: P^-1, the decode, P."""
    w = np.concatenate([y, np.zeros(len(sk.P.perm) - len(y), dtype=np.uint8)])
    return mono_apply(uuv_decode(sk, mono_apply_inv(w, sk.P, 3), omega, rng), sk.P, 3)


def verify_syndrome(pk: SenderPublicKey, e: np.ndarray, y: np.ndarray,
                    omega: int) -> bool:
    """Whether e has length n_s, weight omega, and e @ [I | A].T = y."""
    e = np.asarray(e, dtype=np.uint8) % 3
    r = len(pk.A)
    # vecmat beats summing the columns of A that e selects, and a float32 A is 4x its size
    return (len(e) == r + pk.A.shape[1] and int(np.count_nonzero(e)) == omega
            and bool(np.array_equal((e[:r] + vecmat(e[r:], pk.A.T, 3)) % 3, y)))
