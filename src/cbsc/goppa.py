"""Binary irreducible Goppa codes: construction, Patterson decoding,
and receiver key generation with a permuted-subcode public key.

A `GoppaCode` builds its decoding material when it is constructed, so
key generation and key loading pay for it and decoding does not.  All
three tables are read-only numpy arrays:

- ``syndrome_matrix``, t x n over GF(2^m): column j holds the
  coefficients of 1/(x + alpha_j) mod g, the syndrome of the j-th unit
  word.  It is built for the whole support at once by synthetic
  division, since 1/(x + a) = g(a)^-1 (g(x) + g(a))/(x + a) mod g.
  Expanded to its mt x n bits it is a binary parity-check matrix whose
  kernel is the code.
- ``sqrt_table``, ceil(t/2) x t: the logs of sqrt(x) x^i mod g
  (`fields.poly_sqrt_table`), which make every square root in
  GF(2^m)[x]/(g) one gather and one XOR down the columns.
- ``root_table``, (t+1) x n int32: the logs of alpha_j^i, with the
  tables' zero sentinel where alpha_j = 0 and i > 0.

Patterson decoding is then one GF(2) matrix-vector product for the
syndrome (the XOR of the columns at the nonzero positions of the
word), the one Euclidean loop of `fields` (`fields.poly_euclid`, on
table arithmetic) for the inverse, stopped at the unit remainder, and
for the key equation, stopped at degree t/2, the square-root table for
the square root, and one gather from the root table for the roots of
the error locator.

Receiver key generation reduces the parity check of each drawn code
once, with `linalg.mat_reduce`, and loading a receiver secret key
reduces the loaded code's.  The code has dimension k_r exactly when
that RREF has k_r free columns, and `receiver_secret_key` builds the
public generator S·G·P from it without forming the generator G of
`generator_matrix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields as F
from .linalg import (
    Monomial,
    kernel_basis,
    mat_rank,
    mat_reduce,
    matmul,
    mono_apply,
    mono_apply_inv,
    pack_rows,
    random_matrix,
    random_permutation,
    unpack_rows,
)
from .params import CommonParams


class GoppaCode:
    """Irreducible Goppa code over GF(2) with support in GF(2^m).

    g is monic irreducible of degree t with coefficients in GF(2^m); the
    support holds n distinct field elements that are not roots of g.
    The constructor checks all of this except irreducibility, which
    key generation guarantees and key loading checks, then builds the
    read-only `syndrome_matrix`, `sqrt_table` and `root_table` of the
    module docstring; for a reducible g, x may have no square root and
    the constructor raises ZeroDivisionError.
    """

    def __init__(self, m: int, t: int, g: list[int], support: list[int]):
        q = 1 << m
        if F.poly_deg(g) != t or g[-1] != 1:
            raise ValueError("g must be monic of degree t")
        if any(not 0 <= c < q for c in g) or any(not 0 <= a < q for a in support):
            raise ValueError("coefficients and support must lie in GF(2^m)")
        if len(set(support)) != len(support):
            raise ValueError("support elements must be distinct")
        T = F.tables(m)
        exp, log = T.exp_np, T.log_np
        alpha = np.array(support, dtype=np.intp)
        la = log[alpha]
        # synthetic division of g(x) + g(a) by x + a, for every a at once
        quot = np.empty((t, len(support)), dtype=np.intp)
        b = np.ones(len(support), dtype=np.intp)
        for i in range(t - 1, -1, -1):
            quot[i] = b
            b = exp[log[b] + la] ^ g[i]
        if not b.all():                     # b = g(alpha)
            raise ValueError("support element is a root of g")
        self.m = m
        self.t = t
        self.n = len(support)
        self.g = list(g)
        self.support = list(support)
        self.syndrome_matrix = exp[log[quot] + (T.order - log[b])].astype(np.uint16)
        self.sqrt_table = F.poly_sqrt_table(self.g, m)
        roots = np.outer(np.arange(t + 1), la) % T.order
        roots[1:, alpha == 0] = log[0]
        self.root_table = roots.astype(np.int32)
        for table in (self.syndrome_matrix, self.sqrt_table, self.root_table):
            table.setflags(write=False)

    def syndrome_poly(self, word: np.ndarray) -> list[int]:
        """sum over the nonzero positions j of 1/(x + alpha_j) mod g."""
        cols = np.compress(np.asarray(word, dtype=np.uint8), self.syndrome_matrix, axis=1)
        return F.poly_trim(np.bitwise_xor.reduce(cols, axis=1).tolist())


def random_goppa_code(m: int, n: int, t: int, rng) -> GoppaCode:
    g = F.random_irreducible(t, m, rng)
    elems = np.nonzero(F.poly_eval_many(g, np.arange(1 << m), m))[0]
    idx = rng.choice(len(elems), size=n, replace=False)
    return GoppaCode(m, t, g, elems[idx].tolist())


def goppa_parity_check(code: GoppaCode) -> np.ndarray:
    """mt x n binary parity-check matrix; its right kernel is the code.

    This is the bit expansion of the syndrome matrix (bit b of
    coefficient i in row i*m + b).  Every parity-check matrix of the
    code has the same row space, so ranks and kernels computed from it
    do not depend on which one is used.
    """
    Y = code.syndrome_matrix
    bits = (Y[:, None, :] >> np.arange(code.m, dtype=np.uint16)[None, :, None]) & 1
    return bits.reshape(code.m * code.t, code.n).astype(np.uint8)


def generator_matrix(code: GoppaCode) -> np.ndarray:
    """k x n generator (k = n - mt for a full-rank parity check)."""
    return kernel_basis(goppa_parity_check(code), 2)


def _key_equation(g: list[int], R: list[int], t: int, m: int) -> tuple[list[int], list[int]]:
    # partial EEA: a = b*R mod g with deg a <= t//2, deg b <= (t-1)//2
    _, a, _, b = F.poly_euclid(g, R, t // 2, m)
    return a, b


def patterson_decode(code: GoppaCode, word: np.ndarray):
    """The error of weight at most t whose syndrome is the word's, or
    None.

    Error-locator construction: invert the syndrome S, split off x, take
    a square root in GF(2^m)[x]/(g), and solve the key equation for a
    and b; the locator is sigma = a^2 + x b^2.  In characteristic 2
    squaring a polynomial squares each coefficient, so sigma interleaves
    the squared coefficients of a (even powers) and of b (odd powers).
    b is never zero, so 1 <= deg sigma <= t, and sigma is accepted only
    when it has deg sigma roots alpha_j over the support; they are
    distinct, as the support is.  sigma(alpha_j) = XOR_i exp[log sigma_i
    + log alpha_j^i], the gather from the uint16 `exp_u16` at the logs
    of sigma plus the first deg sigma + 1 rows of the root table, XORed
    down the columns: a zero coefficient or a zero alpha_j^i sums to an
    index at or past the zero sentinel, where exp is 0.

    An accepted sigma locates an error of syndrome S, so the syndrome is
    not checked again: with a = b R and R^2 = 1/S + x (mod g), sigma =
    a^2 + x b^2 = b^2 / S (mod g) and sigma' = b^2, so sigma' = sigma S
    (mod g).  For sigma = c prod (x - alpha_j), sigma' / sigma = sum
    1/(x - alpha_j), the syndrome of the error, which therefore is S.
    Words beyond distance t fail cleanly or decode to a codeword within
    distance t.
    """
    word = np.asarray(word, dtype=np.uint8) % 2
    if len(word) != code.n:
        raise ValueError("word length mismatch")
    m, t = code.m, code.t
    S = code.syndrome_poly(word)
    if not S:
        return np.zeros(code.n, dtype=np.uint8)
    R2 = F.poly_add(F.poly_inv_mod(S, code.g, m), [0, 1])
    a, b = _key_equation(code.g, F.poly_sqrt_mod(R2, code.g, m, code.sqrt_table), t, m)
    T = F.tables(m)
    sigma = [0] * max(2 * len(a) - 1, 2 * len(b))
    sigma[0:2 * len(a):2] = [T.exp[2 * T.log[c]] for c in a]
    sigma[1:2 * len(b):2] = [T.exp[2 * T.log[c]] for c in b]
    log_sigma = np.array([T.log[c] for c in sigma], dtype=np.int32)
    values = T.exp_u16.take(log_sigma[:, None] + code.root_table[:len(sigma)])
    error = (np.bitwise_xor.reduce(values, axis=0) == 0).astype(np.uint8)
    if int(error.sum()) != F.poly_deg(sigma):
        return None
    return error


# ---------------------------------------------------------------------------
# receiver keys (permuted Goppa subcode)

@dataclass
class ReceiverPublicKey:
    G_rows: np.ndarray     # pack_rows(S·G·P): k-tilde rows of uint64 words
    n: int                 # n_r, the columns of S·G·P

    @property
    def G(self) -> np.ndarray:
        """S·G·P as a k-tilde x n_r 0/1 matrix, unpacked on each read."""
        return unpack_rows(self.G_rows, self.n)


@dataclass
class ReceiverSecretKey:
    code: GoppaCode
    S: np.ndarray          # k-tilde x k_r, full row rank
    P: Monomial            # permutation on n_r coordinates
    pk: ReceiverPublicKey  # the public key, S·G·P, for re-encryption checks


def keygen_receiver(params: CommonParams, rng):
    """A receiver key pair of the validated profile `params`."""
    while True:
        # the parity check has full rank mt exactly when the code has
        # dimension n - mt, the number of free columns of its RREF
        code = random_goppa_code(params.m, params.n_r, params.t, rng)
        rref = mat_reduce(goppa_parity_check(code), 2)
        if len(rref[1]) == params.k_r:
            break
    while True:  # redraw S and P until the key is valid
        S = random_matrix(params.k_tilde, params.k_r, 2, rng)
        try:
            sk = receiver_secret_key(code, rref, S, random_permutation(params.n_r, rng))
        except ValueError:
            continue
        return sk, sk.pk


def receiver_secret_key(code: GoppaCode, rref: tuple, S: np.ndarray,
                        P: Monomial) -> ReceiverSecretKey:
    """The secret key of (code, S, P), with its public key, the packed
    rows of S·G·P, where G is the generator of the code.  `rref` is the
    `mat_reduce` triple (pivots, free, R_free) of the code's parity
    check.  Raises ValueError unless S has one column per free column
    and full row rank.

    G, the `generator_matrix` of the code, is never built: it is the
    identity on the free columns and R_free transposed on the pivot
    columns, so S·G with its columns in the order (free, pivots) is
    [S | S·R_free^T], and the mt pivot columns take the one product.
    Putting the columns back in order and then applying P is one
    permutation, so one gather makes S·G·P.
    """
    pivots, free, R_free = rref
    if len(free) != S.shape[1]:
        raise ValueError(f"code has dimension {len(free)}, S has {S.shape[1]} columns")
    if mat_rank(S, 2) != len(S):
        raise ValueError("S does not have full row rank")
    order = free.tolist() + pivots
    SG = np.concatenate([S, matmul(S, R_free.T, 2)], axis=1)
    SGP = mono_apply(SG, Monomial(P.perm[order], P.scalars[order]), 2)
    return ReceiverSecretKey(code, S, P, ReceiverPublicKey(pack_rows(SGP), code.n))


def decode_permuted(sk: ReceiverSecretKey, word: np.ndarray):
    """The error of a word of the permuted subcode, in public coordinates,
    or None: un-permute, Patterson-decode, map the error back.  The
    codeword is the word XOR this error."""
    error = patterson_decode(sk.code, mono_apply_inv(word, sk.P, 2))
    return None if error is None else mono_apply(error, sk.P, 2)
