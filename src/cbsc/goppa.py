"""Binary irreducible Goppa codes: construction, Patterson decoding,
and receiver key generation with a permuted-subcode public key.

A `GoppaCode` builds its decoding material when it is constructed, so
key generation and key loading pay for it and decoding does not:

- the syndrome matrix, t x n over GF(2^m): column j holds the
  coefficients of 1/(x + alpha_j) mod g, the syndrome of the j-th unit
  word.  It is built for the whole support at once by synthetic
  division, since 1/(x + a) = g(a)^-1 (g(x) + g(a))/(x + a) mod g.
  Expanded to its mt x n bits it is a binary parity-check matrix whose
  kernel is the code.
- ``sqrt_x``, the square root of x modulo g, which turns every square
  root in GF(2^m)[x]/(g) into one multiply and one reduction.

Patterson decoding is then one GF(2) matrix-vector product for the
syndrome (the XOR of the columns at the nonzero positions of the
word), the extended Euclidean algorithm on table arithmetic for the
inverse and the key equation, and one numpy Horner pass over the
support for the roots of the error locator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields as F
from .linalg import (
    Monomial,
    kernel_basis,
    mat_mono,
    mat_rank,
    matmul,
    mono_apply,
    mono_apply_inv,
    random_full_rank,
    random_permutation,
)


class GoppaCode:
    """Irreducible Goppa code over GF(2) with support in GF(2^m).

    g is monic irreducible of degree t with coefficients in GF(2^m); the
    support holds n distinct field elements that are not roots of g.
    The constructor checks all of this except irreducibility, which
    key generation guarantees and key loading checks, then builds
    `syndrome_matrix` (read-only, t x n) and `sqrt_x`.
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
        self._alpha = alpha
        self.syndrome_matrix = exp[log[quot] + (T.order - log[b])].astype(np.uint16)
        self.syndrome_matrix.setflags(write=False)
        self.sqrt_x = F.poly_sqrt_x(self.g, m)

    def syndrome_poly(self, word: np.ndarray) -> list[int]:
        """sum over the nonzero positions j of 1/(x + alpha_j) mod g."""
        cols = np.compress(np.asarray(word, dtype=np.uint8), self.syndrome_matrix, axis=1)
        return F.poly_trim(np.bitwise_xor.reduce(cols, axis=1).tolist())


def random_goppa_code(m: int, n: int, t: int, rng) -> GoppaCode:
    if n > (1 << m):
        raise ValueError("support cannot exceed field size")
    g = F.random_irreducible(t, m, rng)
    elems = np.nonzero(F.poly_eval_many(g, np.arange(1 << m), m))[0]
    if len(elems) < n:
        raise ValueError("not enough non-root support elements")
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
    r0, r1 = list(g), list(R)
    u0, u1 = [], [1]
    while F.poly_deg(r1) > t // 2:
        q, rem = F.poly_divmod(r0, r1, m)
        r0, r1 = r1, rem
        u0, u1 = u1, F.poly_add(u0, F.poly_mul(q, u1, m))
    return r1, u1


def patterson_decode(code: GoppaCode, word: np.ndarray):
    """Correct up to t errors. Returns (codeword, error) or None.

    Error-locator construction: invert the syndrome, split off x, take a
    square root in GF(2^m)[x]/(g), and solve the key equation; roots of
    sigma over the support mark error positions.  The result is verified
    by re-checking the syndrome, so inputs beyond distance t fail cleanly.
    """
    word = np.asarray(word, dtype=np.uint8) % 2
    if len(word) != code.n:
        raise ValueError("word length mismatch")
    m, t = code.m, code.t
    S = code.syndrome_poly(word)
    if not S:
        return word.copy(), np.zeros(code.n, dtype=np.uint8)
    T = F.poly_inv_mod(S, code.g, m)
    R2 = F.poly_add(T, [0, 1])
    if not R2:
        sigma = [0, 1]
    else:
        R = F.poly_sqrt_mod(R2, code.g, m, code.sqrt_x)
        a, b = _key_equation(code.g, R, t, m)
        a2 = F.poly_mul(a, a, m)
        b2 = F.poly_mul(b, b, m)
        sigma = F.poly_add(a2, F.poly_mul([0, 1], b2, m))
    if not sigma:
        return None
    error = (F.poly_eval_many(sigma, code._alpha, m) == 0).astype(np.uint8)
    nroots = int(error.sum())
    if nroots == 0 or nroots > t or nroots != F.poly_deg(sigma):
        return None
    corrected = word ^ error
    if code.syndrome_poly(corrected):
        return None
    return corrected, error


# ---------------------------------------------------------------------------
# receiver keys (permuted Goppa subcode)

@dataclass
class ReceiverSecretKey:
    code: GoppaCode
    S: np.ndarray          # k-tilde x k_r, full rank
    P: Monomial            # permutation on n_r coordinates
    G_sk: np.ndarray       # k_r x n_r generator of the Goppa code
    G_pk: np.ndarray       # public generator, kept for re-encryption checks

    @property
    def k_tilde(self) -> int:
        return self.S.shape[0]


@dataclass
class ReceiverPublicKey:
    G: np.ndarray          # k-tilde x n_r

    @property
    def k_tilde(self) -> int:
        return self.G.shape[0]

    @property
    def n(self) -> int:
        return self.G.shape[1]


def keygen_receiver(m: int, n_r: int, t: int, k_tilde: int, rng):
    k_r = n_r - m * t
    if n_r > (1 << m):
        raise ValueError("n_r exceeds field size")
    if not 1 <= k_tilde <= k_r:
        raise ValueError("need 1 <= k_tilde <= n_r - m*t")
    while True:
        code = random_goppa_code(m, n_r, t, rng)
        if mat_rank(goppa_parity_check(code), 2) == m * t:
            break
    G_sk = generator_matrix(code)
    S = random_full_rank(k_tilde, k_r, 2, rng)
    P = random_permutation(n_r, rng)
    G_pk = mat_mono(matmul(S, G_sk, 2), P, 2)
    sk = ReceiverSecretKey(code=code, S=S, P=P, G_sk=G_sk, G_pk=G_pk)
    return sk, ReceiverPublicKey(G=G_pk)


def decode_permuted(sk: ReceiverSecretKey, word: np.ndarray):
    """Decode a word of the permuted subcode: un-permute, Patterson-decode,
    re-permute the error back to public coordinates."""
    inner = mono_apply_inv(word, sk.P, 2)
    res = patterson_decode(sk.code, inner)
    if res is None:
        return None
    codeword, error = res
    return mono_apply(codeword, sk.P, 2), mono_apply(error, sk.P, 2)
