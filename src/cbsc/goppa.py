"""Binary irreducible Goppa codes: construction, decoding by
Berlekamp-Massey, Patterson's decoder as the reference, and receiver key
generation with a permuted-subcode public key.

A `GoppaCode` builds its decoding material when it is constructed, so
key generation and key loading pay for it and decoding does not.  A
code holds two tables, both read-only numpy arrays; every field element
in them comes from a gather from the one antilog array,
`fields.Tables.exp_u16`, and g(alpha_j) comes from the code's own table
of the logs of alpha_j^i, i <= t, by the gather that also finds the
roots of an error locator (`_at_support`):

- ``alternant_table``, n x 2t uint16: row j holds alpha_j^i /
  g(alpha_j)^2, i < 2t, with 0^0 = 1.  For a square-free g the binary
  codes Gamma(L, g) and Gamma(L, g^2) are equal, so its transpose is a
  parity check of the code as the alternant code of g^2, with 2t
  syndromes.  It is held by rows, one per support element, because a
  syndrome gathers whole rows, which takes less than half the time of
  gathering the same columns of the 2t x n matrix at n = 3488.
- ``root_table``, (t+1) x n int32: the logs of alpha_j^i, with the
  tables' zero sentinel where alpha_j = 0 and i > 0.

``sqrt_table``, ceil(t/2) x t, is built at the first Patterson decoding
of the code: the logs of sqrt(x) x^i mod g (`fields.poly_sqrt_table`),
which make every square root in GF(2^m)[x]/(g) one gather and one XOR
down the columns.

The binary parity check, `goppa_parity_check`, is the bit expansion of
the even columns of the alternant table, alpha_j^(2i) / g(alpha_j)^2 =
(alpha_j^i / g(alpha_j))^2 for i < t: mt rows, as many as the textbook
check of the rows alpha_j^i / g(alpha_j) has.  On a binary word e the
syndromes of the even columns are the squares of the textbook ones, and
every GF(2)-linear form on GF(2^m) is a trace Tr(lambda z), with
Tr(lambda z^2) = Tr(sqrt(lambda) z); so the two bit expansions have the
same row space, hence the same kernel and the same reduced row echelon
form, from which key generation builds S·G·P.

The scheme decodes with `bm_decode`, as McBits does (Bernstein, Chou
and Schwabe, CHES 2013): the XOR of the alternant rows at the
nonzero positions of the word gives its 2t syndromes, Berlekamp-Massey
(Massey, IEEE Trans. IT 1969) on the field's log/antilog lists gives
the error locator, of length at most t on every word as g is
irreducible, one gather from the root table finds its roots, and one
XOR of their rows checks the syndrome, which is the decoder's one
failure exit.

`patterson_decode` is kept as the reference that tests compare
`bm_decode` against.  Its syndrome S(x) = sum 1/(x + alpha_j) mod g
comes from the word's 2t alternant syndromes s_i (`syndrome_poly`):
u_i = sqrt(s_2i), i < t, are the textbook syndromes sum alpha_j^i /
g(alpha_j), and as 1/(x + a) = (g(x) + g(a)) / ((x + a) g(a)) mod g,
S_l = sum over k > l of g_k u_(k-l-1), a polynomial of degree < t, so
one t x t gather gives S(x) with no reduction.  This derivation leaves
`src` with Patterson.  Patterson then runs the one Euclidean loop of
`fields` (`fields.poly_euclid`, on table arithmetic) for the inverse,
stopped at the unit remainder, and for the key equation, stopped at
degree t/2, the square-root table for the square root of R^2 = 1/S + x,
taken unreduced as its degree is at most t, and one gather from the
root table for the roots of the error locator.

A receiver secret key is valid exactly when `receiver_secret_key`
accepts its fields, g, the support, S and P: it builds the code, checks
that g is irreducible and then applies `_receiver_key`'s rules, and key
loading calls it on a file's fields.  Key generation draws a code, with
an irreducible g, S and P until `_receiver_key` accepts them.  Both
reduce the code's parity check once, with `linalg.mat_reduce`: the code
has dimension k_r exactly when that RREF has k_r free columns.  The code's
generator G is the identity on those free columns and R_free transposed
on the pivot columns, which is how `generator_matrix` reads it off the
RREF.  Key generation builds the public generator S·G·P from the same
RREF without forming G, and the public key holds it as
`linalg.pack_rows` bytes.  The secret key holds no copy of it: S·G·P
is S on the information set P.perm[free], which is all that the
re-encryption check of `mceliece.pke_decrypt` reads.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass

import numpy as np

from . import fields as F
from .linalg import (
    Monomial,
    mat_rank,
    mat_reduce,
    matmul,
    mono_apply,
    mono_apply_inv,
    pack_rows,
    random_matrix,
    random_monomial,
    unpack_rows,
)
from .params import CommonParams


class GoppaCode:
    """Irreducible Goppa code over GF(2) with support in GF(2^m).

    g is monic irreducible of degree t with coefficients in GF(2^m); the
    support holds n distinct field elements that are not roots of g.
    The constructor checks all of this except irreducibility, which
    `random_goppa_code` draws and `receiver_secret_key` checks, then
    builds the code's two read-only tables, `alternant_table` and
    `root_table`, of the module docstring; `sqrt_table` waits for
    Patterson.
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
        exp, log = T.exp_u16, T.log_np
        alpha = np.array(support, dtype=np.intp)
        # the logs of alpha_j^i, i < 2t; the first t + 1 <= 2t rows are
        # the root table
        powers = np.outer(np.arange(2 * t, dtype=np.int32), log[alpha].astype(np.int32)) % T.order
        powers[1:, alpha == 0] = log[0]
        g_alpha = _at_support(T, log[g], powers)
        if not g_alpha.all():
            raise ValueError("support element is a root of g")
        self.m = m
        self.t = t
        self.n = len(support)
        self.g = list(g)
        self.support = list(support)
        self.root_table = powers[:t + 1].copy()  # not a view that keeps all 2t rows
        self.alternant_table = np.ascontiguousarray(
            exp[powers + ((-2 * log[g_alpha]) % T.order).astype(np.int32)].T)
        for table in (self.alternant_table, self.root_table):
            table.setflags(write=False)

    @functools.cached_property
    def sqrt_table(self) -> np.ndarray:
        """`fields.poly_sqrt_table` of g, for Patterson only.  For a
        reducible g, x may have no square root and this raises
        ZeroDivisionError."""
        table = F.poly_sqrt_table(self.g, self.m)
        table.setflags(write=False)
        return table

    def syndrome_poly(self, word: np.ndarray) -> list[int]:
        """sum over the nonzero positions j of 1/(x + alpha_j) mod g,
        from the square roots u_i of the word's even alternant syndromes
        (module docstring), for Patterson only."""
        rows = self.alternant_table.take(np.flatnonzero(word), axis=0)
        T, t = F.tables(self.m), self.t
        log_u = [T.log[T.sqrt[s]] for s in np.bitwise_xor.reduce(rows, axis=0)[::2].tolist()]
        # row l of the gather holds the logs of g_(l+1+i), i < t, zero past g_t
        log_g = T.log_np[self.g[1:] + [0] * t][np.add.outer(np.arange(t), np.arange(t))]
        return F.poly_trim(np.bitwise_xor.reduce(T.exp_u16[log_g + log_u], axis=1).tolist())


def _at_support(T: F.Tables, log_p: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The values p(alpha_j) at a code's support, as uint16, of the
    polynomial p whose coefficients have the logs log_p, from the first
    len(log_p) rows of `powers`, the logs of alpha_j^i: XOR_i exp[log
    p_i + log alpha_j^i], one gather from `exp_u16` XORed down the
    columns.  A zero coefficient or a zero alpha_j^i sums to an index at
    or past the zero sentinel, where exp is 0."""
    return np.bitwise_xor.reduce(T.exp_u16.take(log_p[:, None] + powers[:len(log_p)]), axis=0)


def random_goppa_code(m: int, n: int, t: int, rng) -> GoppaCode:
    """A code with an irreducible g of degree t drawn by
    `fields.random_irreducible` and n support elements drawn from the
    field without g's roots: g has none for t >= 2, and x + g_0 has
    g_0."""
    g = F.random_irreducible(t, m, rng)
    elems = np.arange(1 << m)
    if t == 1:
        elems = np.delete(elems, g[0])
    idx = rng.choice(len(elems), size=n, replace=False)
    return GoppaCode(m, t, g, elems[idx].tolist())


def goppa_parity_check(code: GoppaCode) -> np.ndarray:
    """mt x n binary parity-check matrix; its right kernel is the code.

    This is the bit expansion of the even columns of the alternant
    table, alpha_j^(2i) / g(alpha_j)^2 for i < t (bit b of column 2i in
    row i*m + b).  Its row space is that of the textbook check
    alpha_j^i / g(alpha_j) (module docstring), so its rank, kernel and
    reduced row echelon form are the textbook ones.
    """
    # expanding a contiguous copy is about 4x faster than expanding the
    # strided view at n = 3488
    Y = np.ascontiguousarray(code.alternant_table[:, ::2].T)
    # one bit plane at a time, straight into uint8: no t x m x n uint16
    # temporaries (5.4 MB each at paper-l1)
    bits = np.empty((code.t, code.m, code.n), dtype=np.uint8)
    for b in range(code.m):
        np.bitwise_and(Y >> b, 1, out=bits[:, b], casting="unsafe")
    return bits.reshape(code.m * code.t, code.n)


def generator_matrix(code: GoppaCode) -> np.ndarray:
    """The k x n generator of the code, read off the RREF (pivots, free,
    R_free) of its parity check: the identity on the free columns and
    R_free transposed on the pivot columns, as -x = x over GF(2).  k is
    n minus the rank of the parity check, n - mt when it has full rank.
    Key generation and loading never build it (`receiver_secret_key`)."""
    pivots, free, R_free = mat_reduce(goppa_parity_check(code), 2)
    G = np.zeros((len(free), code.n), dtype=np.uint8)
    G[np.arange(len(free)), free] = 1
    G[:, pivots] = R_free.T
    return G


def _key_equation(g: list[int], R: list[int], m: int) -> tuple[list[int], list[int]]:
    # partial EEA: a = b*R mod g with deg a <= t//2, deg b <= (t-1)//2,
    # for g of degree t
    _, a, _, b = F.poly_euclid(g, R, (len(g) - 1) // 2, m)
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
    distinct, as the support is.  sigma(alpha_j) is `_at_support` of the
    logs of sigma and the root table.

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
    m = code.m
    S = code.syndrome_poly(word)
    if not S:
        return np.zeros(code.n, dtype=np.uint8)
    R2 = F.poly_add(F.poly_inv_mod(S, code.g, m), [0, 1])
    a, b = _key_equation(code.g, F.poly_sqrt_mod(R2, m, code.sqrt_table), m)
    T = F.tables(m)
    sigma = [0] * max(2 * len(a) - 1, 2 * len(b))
    sigma[0:2 * len(a):2] = [T.exp[2 * T.log[c]] for c in a]
    sigma[1:2 * len(b):2] = [T.exp[2 * T.log[c]] for c in b]
    log_sigma = np.array([T.log[c] for c in sigma], dtype=np.int32)
    error = (_at_support(T, log_sigma, code.root_table) == 0).astype(np.uint8)
    if int(error.sum()) != F.poly_deg(sigma):
        return None
    return error


def bm_decode(code: GoppaCode, word: np.ndarray):
    """The error of weight at most t whose syndrome is the word's, or
    None; the decoder of the scheme, with `patterson_decode`'s contract.

    The 2t syndromes s_i = sum over the nonzero positions j of alpha_j^i
    / g(alpha_j)^2 are the XOR of the word's rows of `alternant_table`.
    For an error of weight w <= t they form a sequence of linear
    complexity w whose connection polynomial is
    Lambda(x) = prod (1 - alpha_j x), so Berlekamp-Massey on 2t terms
    finds it, with its length L = w.  The locator sigma(x) = x^L
    Lambda(1/x) = prod (x - alpha_j) then has the error positions as its
    roots, alpha_j = 0 included, where Lambda has degree L - 1.  Its
    values at the support are `_at_support` of its logs and the first
    L + 1 rows of the root table, as in `patterson_decode`.

    L <= t holds for every word, not only within distance t, as g is
    irreducible.  With S the word's syndrome modulo g, Patterson's
    locator tau = a^2 + x b^2 has degree at most t and tau S = tau'
    (mod g), and the word's own locator w = A^2 + x B^2, the product of
    x - alpha_j over its nonzero positions, has w S = w' (mod g).  So g
    divides tau w' + tau' w = (a B + b A)^2, hence g^2 does, and tau is
    a locator of the word's syndrome modulo g^2: x^(t - deg tau) tau is
    a connection polynomial of length t of the 2t alternant syndromes,
    and Berlekamp-Massey returns the least length.  The gather thus
    stays within the root table's t + 1 rows.

    Beyond distance t a locator does not certify itself: its roots can
    fit the syndromes with weights other than 1/g(alpha)^2.  So the
    located error is returned only when its syndrome, the XOR of its
    rows, is the word's, which is the one way to return None; the error
    then has weight at most deg sigma = L <= t, and is the word's unique
    such error.
    """
    word = np.asarray(word, dtype=np.uint8) % 2
    if len(word) != code.n:
        raise ValueError("word length mismatch")
    H = code.alternant_table
    syndrome = np.bitwise_xor.reduce(H.take(np.flatnonzero(word), axis=0), axis=0)
    T = F.tables(code.m)
    exp, log, order = T.exp, T.log, T.order
    s = syndrome.tolist()
    log_s = [log[x] for x in s]
    # C is the connection polynomial, B the one before the last change of
    # the length L, and log_b the log of the discrepancy at that change
    C, B, L, shift, log_b = [1], [1], 0, 1, 0
    for k, d in enumerate(s):
        for c, ls in zip(C[1:], reversed(log_s[:k])):
            d ^= exp[log[c] + ls]
        if not d:
            shift += 1
            continue
        lq = log[d] - log_b
        if lq < 0:
            lq += order
        new = C + [0] * (len(B) + shift - len(C))
        for i, x in enumerate(B, shift):
            new[i] ^= exp[lq + log[x]]
        if 2 * L <= k:
            B, L, shift, log_b = C, k + 1 - L, 1, log[d]
        else:
            shift += 1
        C = new
    log_sigma = np.array([log[c] for c in (C + [0] * L)[L::-1]], dtype=np.int32)
    error = (_at_support(T, log_sigma, code.root_table) == 0).astype(np.uint8)
    located = np.bitwise_xor.reduce(H.take(np.flatnonzero(error), axis=0), axis=0)
    return error if np.array_equal(located, syndrome) else None


# ---------------------------------------------------------------------------
# receiver keys (permuted Goppa subcode)

@dataclass
class ReceiverPublicKey:
    G_rows: np.ndarray     # pack_rows(S·G·P): k-tilde rows of ceil(n_r/8) bytes
    n: int                 # n_r, the columns of S·G·P

    @property
    def G(self) -> np.ndarray:
        """S·G·P as a k-tilde x n_r 0/1 matrix, unpacked on each read."""
        return unpack_rows(self.G_rows, self.n)


@dataclass
class ReceiverSecretKey:
    """What a receiver secret key file holds, the code, S and P, and the
    information set of S·G·P.  S is held once, as the packed rows that
    the re-encryption check XORs; `unpack_rows(S_rows, len(info))` gives
    it back as a k-tilde x k_r 0/1 matrix, for the file."""
    code: GoppaCode
    S_rows: np.ndarray     # pack_rows(S): S is k-tilde x k_r, full row rank
    P: Monomial            # permutation on n_r coordinates
    info: np.ndarray       # P.perm[free]: the k_r columns on which S·G·P is S


def keygen_receiver(params: CommonParams, rng):
    """A receiver key pair of the validated profile `params`: draws a
    code, S and P, in that order, until `_key_pair` accepts them.  Each
    of its rules is on one of the three alone, so the key is uniform on
    valid ones; a rejected draw consumes all three.
    `random_goppa_code` draws g irreducible, so g is not tested again,
    as `receiver_secret_key` tests a loaded one."""
    while True:
        code = random_goppa_code(params.m, params.n_r, params.t, rng)
        S = random_matrix(params.k_tilde, params.k_r, 2, rng)
        with contextlib.suppress(ValueError):
            return _key_pair(code, S, random_monomial(params.n_r, 2, rng))


def _key_pair(code: GoppaCode, S: np.ndarray, P: Monomial):
    """The secret key of (code, S, P) and its public key S·G·P, from the
    one reduction of `_receiver_key`, which raises ValueError unless the
    key is valid.  G, the `generator_matrix` of the code, is never built:
    it is the identity on the free columns and R_free transposed on the
    pivot columns, so S·G is S on the free columns and S·R_free^T, the
    one product, on the mt pivot columns, and P moves column j to column
    P.perm[j]."""
    sk, (pivots, _, R_free) = _receiver_key(code, S, P)
    SGP = np.empty((len(S), code.n), dtype=np.uint8)
    SGP[:, sk.info] = S
    SGP[:, P.perm[pivots]] = matmul(S, R_free.T, 2)
    return sk, ReceiverPublicKey(pack_rows(SGP), code.n)


def _receiver_key(code: GoppaCode, S: np.ndarray, P: Monomial):
    """The secret key of (code, S, P) and the RREF (pivots, free, R_free)
    of the code's parity check, reduced here once.  It raises ValueError
    unless the code has dimension S.shape[1], that is unless the RREF has
    one free column per column of S, and unless S has full row rank.  g
    is taken to be irreducible: keygen draws it so, and
    `receiver_secret_key` checks a loaded one."""
    rref = mat_reduce(goppa_parity_check(code), 2)
    if len(rref[1]) != S.shape[1]:
        raise ValueError(f"code has dimension {len(rref[1])}, S has {S.shape[1]} columns")
    if mat_rank(S, 2) != len(S):
        raise ValueError("S does not have full row rank")
    return ReceiverSecretKey(code, pack_rows(S), P, P.perm[rref[1]]), rref


def receiver_secret_key(m: int, t: int, g: list[int], support: list[int],
                        S: np.ndarray, P: Monomial) -> ReceiverSecretKey:
    """The secret key of a key file's fields: the code of g and the
    support over GF(2^m), S and P.  A receiver secret key is valid
    exactly when this accepts it: it raises ValueError when `GoppaCode`
    rejects g or the support, when g is not irreducible, and when
    `_receiver_key` rejects the code's dimension or S.  Nothing public
    is built."""
    code = GoppaCode(m, t, g, support)
    # bm_decode reads the code as Gamma(L, g^2), which is Gamma(L, g) for
    # an irreducible g, and so does the re-encryption check, which takes
    # a decoded word for a codeword of Gamma(L, g); bm_decode's bound
    # L <= t needs an irreducible g too
    if not F.poly_is_irreducible(code.g, m):
        raise ValueError("g is not irreducible over GF(2^m)")
    return _receiver_key(code, S, P)[0]


def decode_permuted(sk: ReceiverSecretKey, word: np.ndarray):
    """The error of a word of the permuted code, in public coordinates,
    or None: un-permute, decode with `bm_decode`, map the error back.
    The word XOR this error is a codeword of the permuted code G·P, as
    `bm_decode`'s syndrome re-check certifies it as one of Gamma(L, g^2),
    which is Gamma(L, g) for the irreducible g of every valid key."""
    error = bm_decode(sk.code, mono_apply_inv(word, sk.P, 2))
    return None if error is None else mono_apply(error, sk.P, 2)
