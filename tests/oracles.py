"""Reference oracles: bit-serial GF(2^m) arithmetic and list-based
Patterson decoding, written independently of the log/antilog tables and
the key-time decoding material in `cbsc.fields` and `cbsc.goppa`; the
coordinate loops that the numpy monomial gathers and the DEM replaced;
Gauss-Jordan elimination on unpacked uint8 rows and the int64 product,
which the packed eliminator and the float32 products of `cbsc.linalg`
replaced; the per-trit loops that the table sampler of `cbsc.uuvsign`
and the vector trit decoding of `cbsc.hashes` replaced; the decoder's
loop of single attempts that the batched attempts of `cbsc.uuvsign`
replaced; the Ben-Or loop that the root check and reduction rows of
`cbsc.fields.poly_is_irreducible` replaced; the scan over every
position that the estimate-and-correct walk of
`cbsc.cwencode.unrank_support` replaced; the Möbius sum that Gauss's
recursion in `cbsc.estimator.goppa_poly_count` replaced; the quotient
chain on table arithmetic, `poly_divmod_tables`, which `cbsc.fields`
no longer has, and the extended Euclid and gcd built on it, which the
one in-place Euclidean loop of `cbsc.fields` replaced; the XOR of the
selected unpacked rows, which the packed rows of
`cbsc.linalg.xor_rows` replaced; the re-encoding check that the byte
checks of the `cbsc.serial` codecs replaced; the sender's whole parity
check H_sk, block by block, which the column gather of
`cbsc.uuvsign.hsk_p_columns` replaced; the enumeration of a whole
signature coset; and helpers that only tests need, among them the
kernel basis of a matrix, from the elimination on unpacked rows, and
the salted standalone signature `sign`/`verify`, which the scheme does
not run: its tag-KEM signs with `cbsc.uuvsign.sign_syndrome` alone.

They are slow and simple on purpose; tests compare the library against
them.  Polynomials are lists of ints, index = degree, no trailing zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cbsc import fields as F
from cbsc import hashes
from cbsc.fields import IRREDUCIBLE_POLY
from cbsc.hashes import H2, hash_bytes, keystream
from cbsc.linalg import (
    Monomial,
    invert_matrix,
    random_full_rank,
    unpack_bits,
)
from cbsc.params import CUSTOM_FIELDS, TOY, CommonParams, custom_params
from cbsc.uuvsign import _FREE_TABLE, sign_syndrome, verify_syndrome


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


def gf_pow(a: int, e: int, m: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = gf_mul(r, a, m)
        a = gf_mul(a, a, m)
        e >>= 1
    return r


def gf_inv(a: int, m: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in GF(2^m)")
    return gf_pow(a, (1 << m) - 2, m)


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


def poly_divmod_tables(p: list[int], d: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder on the library's log/antilog tables, as
    `cbsc.fields.poly_divmod` computed them before its remainder loop
    was shared and its quotient dropped."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    T = F.tables(m)
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
    return _trim(q), _trim(r)


def poly_gcd(p: list[int], q: list[int], m: int) -> list[int]:
    """The monic gcd by the chain of `poly_divmod_tables` remainders."""
    while q:
        p, q = q, poly_divmod_tables(p, q, m)[1]
    return poly_mul(p, [gf_inv(p[-1], m)], m) if p else p


def poly_euclid(a: list[int], b: list[int], stop: int, m: int):
    """Extended Euclid as `cbsc.fields.poly_euclid` ran it before its
    fused loop: one `poly_divmod_tables` quotient, `poly_mul` and
    `poly_add` per step.  (r0, r1, u0, u1) once deg r1 <= stop."""
    r0, r1 = list(a), list(b)
    u0, u1 = [], [1]
    while len(r1) - 1 > stop:
        q, rem = poly_divmod_tables(r0, r1, m)
        r0, r1 = r1, rem
        u0, u1 = u1, poly_add(u0, poly_mul(q, u1, m))
    return r0, r1, u0, u1


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


def poly_is_irreducible(p: list[int], m: int) -> bool:
    """Ben-Or's test as `cbsc.fields` ran it before its root check and
    reduction rows: p of degree t is irreducible when gcd(p, x^(q^i) - x)
    = 1 for i = 1..t//2, each x^(q^i) reached by m squarings reduced
    with `poly_divmod_tables`.  The reductions and the gcd (`poly_gcd`
    above) use the table remainder (checked against the bit-serial
    one), since bit-serial reductions would take minutes at t = 64."""
    t = len(p) - 1
    if t <= 0:
        return False
    r = [0, 1]
    for _ in range(t // 2):
        for _ in range(m):
            sq = [0] * (2 * len(r) - 1)
            sq[::2] = [gf_mul(c, c, m) for c in r]
            r = poly_divmod_tables(sq, p, m)[1]
        if len(poly_gcd(poly_add(r, [0, 1]), p, m)) != 1:
            return False
    return True


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


def unrank_support(r: int, n: int, t: int) -> list[int]:
    """t-subset of [0, n) with colex rank r, scanning the positions down
    from n - 1: position c is taken when C(c, k) <= r, with k the number
    of elements still to place."""
    support = [0] * t
    k = t
    while k > 0:
        n -= 1
        offset = math.comb(n, k)
        if r >= offset:
            r -= offset
            k -= 1
            support[k] = n
    return support


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


# ---------------------------------------------------------------------------
# elimination and products on unpacked uint8 entries

def mat_reduce(M: np.ndarray, p: int) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form modulo p. Returns (rref, rank, pivot columns)."""
    R = np.array(M, dtype=np.uint8) % p
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        sel = None
        for i in range(r, rows):
            if R[i, c]:
                sel = i
                break
        if sel is None:
            continue
        if sel != r:
            R[[r, sel]] = R[[sel, r]]
        if p == 3 and R[r, c] == 2:
            R[r] = (R[r] * 2) % 3  # 2 is its own inverse mod 3
        mask = R[:, c].copy()
        mask[r] = 0
        nz = np.nonzero(mask)[0]
        if nz.size:
            R[nz] = (R[nz] + (p - mask[nz, None]) * R[r][None, :]) % p
        pivots.append(c)
        r += 1
    return R, len(pivots), pivots


def matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p in int64 (also v @ M for a vector v)."""
    return (np.asarray(A).astype(np.int64) @ np.asarray(B).astype(np.int64) % p).astype(np.uint8)


def xor_select_rows(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v @ M over GF(2): the XOR of the uint8 rows of M that v selects."""
    return np.bitwise_xor.reduce(M[np.asarray(v) % 2 == 1], axis=0)


def canonical_by_reencoding(codec, data: bytes, n: int) -> bool:
    """Whether n values unpacked from `data` re-encode to `data`."""
    return codec.pack(codec.unpack(data, n)) == bytes(data)


# ---------------------------------------------------------------------------
# monomial matrices and the DEM, one coordinate at a time

def mono_apply(v: np.ndarray, M: Monomial, p: int) -> np.ndarray:
    """v @ M: output[perm[i]] = v[i] * scalars[i]."""
    out = np.zeros_like(v)
    for i, (j, s) in enumerate(zip(M.perm, M.scalars)):
        out[j] = (int(v[i]) * int(s)) % p
    return out


def mono_apply_inv(v: np.ndarray, M: Monomial, p: int) -> np.ndarray:
    """v @ M^-1: output[i] = v[perm[i]] / scalars[i]."""
    out = np.zeros_like(v)
    for i, (j, s) in enumerate(zip(M.perm, M.scalars)):
        out[i] = (int(v[j]) * int(s)) % p
    return out


def mat_mono(A: np.ndarray, M: Monomial, p: int) -> np.ndarray:
    """A @ M (column permutation with scaling)."""
    out = np.zeros_like(A)
    for i, (j, s) in enumerate(zip(M.perm, M.scalars)):
        out[:, j] = (A[:, i].astype(np.int64) * int(s)) % p
    return out


def mono_to_matrix(M: Monomial) -> np.ndarray:
    n = len(M.perm)
    A = np.zeros((n, n), dtype=np.uint8)
    for i, (j, s) in enumerate(zip(M.perm, M.scalars)):
        A[i, j] = s
    return A


def dem_encrypt(K: np.ndarray, m: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(m, keystream(K, len(m))))


def uuv_parity_check(H_U: np.ndarray, H_V: np.ndarray) -> np.ndarray:
    """H_sk = [[H_U, 0], [-H_V, H_V]]: checks u in U and (second - first)
    in V."""
    r_U, half = H_U.shape
    H = np.zeros((r_U + len(H_V), 2 * half), dtype=np.uint8)
    H[:r_U, :half] = H_U
    H[r_U:, :half] = (3 - H_V) % 3
    H[r_U:, half:] = H_V
    return H


def steered_free_values(other: np.ndarray, p_two: float, rng) -> np.ndarray:
    """Free values x, one or two scalar draws each: the pair (x, x + other)
    has weight 2 with probability p_two, and the weight of other otherwise."""
    vals = np.zeros(len(other), dtype=np.uint8)
    for k, o in enumerate(int(v) for v in other):
        if rng.random() < p_two:
            if o == 0:
                vals[k] = rng.integers(1, 3)
            else:
                # nonzero and not cancelling the second half
                vals[k] = next(v for v in (1, 2) if (v + o) % 3 != 0)
        else:
            vals[k] = 0 if o == 0 else (0, (3 - o) % 3)[rng.integers(0, 2)]
    return vals


def table_free_values(other: np.ndarray, p_two: float, rng) -> np.ndarray:
    """The table sampler for one attempt, as the signer ran it before it
    batched its attempts: one uniform per trit of `other`, its interval
    found by searching the three edges."""
    edges = np.array([p_two / 2, p_two, (1 + p_two) / 2])
    return _FREE_TABLE[other, np.searchsorted(edges, rng.random(len(other)), "right")]


def uuv_attempt(sk, w: np.ndarray, p_two: float, rng) -> np.ndarray:
    """One attempt of the UUV decoder on the coset of w, one half at a
    time: v in the coset of w2 - w1 under H_V, then u in that of w1
    under H_U; e = (u, u + v)."""
    half = len(w) // 2
    w = np.asarray(w, dtype=np.uint8) % 3
    w_U, w_V = w[:half], (w[half:] + 3 - w[:half]) % 3
    solver_U, solver_V = sk.solvers
    zeros_V = np.zeros(len(solver_V.free), dtype=np.uint8)
    e_V = solver_V.solve(w_V, table_free_values(zeros_V, p_two, rng))
    e1 = solver_U.solve(w_U, table_free_values(e_V[solver_U.free], p_two, rng))
    return np.concatenate([e1, (e1 + e_V) % 3])


def uuv_decode(sk, w: np.ndarray, omega: int, rng, max_attempts: int = 10_000):
    """The UUV decoder's loop of single attempts, each drawing its p and
    then its free values: the first e of weight omega, or None when
    max_attempts attempts miss."""
    for _ in range(max_attempts):
        p_two = min(1.0, max(0.0, omega / len(w) + rng.normal(0.0, 0.15)))
        e = uuv_attempt(sk, w, p_two, rng)
        if int(np.count_nonzero(e)) == omega:
            return e
    return None


def hash_trits(fields, r_s: int) -> np.ndarray:
    """r_s trits of the H2 stream, byte by byte: each byte below 243 gives
    five base-3 digits, least significant first; the others are skipped."""
    nbytes = (r_s + 4) // 5 + 8
    stream = hash_bytes(H2, fields, nbytes)
    trits: list[int] = []
    offset = 0
    while len(trits) < r_s:
        if offset == len(stream):
            nbytes *= 2
            stream = hash_bytes(H2, fields, nbytes)
        b = stream[offset]
        offset += 1
        if b >= 243:
            continue
        for _ in range(5):
            trits.append(b % 3)
            b //= 3
    return np.array(trits[:r_s], dtype=np.uint8)


def coset_words(pk, y: np.ndarray) -> np.ndarray:
    """Every e with e @ [I | A].T = y, one per row: the words (y - A z, z)
    over all z in F_3^k, k = n_s - r_s.  There are 3^k of them, so k
    must be small.  The digits of z are reduced before the int16 cast,
    as their quotients reach 3^(k-1)."""
    k = pk.A.shape[1]
    Z = ((np.arange(3 ** k)[:, None] // 3 ** np.arange(k)) % 3).astype(np.int16)
    X = (np.asarray(y, dtype=np.int16) - Z @ pk.A.T.astype(np.int16)) % 3
    return np.concatenate([X, Z], axis=1).astype(np.uint8)


def coset_solutions(pk, y: np.ndarray, omega: int) -> np.ndarray:
    """The rows of `coset_words` of weight omega."""
    E = coset_words(pk, y)
    return E[np.count_nonzero(E, axis=1) == omega]


# ---------------------------------------------------------------------------
# helpers only tests use

TOY_FIELDS = {f: getattr(TOY, f) for f in CUSTOM_FIELDS}


def toy_with(**fields) -> CommonParams:
    """TOY with `fields` changed, validated as a custom profile."""
    return custom_params(TOY_FIELDS | fields)


def mobius(n: int) -> int:
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def irreducible_count(q: int, t: int) -> int:
    """Monic irreducible degree-t polynomials over GF(q), by the Möbius
    sum (1/t) sum over d | t of mu(d) q^(t/d)."""
    return sum(mobius(d) * q ** (t // d) for d in range(1, t + 1) if t % d == 0) // t


def georgiades_log2_lgamma(n: int, k_tilde: int) -> float:
    """Independent log-gamma evaluation of log2(n!/k_tilde!)."""
    return (math.lgamma(n + 1) - math.lgamma(k_tilde + 1)) / math.log(2.0)


def kernel_basis(M: np.ndarray, p: int) -> np.ndarray:
    """Rows span the right kernel of M modulo p, by `mat_reduce` above:
    row i is 1 at free column i, -R[:, free[i]] at the pivot columns
    and 0 elsewhere, so M @ row == 0 (mod p)."""
    R, rank, pivots = mat_reduce(M, p)
    free = np.setdiff1d(np.arange(M.shape[1]), pivots)
    basis = np.zeros((len(free), M.shape[1]), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (p - R[:rank, free].T) % p
    return basis


@dataclass
class Signature:
    e: np.ndarray          # n_s trits, weight omega
    salt: np.ndarray       # salt_bits bits


def sign(sk, msg: bytes, omega: int, salt_bits: int, rng) -> Signature:
    """The salted standalone signature of msg: a salt of salt_bits coins,
    then `sign_syndrome` of the H2 trits of (msg, salt).  The scheme
    signs inside the tag-KEM and has no salt; the acceptance criteria
    judge the signer through this form."""
    salt = rng.integers(0, 2, size=salt_bits, dtype=np.uint8)
    r_s = len(sk.H_U) + len(sk.H_V)
    e = sign_syndrome(sk, hashes.hash_trits([msg, salt], r_s), omega, rng)
    return Signature(e=e, salt=salt)


def verify(pk, msg: bytes, sig: Signature, omega: int) -> bool:
    return verify_syndrome(pk, sig.e, hashes.hash_trits([msg, sig.salt], len(pk.A)), omega)


def random_invertible(n: int, p: int, rng) -> np.ndarray:
    return random_full_rank(n, n, p, rng)


def bits_from_bytes(data: bytes) -> np.ndarray:
    return unpack_bits(data, 8 * len(data))


def recover_message(G_pk: np.ndarray, c0: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Solve r @ G_pk = c0 xor sigma via k-tilde independent columns."""
    _, rank, pivots = mat_reduce(G_pk, 2)
    if rank != G_pk.shape[0]:
        raise ValueError("public generator not full rank")
    u = (np.asarray(c0, dtype=np.uint8) ^ np.asarray(sigma, dtype=np.uint8))[pivots]
    return xor_select_rows(u, invert_matrix(G_pk[:, pivots], 2))
