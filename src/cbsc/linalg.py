"""Dense linear algebra over GF(2) and GF(3), plus bit/trit packing.

Matrices and vectors are numpy uint8 arrays with entries reduced modulo
the field characteristic p (2 or 3).  Row vectors act on the left:
y = v @ M.  All functions are pure; random sampling takes an explicit
numpy Generator.

Elimination runs on packed rows: a row is a Python integer whose bit c
is column c, so one machine word holds many columns and a row operation
is a few bitwise operations on whole rows.  `rows_to_ints` and
`ints_to_rows` are the one statement of this layout, in which the
constant-weight encoding of `cwencode` also reads a bit string.  A
GF(2) row is one such integer, and adding a row is a XOR.  A GF(3) row
is two bit-planes, X (entries equal to 1) and Y (entries equal to 2):
scaling a row by 2 swaps its planes, and adding b to a takes six
operations,

    t = (a_X | b_Y) ^ (a_Y | b_X),  (a + b)_X = (a_Y | b_Y) ^ t,
                                    (a + b)_Y = (a_X | b_X) ^ t.

This is the bitslicing of Boothby and Bradshaw (arXiv 0901.1413).

From 32 rows up, the elimination takes its pivots k columns at a time,
the Method of Four Russians of M4RI (Albrecht and Bard, arXiv
1111.6549), with k = bit_length(rows) - 2 capped at 8.  Uncapped, k
would be 10 on the `paper-l1` sender matrices, and 10 read the same as
8 within the noise of a shared 2-vCPU VM, with tables four times as
large (three interleaved runs each: H_V, 2199 x 4246, 1.54-1.64 s at k
8 and 1.42-1.63 s at 10; H_sk·P, 2887 x 8492, 4.95-5.41 and 4.81-5.51
s).  In each block of k columns it finds the pivot rows among the rows
that hold none yet and reduces them against each other on the block,
which leaves them in RREF there.  Doubling builds the table T of their
2^k sums, T[s] the sum of the pivot rows whose columns are set in s,
and one lookup clears the block from a row: x ^ T[(x >> c0) & mask]
over GF(2).  Over GF(3) a row takes two lookups, subtracting T[s] for
its X-slice s and adding T[u] for its Y-slice u, since 2 = -1.

One rule, the same in both fields, says which rows a block's table
sweeps: those that still need it.  These are the earlier blocks' pivot
rows under Gauss-Jordan (`mat_reduce`), and, unless the block is the
last, the rows that hold no pivot yet, which the pivot search of the
next blocks reads; after the last block they are dropped.  A block with
no such row builds no table: the last block of the forward pass
(`mat_pivots`), a Gauss-Jordan whose last block follows no earlier
pivot, and so every matrix that is one block.  The pivot search reads
only the rows without a pivot, which both passes sweep alike, so
`mat_pivots` finds the pivots of `mat_reduce`, and `mat_rank` is their
count; the forward pass unpacks nothing and stops once every row holds
a pivot.

Below 32 rows the whole matrix is one block.  One pivot column per step
-> one block, measured when the threshold was set, on one core of a
shared 2-vCPU VM (us per random matrix, best of 40 interleaved runs):
the toy keys' GF(3) 4 x 8 28 -> 28 and 8 x 16 44 -> 48, GF(2) 10 x 32
36 -> 37 and the 16 x 22 S 54 -> 60; GF(3) 16 x 32 131 -> 155.  From 17
to 31 rows one block is 1.3 to 1.4 times slower (GF(3) 24 x 48 217 ->
290, 31 x 62 366 -> 490; GF(2) 31 x 62 167 -> 230), but no key of the
toy or L1/20 profiles has such a matrix: toy's largest is the 16 x 22
S, L1/20's smallest the 35 x 212 H_U.

Integers hold the rows, not numpy arrays of 64-bit words: a pivot step on
word arrays is some fifteen numpy calls, so on the 4- to 16-row
matrices of the toy profile word arrays were slower than the unpacked
uint8 code they replaced, where integers are two to three times faster
than either.  From about 150 rows up word arrays won over single pivot
steps by at most 1.6x on the sizes measured.  Results of elimination
are unpacked to uint8 before they leave the module.  Rows are packed
and unpacked SLAB at a time, and `mat_reduce` keeps only the free
columns of each unpacked slab, so it never holds a whole bit-plane:
on a `paper-l1` H_sk·P (2887 x 8492, 23.4 MiB) `tracemalloc` saw it
peak at 32.3 MiB, of which 15.4 MiB is the R_free it returns.

Every GF(2) product runs on packed rows.  One of a vector by a fixed
matrix runs on that matrix's
rows packed to bytes, `pack_rows`, in the bit order of every packing
here and the only form in which a receiver key holds it: PKE encryption
multiplies by the public generator S·G·P, and the re-encryption check
by S alone, whose product it compares with the ciphertext on the code's
information set.  `xor_rows` XORs the bytes of the rows the vector
selects and unpacks the n bits of the sum with `unpack_rows`, which
also gives the whole matrix back.  On one core of a shared 2-vCPU VM
(median us per product, two runs): 15-17 -> 10 us against the XOR of
the unpacked uint8 rows for the 300 x 1024 L1/20 generator, 473-510 ->
65-79 us for the 1815 x 3488 `paper-l1` one; rows of 64-bit words,
which the bytes replaced, took 10-10.5 and 63-77 us.

`matmul`, the GF(2) product of two matrices, runs on packed rows as
well, by the Method of Four Russians for matrix
multiplication (Albrecht, Bard and Hart, "Algorithm 898: Efficient
multiplication of dense matrices over GF(2)", ACM TOMS 2010).  B's rows
are packed once.  Byte j of a packed row of A selects rows 8j to 8j + 7
of B, so the table of the 256 XORs of those 8 rows, built by doubling,
T[2^i + s] = T[s] ^ B[8j + i], holds that byte's share of every row of
A @ B: the packed product is the XOR, over the byte columns of A, of
each column's gather from its table, and it is unpacked once at the
end.  XOR needs no bound on the inner dimension.  The tables of TABLES
byte columns are built at a time, in one array: one table at a time
took 12 ms of numpy calls at `paper-l1`, sixteen 1.7 ms.  Key
generation's one product, S·R_free^T (`goppa._key_pair`), took as
float32 slabs (median [quartiles] of 15 interleaved runs on one BLAS
thread of a shared 2-vCPU VM, and the `tracemalloc` peak) 87 [83, 96]
ms and 12.38 MiB for `paper-l1`'s 1815 x 2720 S by the 2720 x 768
transposed R_free, and takes 11.0 [10.6, 12.3] ms and 1.57 MiB; at
L1/20's 300 x 824 by 824 x 200, 2.34 [1.99, 2.46] ms and 1.80 MiB
became 1.76 [1.42, 1.87] ms and 0.19 MiB; toy's 16 x 22 by 22 x 10
costs the table set-up, 0.013 -> 0.074 ms.

GF(3) products, those of `vecmat`, which verification makes, and of
`AffineSolver`, which signing makes, run as float32 BLAS, C = A @ B,
then one exact reduction by floor: q = floor(C / 3), C - 3q.  Every
partial sum of `vecmat` is an integer of at most inner * 4, and float32
holds every integer below 2**24 exactly, so C is exact, in any
summation order, while that bound is below 2**24; larger inner
dimensions are refused.  A solver's products add an offset below 3 to
f such terms, and a solver whose 4f + 3 passes 2**24 is refused.  The
largest such product of any profile, `verify_syndrome`'s at `paper-l1`,
has partial sums of at most 5605 * 4.  The floor is exact too: C / 3 is
below 2**23, where float32 rounds by at most 1/4, a non-multiple of 3
lies at least 1/3 from every integer, and a multiple divides exactly;
3q and C - 3q are integers below 2**24.  A test checks every C below
2**24 at p = 3.  The floor replaced `% 3`, which took 72 us on the
32 x 110 product of an L1/20 V batch where the floor took 7.5 us.  On
one BLAS thread of a shared 2-vCPU VM (medians of two runs), a solve of
that batch, 32 x 102 free values by the 102 x 110 -R_free^T, takes
32-38 us, of which 7-11 us are the product and 6-7 us the floor, and
took 43-65 us while each solve reduced the differences w[free] - x[free]
itself, multiplied by R_free^T and scattered both halves into place; on
the 32 x 2047 by 2047 x 2199 `paper-l1` V batch 3.8-4.7 ms, of which
3.8-4.3 ms are the product, where it took 5.7-6.4 ms.  The offset, a
product of one row by the whole matrix, costs 0.83 ms there once per
signature.  Against float64, float32 halves the memory a product reads:
the same row product took 0.83-0.90 ms in float32 and 1.8-2.1 ms in
float64.  `vecmat`'s uint8 right operand is converted SLAB columns at
a time, so no product holds a float32 copy of a whole key:
`verify_syndrome` at `paper-l1` allocated 62 MiB for its 2887 x 5605 A
and now 11 MiB, and its product fell from 27 to 8 ms.  Its left
operand, a vector, is converted whole, and so are a solve's BATCH rows
of free values.

Sums of two reduced uint8 values are reduced by `_mod_small`, the
minimum of x and the wrapped x - 3: 4 us on 32 x 212, where `% 3` took
19 us.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_EXACT = 2 ** 24


# the rows of a matrix that packing or unpacking holds at a time, and the
# columns of a float32 product's uint8 right operand
SLAB = 512


def rows_to_ints(bits: np.ndarray) -> list[int]:
    """The 0/1 rows of a matrix as one integer each, column c at bit c."""
    return [int.from_bytes(row.tobytes(), "little") for row in pack_rows(bits)]


def ints_to_rows(ints: list[int], cols: int) -> np.ndarray:
    """The cols-column 0/1 rows whose column c is bit c of each of
    `ints`, which must be below 2**cols."""
    nbytes = (cols + 7) // 8
    data = b"".join(v.to_bytes(nbytes, "little") for v in ints)
    packed = np.frombuffer(data, dtype=np.uint8).reshape(len(ints), nbytes)
    return unpack_rows(packed, cols)


def _add3(a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
    """The sum of two GF(3) rows given as their (X, Y) bit-planes."""
    t = (a1 | b2) ^ (a2 | b1)
    return (a2 | b2) ^ t, (a1 | b1) ^ t


def _eliminate(M: np.ndarray, p: int, full: bool):
    """Elimination on the packed rows of M modulo p, k columns at a time
    (see the module docstring): Gauss-Jordan if `full`, else the forward
    pass of `mat_rank`.  Returns the bit-planes X and Y (None over
    GF(2)), the pivot rows in pivot order and the pivot columns."""
    M = np.asarray(M, dtype=np.uint8)
    rows, cols = M.shape
    X, Y = [], ([] if p == 3 else None)
    for r in range(0, rows, SLAB):
        slab = M[r:r + SLAB] % p
        X += rows_to_ints(slab == 1)
        if Y is not None:
            Y += rows_to_ints(slab == 2)
    k = min(8, rows.bit_length() - 2)
    # below 32 rows the whole matrix is one block (at least one column
    # wide: range needs a nonzero step)
    order, pivots = _reduce_blocks(X, Y, cols, k if k >= 4 else max(cols, 1), full)
    return X, Y, order, pivots


def mat_reduce(M: np.ndarray, p: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Reduced row echelon form R modulo p, as (pivot columns, free
    columns, R_free).  R_free is R[:rank, free]: its row i is pivot row i
    on the free columns, and the pivot columns of R are the identity, so
    R_free is all of R that is not implied.

    Gauss-Jordan on packed rows, k columns per block from 32 rows up and
    all columns in one block below (see the module docstring).  Rows are
    not swapped: each pivot row is taken from the rows that hold no pivot
    yet, and the rows are put in pivot order when unpacked.  The RREF of
    a matrix is unique, so neither the choice of pivot rows nor k
    changes it.
    """
    X, Y, order, pivots = _eliminate(M, p, True)
    cols = np.shape(M)[1]
    free = np.flatnonzero(np.bincount(pivots, minlength=cols) == 0)
    # R_free = X + 2Y on the free columns, unpacked SLAB rows at a time,
    # so that neither R nor a whole plane is ever held
    R_free = np.empty((len(order), len(free)), dtype=np.uint8)
    for r in range(0, len(order), SLAB):
        rows, out = order[r:r + SLAB], R_free[r:r + SLAB]
        out[:] = ints_to_rows([X[i] for i in rows], cols).take(free, axis=1)
        if Y is not None:
            Y_free = ints_to_rows([Y[i] for i in rows], cols).take(free, axis=1)
            out += Y_free
            out += Y_free
    return pivots, free, R_free


def _clear(X: list[int], Y: list[int] | None, i: int, j: int, c: int) -> None:
    """Subtract from row i the multiple of row j, whose entry in column c
    is 1, that zeroes row i in column c."""
    if Y is None:
        if X[i] >> c & 1:
            X[i] ^= X[j]
    elif X[i] >> c & 1:
        X[i], Y[i] = _add3(X[i], Y[i], Y[j], X[j])
    elif Y[i] >> c & 1:
        X[i], Y[i] = _add3(X[i], Y[i], X[j], Y[j])


def _reduce_blocks(X: list[int], Y: list[int] | None, cols: int, k: int, full: bool):
    """Elimination in place, k columns at a time (see the module
    docstring): Gauss-Jordan if `full`, else the forward pass.  Each
    block's table sweeps only the rows that still need it: Gauss-Jordan's
    earlier pivot rows, and the rows that hold no pivot yet, which the
    pivot search of the next blocks reads, unless no block follows.
    Returns (pivot rows, pivot columns)."""
    free = list(range(len(X)))  # rows that hold no pivot yet
    order: list[int] = []
    pivots: list[int] = []
    for c0 in range(0, cols, k):
        if not free:
            break
        width = min(k, cols - c0)
        block = {}  # pivot column -> row, the rows reduced against each other
        held = 0    # their columns' bits; a row with none set needs no reduction
        for c in range(c0, c0 + width):
            bit = 1 << c
            for i in free:
                if (X[i] if Y is None else X[i] | Y[i]) & held:
                    for pc, j in block.items():
                        _clear(X, Y, i, j, pc)
                if Y is not None and Y[i] & bit:  # scale the row by 2
                    X[i], Y[i] = Y[i], X[i]
                if X[i] & bit:
                    break
            else:
                continue
            free.remove(i)
            for j in block.values():
                _clear(X, Y, j, i, c)
            block[c] = i
            held |= bit
        # the pivot search has left the block's own pivot rows in RREF on
        # it, and the rows without a pivot are dropped after the last block
        sweep = (order if full else []) + (free if c0 + width < cols else [])
        order += block.values()
        pivots += block
        if not block or not sweep:
            continue
        # the table T[s] is the sum of the pivot rows whose columns are
        # set in s
        mask = (1 << width) - 1
        if Y is None:
            T = [0]
            for c in range(c0, c0 + width):
                j = block.get(c)
                T += T if j is None else [t ^ X[j] for t in T]
            for i in sweep:
                X[i] ^= T[X[i] >> c0 & mask]
        else:
            T = [(0, 0)]
            for c in range(c0, c0 + width):
                j = block.get(c)
                T += T if j is None else [_add3(t1, t2, X[j], Y[j]) for t1, t2 in T]
            for i in sweep:
                a1, a2 = X[i], Y[i]
                # entries 1 are cleared by subtracting T[s], entries 2 by
                # adding T[u], as 2 = -1; negating a row swaps its planes.
                # _add3 is inlined: this loop is most of the time.
                s, u = a1 >> c0 & mask, a2 >> c0 & mask
                if s:
                    b2, b1 = T[s]
                    t = (a1 | b2) ^ (a2 | b1)
                    a1, a2 = (a2 | b2) ^ t, (a1 | b1) ^ t
                if u:
                    b1, b2 = T[u]
                    t = (a1 | b2) ^ (a2 | b1)
                    a1, a2 = (a2 | b2) ^ t, (a1 | b1) ^ t
                X[i], Y[i] = a1, a2
    return order, pivots


def mat_pivots(M: np.ndarray, p: int) -> list[int]:
    """The pivot columns of M's RREF modulo p, in increasing order, by the
    forward pass of the elimination (see the module docstring): each
    block's table sweeps only the rows that hold no pivot yet, and the
    last block's none, so the pivots are those of `mat_reduce`."""
    return _eliminate(M, p, False)[3]


def mat_rank(M: np.ndarray, p: int) -> int:
    """The rank of M modulo p: the count of `mat_pivots`."""
    return len(mat_pivots(M, p))


class AffineSolver:
    """The coset {x : H @ x = H @ w} over GF(3) of any word w, one x per
    choice of x[free].  H alone is reduced to its RREF R, and for any H,
    R @ x = R @ w exactly when H @ x = H @ w; as R is the identity on the
    pivot columns, x[pivots] = w[pivots] + R_free @ (w[free] - x[free])
    with the R_free of `mat_reduce`.  The part that depends on w alone,
    the coset's offset w[pivots] + R_free @ w[free], is computed once by
    `offset`, and x[pivots] = offset + x[free] @ -R_free^T.  The solver
    holds -R_free^T, reduced, as one contiguous float32 f x r matrix, so
    a batch of free values, one row each, is solved by one product plus
    the offset, one reduction and one gather from [free | pivots] order
    back to coordinates."""

    def __init__(self, H: np.ndarray):
        pivots, self.free, R_free = mat_reduce(H, 3)
        self.pivots = np.array(pivots, dtype=np.intp)
        # the products sum f terms below 4 and the offset, below 3
        if 4 * len(self.free) + 3 > _EXACT:
            raise ValueError(f"{len(self.free)} free columns are too many for an exact "
                             "float32 product modulo 3")
        # the float32 copy is the peak of a build: the list of pivots is
        # dropped before it, -R_free is formed in place with no temporary
        # (3 - x is 3, 2 or 1, and 3 becomes 0), and the order below is
        # allocated once R_free is dropped
        del pivots
        np.remainder(np.subtract(3, R_free, out=R_free), 3, out=R_free)
        self.neg_R_T = np.ascontiguousarray(R_free.T, dtype=np.float32)
        del R_free
        # coordinate j of x is entry order[j] of [free values | pivot values]
        self.order = np.argsort(np.concatenate([self.free, self.pivots]))

    def offset(self, w: np.ndarray) -> np.ndarray:
        """w[pivots] + R_free @ w[free] mod 3, the pivot values of the x
        whose free values are 0, as an exact float32 row for `solve`.
        w may be any uint8 word."""
        w = np.asarray(w, dtype=np.uint8) % 3
        C = ((3 - w[self.free]) % 3).astype(np.float32) @ self.neg_R_T
        C += w[self.pivots]
        return _floor_mod(C)

    def solve(self, offset: np.ndarray, free_values: np.ndarray) -> np.ndarray:
        """The x with H @ x = H @ w and x[free] = free_values, for the
        `offset(w)` of w; for free values of shape (B, f), the B such x
        as rows.  The free values must already be in 0..2."""
        fv = np.asarray(free_values, dtype=np.uint8)
        C = fv.astype(np.float32) @ self.neg_R_T
        C += offset
        x = np.concatenate([fv, _floor_mod(C)], axis=-1, dtype=np.uint8, casting="unsafe")
        return x.take(self.order, axis=-1)


def random_matrix(rows: int, cols: int, p: int, rng) -> np.ndarray:
    return rng.integers(0, p, size=(rows, cols), dtype=np.uint8)


def random_full_rank(rows: int, cols: int, p: int, rng) -> np.ndarray:
    """Uniform matrix conditioned on full row rank, by rejection."""
    if rows > cols:
        raise ValueError("rows must not exceed cols")
    while True:
        M = random_matrix(rows, cols, p, rng)
        if mat_rank(M, p) == rows:
            return M


def invert_matrix(M: np.ndarray, p: int) -> np.ndarray:
    n = M.shape[0]
    aug = np.concatenate([M % p, np.eye(n, dtype=np.uint8)], axis=1)
    pivots, _, inverse = mat_reduce(aug, p)
    # pivots 0..n-1 leave the last n columns free, where R holds M^-1
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return inverse


def _floor_mod(C: np.ndarray) -> np.ndarray:
    """C mod 3 in place, for a float32 C of integers in [0, 2**24) (see
    the module docstring)."""
    q = C / 3
    np.floor(q, out=q)
    q *= 3
    C -= q
    return C


def _mod_small(x: np.ndarray) -> np.ndarray:
    """x mod 3 in place, for a uint8 array x whose entries are below 6:
    where x < 3, x - 3 wraps to at least 253 > x, so the minimum of the
    two is x mod 3.  Two ufuncs, where `%` on uint8 is a division per
    entry."""
    return np.minimum(x, x - np.uint8(3), out=x)


# the byte columns of a GF(2) product's left operand whose tables are
# built at a time, in one array of TABLES x 256 rows
TABLES = 16


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over GF(2), for 0/1 matrices, on packed rows by the byte
    tables of the module docstring."""
    k, nbytes = A.shape[1], (B.shape[1] + 7) // 8
    # B's rows, padded with zero rows to 8 per byte column of A; a strided
    # B, such as a transposed R_free, packs five times faster as
    # contiguous slabs than as it is
    B_rows = np.zeros(((k + 7) // 8 * 8, nbytes), dtype=np.uint8)
    for r in range(0, k, SLAB):
        B_rows[r:min(r + SLAB, k)] = pack_rows(np.ascontiguousarray(B[r:r + SLAB]))
    B_rows = B_rows.reshape(len(B_rows) // 8, 8, nbytes)
    A_rows = pack_rows(A)
    C = np.zeros((len(A), nbytes), dtype=np.uint8)
    gathered = np.empty_like(C)
    T = np.zeros((TABLES, 256, nbytes), dtype=np.uint8)
    for j0 in range(0, len(B_rows), TABLES):
        rows = B_rows[j0:j0 + TABLES]
        tables = T[:len(rows)]
        # table j's row s is the XOR of B's rows 8j + i for the bits i of s
        for i in range(8):
            np.bitwise_xor(tables[:, :1 << i], rows[:, i, None], out=tables[:, 1 << i:2 << i])
        for j, table in enumerate(tables, j0):
            # a byte indexes one of 256 rows, so "clip" clips nothing, and
            # unlike the default mode it gathers straight into `gathered`
            table.take(A_rows[:, j], axis=0, out=gathered, mode="clip")
            C ^= gathered
    return unpack_rows(C, B.shape[1])


def vecmat(v: np.ndarray, M: np.ndarray) -> np.ndarray:
    """v @ M mod 3, as an exact float32 BLAS product (see the module
    docstring)."""
    inner = v.shape[-1]
    if inner * 4 >= _EXACT:
        raise ValueError(f"inner dimension {inner} is too large for an exact "
                         "float32 product modulo 3")
    v = v.astype(np.float32, copy=False)
    if M.ndim == 2 and M.shape[1] > SLAB:
        return np.concatenate([vecmat(v, M[:, c:c + SLAB])
                               for c in range(0, M.shape[1], SLAB)], axis=-1)
    return _floor_mod(v @ M.astype(np.float32)).astype(np.uint8)


def pack_rows(M: np.ndarray) -> np.ndarray:
    """The rows of a 0/1 matrix as uint8 bytes: byte b of a row holds
    columns 8b to 8b + 7, LSB first, and the last byte of each row is
    padded with zero bits.  This bit order, part of the wire format and
    of the hash framing, is stated here and in `unpack_rows` only:
    `pack_bits`, the hash fields and the packed elimination rows all
    pack through these two."""
    return np.packbits(M, axis=-1, bitorder="little")


def unpack_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The n-column 0/1 uint8 rows of `pack_rows` bytes, or of one row's
    bytes."""
    return np.unpackbits(rows, axis=-1, count=n, bitorder="little")


def xor_rows(v: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """v @ M over GF(2), as n bits, for a 0/1 vector v and the bytes
    `pack_rows(M)` of an n-column M: the XOR of the packed rows that v
    selects."""
    return unpack_rows(np.bitwise_xor.reduce(np.compress(v, rows, axis=0), axis=0), n)


# ---------------------------------------------------------------------------
# monomial matrices

@dataclass(frozen=True, eq=False)
class Monomial:
    """n x n monomial matrix: entry (i, perm[i]) = scalars[i], zero elsewhere.

    Scalars are 1 for the binary/permutation case and in {1, 2} over GF(3),
    so M @ M.T = I in both cases.  `perm` (intp) and `scalars` (uint8) are
    read-only numpy arrays, and so are `inv`, the inverse permutation,
    and `inv_scalars`, the scalars in output order (scalars[inv]), which
    the gathers of `mono_apply` read.  Raises ValueError unless `perm`
    is a permutation of 0..n-1.
    """
    perm: np.ndarray
    scalars: np.ndarray
    inv: np.ndarray = field(init=False, repr=False)
    inv_scalars: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        perm = np.array(self.perm, dtype=np.intp)
        scalars = np.array(self.scalars, dtype=np.uint8)
        inv = np.argsort(perm)
        # argsort inverts a permutation, and only a permutation p has
        # p[argsort(p)] = 0..n-1
        if (perm[inv] != np.arange(len(perm))).any():
            raise ValueError("P is not a permutation of the coordinates")
        for name, arr in (("perm", perm), ("scalars", scalars), ("inv", inv),
                          ("inv_scalars", scalars[inv])):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def random_monomial(n: int, p: int, rng) -> Monomial:
    """A uniform monomial matrix over GF(p).  For p = 2 its scalars are
    all 1, and `rng.integers(1, 2)` draws no random numbers, so it draws
    exactly `rng.permutation(n)`."""
    return Monomial(rng.permutation(n), rng.integers(1, p, size=n))


def mono_apply(v: np.ndarray, M: Monomial) -> np.ndarray:
    """v @ M over GF(3): output[..., perm[i]] = v[..., i] * scalars[i],
    for a reduced uint8 vector or each row of a matrix: one gather by
    `inv`, then the scalars.  A permutation's scalars are 1, so on 0/1
    entries this is also its action over GF(2)."""
    out = v.take(M.inv, axis=-1)
    return _mod_small(np.multiply(out, M.inv_scalars, out=out))


def mono_apply_inv(v: np.ndarray, M: Monomial) -> np.ndarray:
    """v @ M^-1 over GF(3): output[..., i] = v[..., perm[i]] / scalars[i]
    (scalars are self-inverse)."""
    out = v.take(M.perm, axis=-1)
    return _mod_small(np.multiply(out, M.scalars, out=out))


# ---------------------------------------------------------------------------
# packing (wire format: row-major, LSB-first bits; 5 base-3 digits per byte)

def pack_bits(bits: np.ndarray) -> bytes:
    return pack_rows(np.asarray(bits, dtype=np.uint8).ravel()).tobytes()


def unpack_bits(data, n: int) -> np.ndarray:
    return unpack_rows(np.frombuffer(data, dtype=np.uint8), n)


# the base-3 weights of a packed trit byte's five digits; 2 * 121 = 242,
# so the sums of uint8 products never wrap
_TRIT_WEIGHTS = np.array([1, 3, 9, 27, 81], dtype=np.uint8)


def pack_trits(trits: np.ndarray) -> bytes:
    """Five trits to a byte, least significant first: one uint8 product
    by the weights for the whole groups of five, then the last group."""
    t = np.asarray(trits, dtype=np.uint8).reshape(-1)
    whole = len(t) - len(t) % 5
    out = np.empty((len(t) + 4) // 5, dtype=np.uint8)
    np.matmul(t[:whole].reshape(-1, 5), _TRIT_WEIGHTS, out=out[:whole // 5])
    if whole < len(t):
        out[-1] = t[whole:] @ _TRIT_WEIGHTS[:len(t) - whole]
    return out.tobytes()


# the five base-3 digits of every byte value, least significant first,
# each byte's five as one 5-byte item, so that unpacking is one gather
# of whole items into the output
_BYTE_TRITS = (np.arange(256)[:, None] // 3 ** np.arange(5) % 3).astype(np.uint8).view("V5")[:, 0]

# bytes unpacked per gather: `take` converts its indices to intp, and a
# slab bounds that copy to 128 KiB
TRIT_SLAB = 1 << 14


def unpack_trits(data, n: int) -> np.ndarray:
    """The first n trits of `pack_trits` bytes, in one gather of whole
    items, into the output TRIT_SLAB bytes at a time.  A byte indexes
    one of the table's 256 items, so `take` clips nothing, and with a
    mode other than "raise" it writes straight into `out` instead of
    through a buffer of its own."""
    packed = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(len(packed), dtype=_BYTE_TRITS.dtype)
    for s in range(0, len(packed), TRIT_SLAB):
        _BYTE_TRITS.take(packed[s:s + TRIT_SLAB], out=out[s:s + TRIT_SLAB], mode="clip")
    return out.view(np.uint8)[:n]
