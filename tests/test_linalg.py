import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbsc import linalg as L

import oracles as O


def _rng(seed=0):
    return np.random.default_rng(seed)


@pytest.mark.parametrize("p", [2, 3])
def test_rref_shape_and_rank(p):
    rng = _rng(p)
    for _ in range(20):
        M = L.random_matrix(5, 8, p, rng)
        pivots, free, R_free = L.mat_reduce(M, p)
        rank = len(pivots)
        assert rank == L.mat_rank(M, p)
        assert sorted(pivots + free.tolist()) == list(range(8))
        assert R_free.shape == (rank, 8 - rank)
        # echelon: pivots increase, and each row is zero left of its pivot
        assert pivots == sorted(pivots)
        assert not np.any(R_free[free[None, :] < np.array(pivots)[:, None]])
        # row space preserved: every row of M is a combination of the rows
        # of R, the identity on the pivot columns and R_free on the free
        R = np.zeros((rank, 8), dtype=np.uint8)
        R[np.arange(rank), pivots] = 1
        R[:, free] = R_free
        assert L.mat_rank(np.concatenate([M, R]), p) == rank


@pytest.mark.parametrize("p", [2, 3])
def test_kernel_basis(p):
    rng = _rng(10 + p)
    for _ in range(20):
        M = L.random_matrix(4, 9, p, rng)
        K = O.kernel_basis(M, p)
        rank = L.mat_rank(M, p)
        assert K.shape[0] == 9 - rank  # rank-nullity
        assert not np.any(L.matmul(M, K.T, p))
        assert L.mat_rank(K, p) == K.shape[0]


@pytest.mark.parametrize("p", [2, 3])
def test_invert_matrix(p):
    rng = _rng(20 + p)
    for n in (1, 3, 6):
        M = O.random_invertible(n, p, rng)
        assert np.array_equal(L.matmul(M, L.invert_matrix(M, p), p), np.eye(n, dtype=np.uint8))


def test_invert_singular_raises():
    M = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        L.invert_matrix(M, 2)


def test_affine_solver_against_enumeration():
    # exhaustive oracle over GF(3)^5 and GF(2)^6, for H of full rank,
    # with a dependent row and zero: over all free values, solve(w, .)
    # gives exactly the coset {x : H x = H w}, with x[free] the values,
    # one vector at a time or all of them as the rows of one batch
    for p, rows, cols in ((3, 3, 5), (2, 4, 6)):
        rng = _rng(40 + p)
        space = np.array(list(itertools.product(range(p), repeat=cols)), dtype=np.uint8)
        for trial in range(6):
            H = L.random_matrix(rows, cols, p, rng)
            if trial % 3 == 1:
                H[-1] = (H[0] + H[1]) % p
            elif trial % 3 == 2:
                H[:] = 0
            syndromes = O.matmul(space, H.T, p)
            solver = L.AffineSolver(H, p)
            free_values = np.array(list(itertools.product(range(p), repeat=len(solver.free))),
                                   dtype=np.uint8).reshape(-1, len(solver.free))
            for i in rng.choice(len(space), 6, replace=False):
                coset = {tuple(x) for x, s in zip(space, syndromes)
                         if np.array_equal(s, syndromes[i])}
                xs = np.array([solver.solve(space[i], fv) for fv in free_values])
                assert np.array_equal(xs[:, solver.free], free_values)
                assert {tuple(x) for x in xs} == coset
                # all free values as one batch: the same x, row by row
                assert np.array_equal(solver.solve(space[i], free_values), xs)


def test_affine_solver_free_values_respected():
    rng = _rng(9)
    H = L.random_full_rank(3, 7, 3, rng)
    solver = L.AffineSolver(H, 3)
    w = rng.integers(0, 3, size=7, dtype=np.uint8)
    fv = rng.integers(0, 3, size=len(solver.free), dtype=np.uint8)
    x = solver.solve(w, fv)
    assert np.array_equal(x[solver.free], fv)
    assert np.array_equal(L.vecmat(x, H.T, 3), L.vecmat(w, H.T, 3))


# --- packed elimination and float32 products against the uint8/int64 oracles --

# column counts on both sides of 64-bit word boundaries
_COLS = [1, 63, 64, 65, 128, 129]


def _matrix(kind: str, rows: int, cols: int, p: int, rng) -> np.ndarray:
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.uint8)
    if kind == "low_rank":  # rank at most r, for a random r <= min(rows, cols)
        r = int(rng.integers(0, min(rows, cols) + 1))
        return O.matmul(L.random_matrix(rows, r, p, rng), L.random_matrix(r, cols, p, rng), p)
    if kind == "tall":
        rows = cols + rows + 1
    M = L.random_matrix(rows, cols, p, rng)
    if kind == "augmented":  # [M | I] with a dependent row, as invert_matrix reduces
        if rows > 1:
            M[-1] = M[0] * 2 % p
        M = np.concatenate([M, np.eye(rows, dtype=np.uint8)], axis=1)
    return M


# Below 32 rows mat_reduce takes all columns as one block; 0 to 40 rows
# cover that block and both sides of the 32-row boundary.
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 40), st.sampled_from(_COLS),
       st.sampled_from(["random", "zero", "low_rank", "tall", "augmented"]),
       st.integers(0, 2**32 - 1))
def test_mat_reduce_matches_oracle(p, rows, cols, kind, seed):
    _assert_reduces_like_oracle(_matrix(kind, rows, cols, p, _rng(seed)), p)


def _assert_reduces_like_oracle(M, p):
    pivots, free, R_free = L.mat_reduce(M, p)
    R_want, rank, pivots_want = O.mat_reduce(M, p)
    free_want = [c for c in range(M.shape[1]) if c not in pivots_want]
    assert pivots == pivots_want
    assert L.mat_rank(M, p) == rank
    assert free.tolist() == free_want
    assert R_free.dtype == np.uint8
    assert np.array_equal(R_free, R_want[:rank, free_want])


# From 32 rows up mat_reduce clears 4 to 8 columns per block, so these
# shapes reach the blocked elimination; column counts sit around
# multiples of 64.
@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(64, 300),
       st.sampled_from([63, 64, 65, 127, 128, 129, 191, 256, 321]),
       st.sampled_from(["random", "zero", "low_rank", "tall", "augmented"]),
       st.integers(0, 2**32 - 1))
def test_blocked_mat_reduce_matches_oracle(p, rows, cols, kind, seed):
    _assert_reduces_like_oracle(_matrix(kind, rows, cols, p, _rng(seed)), p)


# 31 rows is the largest matrix reduced as one block, 32 the smallest
# reduced k columns at a time
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("rows", [31, 32, 64, 200])
@pytest.mark.parametrize("kind", ["no-pivot-columns", "narrow-last-block",
                                  "duplicated-rows"])
def test_blocked_mat_reduce_edge_cases(p, rows, kind):
    rng = _rng(rows)
    if kind == "no-pivot-columns":
        # a zero column and a nonzero dependent one, in the first block
        # and in a later one
        M = L.random_matrix(rows, 2 * rows, p, rng)
        for c in (2, rows // 2):
            M[:, c] = 0
            M[:, c + 3] = (M[:, c + 1] + 2 * M[:, c + 2]) % p
    elif kind == "narrow-last-block":
        # rows - 1 columns, all pivots, and 31, 63 and 199 are not
        # multiples of the block widths 4, 5 and 6
        M = L.random_matrix(rows, rows - 1, p, rng)
    else:
        M = L.random_matrix(rows, rows + 9, p, rng)
        M[1::2] = M[0::2][: rows // 2]
    _assert_reduces_like_oracle(M, p)


# mat_reduce packs its input and unpacks R_free SLAB rows at a time: a
# rank above SLAB runs both loops more than once, on unreduced entries
@pytest.mark.parametrize("p", [2, 3])
def test_mat_reduce_across_row_slabs(p):
    rows = L.SLAB + 37
    M = _rng(rows).integers(0, 2 * p, size=(rows, rows + 60), dtype=np.uint8)
    M[5] = M[L.SLAB + 3]
    _assert_reduces_like_oracle(M, p)


# mat_rank runs only the forward pass: its tables clear the rows without
# a pivot, and it stops once every row holds one.  Its pivots and rank
# must still be those of Gauss-Jordan, on both sides of the 32-row
# threshold and where the pass stops before the last column.
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("rows", [1, 31, 32, 145, 300])
@pytest.mark.parametrize("kind", ["square", "wide", "tall", "column", "duplicated-rows",
                                  "zero-columns", "zero"])
def test_mat_rank_matches_oracle(p, rows, kind):
    rng = _rng(rows + p)
    cols = {"square": rows, "wide": 2 * rows + 5, "tall": max(1, rows // 3),
            "column": 1}.get(kind, rows + 9)
    M = L.random_matrix(rows, cols, p, rng)
    if kind == "duplicated-rows":
        M[1::2] = M[0::2][: rows // 2]
    elif kind == "zero-columns":
        M[:, ::3] = 0
    elif kind == "zero":
        M[:] = 0
    pivots, _, _ = L.mat_reduce(M, p)
    assert L._eliminate(M, p, False)[3] == pivots
    assert L.mat_rank(M, p) == len(pivots) == O.mat_reduce(M, p)[1]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(0, 6), st.sampled_from([0] + _COLS),
       st.integers(0, 70), st.integers(0, 2**32 - 1))
def test_products_match_oracle(p, rows, inner, cols, seed):
    rng = _rng(seed)
    A = L.random_matrix(rows, inner, p, rng)
    B = L.random_matrix(inner, cols, p, rng)
    v = L.random_matrix(1, inner, p, rng)[0]
    w = L.random_matrix(1, rows, p, rng)[0]
    for got, want in ((L.matmul(A, B, p), O.matmul(A, B, p)),
                      (L.vecmat(v, B, p), O.matmul(v, B, p)),
                      (L.vecmat(w, A, p), O.matmul(w, A, p)),
                      (L.vecmat(v, A.T, p), O.matmul(v, A.T, p))):
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


# over GF(2) matmul runs on packed rows, which no inner dimension makes
# inexact (test_gf2_matmul_exact_on_long_inner_dimensions); vecmat keeps
# the float32 product and its bound at p = 2 and 3, and matmul at p = 3
@pytest.mark.parametrize("p", [2, 3])
def test_matmul_refuses_inexact_inner_dimension(p):
    # an inner dimension far past the float32 bound of 2**24; broadcast
    # views, and the refusal comes before any conversion, so nothing of
    # that size is allocated
    inner = 2**53 // (p - 1) ** 2
    A = np.broadcast_to(np.uint8(1), (1, inner))
    B = np.broadcast_to(np.uint8(1), (inner, 1))
    if p == 3:
        with pytest.raises(ValueError, match="exact"):
            L.matmul(A, B, p)
    with pytest.raises(ValueError, match="exact"):
        L.vecmat(A[0], B, p)


@pytest.mark.parametrize("p", [2, 3])
def test_matmul_exact_up_to_float32_bound(p):
    # inner * (p - 1)**2 = 2**24 is refused, since float32 may round a
    # partial sum from there on; one less, with every entry p - 1, every
    # partial sum is exact and so is the result
    inner = 2**24 // (p - 1) ** 2
    A = np.broadcast_to(np.uint8(p - 1), (1, inner))
    B = np.broadcast_to(np.uint8(p - 1), (inner, 1))
    product = L.vecmat if p == 2 else L.matmul
    with pytest.raises(ValueError, match="exact"):
        product(A, B, p)
    A, B = A[:, 1:], B[1:]
    assert product(A, B, p).tolist() == [[(inner - 1) * (p - 1) ** 2 % p]]


def test_gf2_matmul_exact_on_long_inner_dimensions():
    # a GF(2) product XORs packed rows, so no sum grows with the inner
    # dimension and none is refused; all-one operands give its parity
    for inner in (2**16 - 1, 2**16, 2**16 + 1):
        A = np.broadcast_to(np.uint8(1), (1, inner))
        B = np.broadcast_to(np.uint8(1), (inner, 3))
        assert L.matmul(A, B, 2).tolist() == [[inner % 2] * 3]


# inner dimensions of one bit, one bit short of a byte, a byte, a bit
# past it, toy's S·R_free^T (22) and L1/20's (824), with that product's
# 300 x 824 by 824 x 200 shape; the others' rows and columns end
# mid-byte
_GF2_SHAPES = [(13, 1, 11), (13, 7, 11), (13, 8, 11), (13, 9, 11), (16, 22, 10),
               (300, 824, 200)]


@pytest.mark.parametrize("rows, inner, cols", _GF2_SHAPES)
def test_gf2_matmul_matches_oracle(rows, inner, cols):
    rng = _rng(inner)
    A = L.random_matrix(rows, inner, 2, rng)
    B = L.random_matrix(cols, inner, 2, rng).T  # strided, as key generation's R_free.T
    v = L.random_matrix(1, inner, 2, rng)[0]
    w = L.random_matrix(1, rows, 2, rng)[0]
    for left, right in ((A, B), (A, v), (v, B), (w, A), (v, v)):
        got = L.matmul(left, right, 2)
        want = O.matmul(left, right, 2)
        assert got.dtype == np.uint8 and got.shape == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rows, inner, cols", _GF2_SHAPES)
def test_gf2_matmul_of_constant_operands(rows, inner, cols):
    # every entry of a product with an all-zero operand is 0, and of two
    # all-one operands the parity of the inner dimension
    rng = _rng(inner)
    zeros, ones = (np.full((rows, inner), b, dtype=np.uint8) for b in (0, 1))
    B = L.random_matrix(inner, cols, 2, rng)
    assert not L.matmul(zeros, B, 2).any()
    assert not L.matmul(B.T, zeros.T, 2).any()
    assert np.array_equal(L.matmul(ones, B, 2), O.matmul(ones, B, 2))
    assert np.array_equal(L.matmul(ones, ones.T, 2),
                          np.full((rows, rows), inner % 2, dtype=np.uint8))
    assert np.array_equal(L.matmul(ones[0], ones.T, 2), np.full(rows, inner % 2, dtype=np.uint8))


def test_gf2_matmul_copies_no_operand_as_float32():
    # L1/20's S·R_free^T: float32 copies of both operands took 1.80 MiB;
    # packed operands, their tables and the result take 0.19 MiB
    rng = _rng(70)
    S = L.random_matrix(300, 824, 2, rng)
    R_free = L.random_matrix(200, 824, 2, rng)
    tracemalloc.start()
    try:
        got = L.matmul(S, R_free.T, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * 2**20
    assert np.array_equal(got, O.matmul(S, R_free.T, 2))


@pytest.mark.parametrize("p", [2, 3])
def test_floor_reduction_exact_below_float32_bound(p):
    # every integer a product can hold, in chunks of 2**20
    chunk = 2**20
    for start in range(0, 2**24, chunk):
        ints = np.arange(start, start + chunk, dtype=np.int64)
        got = L._floor_mod(ints.astype(np.float32), p)
        assert np.array_equal(got, ints % p)


@pytest.mark.parametrize("p", [2, 3])
def test_mod_small_on_every_sum_below_2p(p):
    x = np.arange(2 * p, dtype=np.uint8)
    assert L._mod_small(x.copy(), p).tolist() == (x % p).tolist()


@pytest.mark.parametrize("p", [2, 3])
def test_products_in_column_slabs_match_oracle(p):
    # more columns than two slabs, the last one ragged; the third right
    # operand is column-major, like the A.T that verify_syndrome passes;
    # the last left operand has more rows than two slabs, the last ragged
    rng = _rng(50 + p)
    cols = 2 * L.SLAB + 7
    A = L.random_matrix(3, 40, p, rng)
    B = L.random_matrix(40, cols, p, rng)
    v = L.random_matrix(1, 40, p, rng)[0]
    tall = L.random_matrix(2 * L.SLAB + 5, 40, p, rng)
    for got, want in ((L.matmul(A, B, p), O.matmul(A, B, p)),
                      (L.vecmat(v, B, p), O.matmul(v, B, p)),
                      (L.vecmat(v, B.T.copy().T, p), O.matmul(v, B, p)),
                      (L.matmul(tall, B, p), O.matmul(tall, B, p))):
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)


def test_vecmat_converts_a_large_operand_in_slabs():
    # a whole float32 copy of M would be 4 times its uint8 size; column
    # slabs of a right operand and row slabs of a left one keep what
    # numpy allocates below M's own size
    rng = _rng(60)
    M = L.random_matrix(4000, 3000, 3, rng)
    v = L.random_matrix(1, 4000, 3, rng)[0]
    B = L.random_matrix(3000, 4, 3, rng)
    for product, left, right in ((L.vecmat, v, M), (L.matmul, M, B)):
        tracemalloc.start()
        try:
            got = product(left, right, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < M.nbytes
        assert np.array_equal(got, O.matmul(left, right, 3))


@pytest.mark.parametrize("rows, cols", [(16, 32), (300, 1024), (1815, 3488), (15, 30),
                                        (9, 1), (9, 64), (9, 65)])
def test_xor_rows_matches_vecmat(rows, cols):
    # the public generators of toy and L1/20, a paper-l1-sized random
    # one, a 30-column one, whose rows end mid-byte, and rows of one
    # bit, 64 bits and one bit past them
    rng = _rng(rows)
    M = L.random_matrix(rows, cols, 2, rng)
    packed = L.pack_rows(M)
    assert all(row.tobytes() == L.pack_bits(bits) for row, bits in zip(packed, M))
    assert np.array_equal(L.unpack_rows(packed, cols), M)
    assert np.array_equal(L.unpack_rows(packed[-1], cols), M[-1])
    vs = [np.zeros(rows, dtype=np.uint8), np.ones(rows, dtype=np.uint8),
          *L.random_matrix(4, rows, 2, rng)]
    for v in vs:
        got = L.xor_rows(v, packed, cols)
        assert got.dtype == np.uint8
        assert np.array_equal(got, L.vecmat(v, M, 2))
        assert np.array_equal(got, O.xor_select_rows(v, M))


# --- monomial matrices -------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3])
def test_mono_apply_matches_matrix(p):
    rng = _rng(30 + p)
    for _ in range(10):
        M = L.random_monomial(8, p, rng)
        A = O.mono_to_matrix(M)
        v = rng.integers(0, p, size=8, dtype=np.uint8)
        B = L.random_matrix(3, 8, p, rng)
        # M^-1 = M.T, as the scalars are self-inverse
        for x in (v, B):
            assert np.array_equal(L.mono_apply(x, M, p), O.matmul(x, A, p))
            assert np.array_equal(L.mono_apply_inv(x, M, p), O.matmul(x, A.T, p))
            assert np.array_equal(L.mono_apply_inv(L.mono_apply(x, M, p), M, p), x)


def test_monomial_self_transpose_inverse():
    rng = _rng(33)
    M = L.random_monomial(10, 3, rng)
    A = O.mono_to_matrix(M)
    assert np.array_equal(L.matmul(A, A.T, 3), np.eye(10, dtype=np.uint8))


@pytest.mark.parametrize("n", [1, 12, 1024])
def test_binary_random_monomial_draws_one_permutation(n):
    # over GF(2) the scalars come from rng.integers(1, 2), which draws no
    # random numbers: twin generators stay in step after a monomial and
    # a bare permutation
    rng, twin = _rng(1), _rng(1)
    M = L.random_monomial(n, 2, rng)
    assert np.array_equal(M.scalars, np.ones(n, dtype=np.uint8))
    assert np.array_equal(M.perm, twin.permutation(n))
    assert rng.integers(0, 2 ** 63) == twin.integers(0, 2 ** 63)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 17, 256, 1024])
def test_mono_gathers_match_coordinate_loops(p, n):
    rng = _rng(40 + n + p)
    M = L.random_monomial(n, p, rng)
    v = rng.integers(0, p, size=n, dtype=np.uint8)
    A = rng.integers(0, p, size=(5, n), dtype=np.uint8)
    for got, want in ((L.mono_apply(v, M, p), O.mono_apply(v, M, p)),
                      (L.mono_apply_inv(v, M, p), O.mono_apply_inv(v, M, p)),
                      (L.mono_apply(A, M, p), O.mat_mono(A, M, p))):
        assert got.dtype == want.dtype == np.uint8
        assert np.array_equal(got, want)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 3), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_mono_gathers_match_coordinate_loops_random(p, n, seed):
    rng = _rng(seed)
    M = L.random_monomial(n, p, rng)
    v = rng.integers(0, p, size=n, dtype=np.uint8)
    A = rng.integers(0, p, size=(3, n), dtype=np.uint8)
    assert np.array_equal(L.mono_apply(v, M, p), O.mono_apply(v, M, p))
    assert np.array_equal(L.mono_apply_inv(v, M, p), O.mono_apply_inv(v, M, p))
    assert np.array_equal(L.mono_apply(A, M, p), O.mat_mono(A, M, p))


@pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1, 3], [-1, 0, 1]])
def test_monomial_rejects_a_non_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation"):
        L.Monomial(perm, [1, 1, 1])


def test_monomial_arrays_are_read_only():
    M = L.Monomial([2, 0, 1], [1, 2, 1])
    assert M.perm.dtype == np.intp and M.scalars.dtype == np.uint8
    for arr in (M.perm, M.scalars, M.inv, M.inv_scalars):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert M.inv.tolist() == [1, 2, 0] and M.inv_scalars.tolist() == [2, 1, 1]


# --- packing -----------------------------------------------------------------

def test_pack_bits_lsb_first():
    assert L.pack_bits(np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)) == b"\x01"
    assert L.pack_bits(np.array([1, 1, 0, 1], dtype=np.uint8)) == b"\x0b"


def test_pack_trits_base3_little_endian():
    assert L.pack_trits(np.array([1, 2, 0, 0, 0], dtype=np.uint8)) == bytes([7])
    assert L.pack_trits(np.array([0, 0, 0, 0, 2], dtype=np.uint8)) == bytes([162])


@pytest.mark.parametrize("cols", [1, 7, 8, 9, 64, 65])
def test_rows_ints_roundtrip(cols):
    # column c of a row is bit c of its integer, around byte boundaries
    bits = np.random.default_rng(cols).integers(0, 2, (6, cols), dtype=np.uint8)
    bits[0], bits[1] = 0, 1
    ints = L.rows_to_ints(bits)
    assert ints == [sum(int(b) << c for c, b in enumerate(row)) for row in bits]
    assert ints[:2] == [0, (1 << cols) - 1]
    assert np.array_equal(L.ints_to_rows(ints, cols), bits)


@given(st.lists(st.integers(0, 2**65 - 1), min_size=1, max_size=5))
def test_ints_rows_roundtrip(ints):
    rows = L.ints_to_rows(ints, 65)
    assert rows.shape == (len(ints), 65)
    assert L.rows_to_ints(rows) == ints


@given(st.lists(st.integers(0, 1), max_size=64))
def test_bits_roundtrip(bits):
    arr = np.array(bits, dtype=np.uint8)
    assert np.array_equal(L.unpack_bits(L.pack_bits(arr), len(bits)), arr)


@given(st.lists(st.integers(0, 2), max_size=64))
def test_trits_roundtrip(trits):
    arr = np.array(trits, dtype=np.uint8)
    assert np.array_equal(L.unpack_trits(L.pack_trits(arr), len(trits)), arr)


def test_unpack_trits_every_byte():
    # bytes of 243 and up too: parsers reject them before unpacking
    digits = [(b // 3 ** d) % 3 for b in range(256) for d in range(5)]
    assert L.unpack_trits(bytes(range(256)), 1280).tolist() == digits
    assert L.unpack_trits(bytes(range(256)), 1277).tolist() == digits[:1277]


def test_unpack_trits_across_slabs():
    # two whole slabs and a partial last one, against the digit table
    data = np.random.default_rng(26).integers(0, 256, 2 * L.TRIT_SLAB + 7,
                                              dtype=np.uint8).tobytes()
    table = np.array([[(b // 3 ** d) % 3 for d in range(5)] for b in range(256)],
                     dtype=np.uint8)
    want = table[np.frombuffer(data, dtype=np.uint8)].ravel()
    n = 5 * len(data) - 3
    assert np.array_equal(L.unpack_trits(data, n), want[:n])
    assert np.array_equal(L.unpack_trits(data, 5 * len(data)), want)


def test_bits_from_bytes():
    assert np.array_equal(O.bits_from_bytes(b"\x03"),
                          np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8))
