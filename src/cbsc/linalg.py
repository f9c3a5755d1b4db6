"""Dense linear algebra over GF(2) and GF(3), plus bit/trit packing.

Matrices and vectors are numpy uint8 arrays with entries reduced modulo
the field characteristic p (2 or 3).  Row vectors act on the left:
y = v @ M.  All functions are pure; random sampling takes an explicit
numpy Generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def mat_rank(M: np.ndarray, p: int) -> int:
    return mat_reduce(M, p)[1]


def kernel_basis(M: np.ndarray, p: int) -> np.ndarray:
    """Rows span the right kernel: every row k satisfies M @ k == 0 (mod p)."""
    R, rank, pivots = mat_reduce(M, p)
    free = np.setdiff1d(np.arange(M.shape[1]), pivots)
    basis = np.zeros((len(free), M.shape[1]), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (p - R[:rank, free].T) % p
    return basis


class AffineSolver:
    """Repeated solves H @ x = s for a fixed H, with caller-chosen free variables."""

    def __init__(self, H: np.ndarray, p: int):
        self.p = p
        self.rows, self.cols = H.shape
        aug = np.concatenate([H % p, np.eye(self.rows, dtype=np.uint8)], axis=1)
        R, rank, piv = mat_reduce(aug, p)
        # pivots landing in the identity part mean dependent rows of H
        self.pivots = [c for c in piv if c < self.cols]
        self.rank = len(self.pivots)
        self.R = R[: self.rank, : self.cols]
        self.E = R[:, self.cols:]  # row-operation matrix: E @ H = [R; 0]
        self.free = [c for c in range(self.cols) if c not in self.pivots]

    def solve(self, s: np.ndarray, free_values: np.ndarray | None = None) -> np.ndarray | None:
        p = self.p
        rhs = (self.E @ (np.asarray(s, dtype=np.int64) % p)) % p
        if np.any(rhs[self.rank:]):
            return None
        x = np.zeros(self.cols, dtype=np.uint8)
        if self.free:
            fv = np.zeros(len(self.free), dtype=np.uint8) if free_values is None \
                else np.asarray(free_values, dtype=np.uint8) % p
            x[self.free] = fv
            corr = (self.R[:, self.free].astype(np.int64) @ fv) % p
        else:
            corr = np.zeros(self.rank, dtype=np.int64)
        x[self.pivots] = (rhs[: self.rank] - corr) % p
        return x


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
    R, rank, piv = mat_reduce(aug, p)
    if piv[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return R[:, n:]


def matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    return (A.astype(np.int64) @ B.astype(np.int64) % p).astype(np.uint8)


def vecmat(v: np.ndarray, M: np.ndarray, p: int) -> np.ndarray:
    return (v.astype(np.int64) @ M.astype(np.int64) % p).astype(np.uint8)


# ---------------------------------------------------------------------------
# monomial matrices

@dataclass(frozen=True, eq=False)
class Monomial:
    """n x n monomial matrix: entry (i, perm[i]) = scalars[i], zero elsewhere.

    Scalars are 1 for the binary/permutation case and in {1, 2} over GF(3),
    so M @ M.T = I in both cases.  `perm` (intp) and `scalars` (uint8) are
    read-only numpy arrays.
    """
    perm: np.ndarray
    scalars: np.ndarray

    def __post_init__(self):
        for name, dtype in (("perm", np.intp), ("scalars", np.uint8)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.perm)


def random_permutation(n: int, rng) -> Monomial:
    return Monomial(rng.permutation(n), np.ones(n, dtype=np.uint8))


def random_monomial(n: int, p: int, rng) -> Monomial:
    return Monomial(rng.permutation(n), rng.integers(1, p, size=n))


def mono_apply(v: np.ndarray, M: Monomial, p: int) -> np.ndarray:
    """v @ M: output[perm[i]] = v[i] * scalars[i]."""
    out = np.empty_like(v)
    out[M.perm] = v * M.scalars % p
    return out


def mono_apply_inv(v: np.ndarray, M: Monomial, p: int) -> np.ndarray:
    """v @ M^-1: output[i] = v[perm[i]] / scalars[i] (scalars are self-inverse)."""
    return v[M.perm] * M.scalars % p


def mat_mono(A: np.ndarray, M: Monomial, p: int) -> np.ndarray:
    """A @ M (column permutation with scaling)."""
    out = np.empty_like(A)
    out[:, M.perm] = A * M.scalars % p
    return out


# ---------------------------------------------------------------------------
# packing (wire format: row-major, LSB-first bits; 5 base-3 digits per byte)

def pack_bits(bits: np.ndarray) -> bytes:
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    return np.packbits(bits, bitorder="little").tobytes()


def unpack_bits(data: bytes, n: int) -> np.ndarray:
    arr = np.frombuffer(data, dtype=np.uint8)
    return np.unpackbits(arr, bitorder="little", count=n).astype(np.uint8)


def pack_trits(trits: np.ndarray) -> bytes:
    t = np.asarray(trits, dtype=np.uint8).ravel()
    pad = (-len(t)) % 5
    if pad:
        t = np.concatenate([t, np.zeros(pad, dtype=np.uint8)])
    t = t.reshape(-1, 5).astype(np.uint16)
    weights = np.array([1, 3, 9, 27, 81], dtype=np.uint16)
    return (t @ weights).astype(np.uint8).tobytes()


def unpack_trits(data: bytes, n: int) -> np.ndarray:
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint16)
    out = np.zeros((len(arr), 5), dtype=np.uint8)
    for d in range(5):
        out[:, d] = arr % 3
        arr = arr // 3
    return out.ravel()[:n].astype(np.uint8)
