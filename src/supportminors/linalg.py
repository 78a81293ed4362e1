"""Exact dense linear algebra over GF(q).

Matrices are 2-D numpy int64 arrays with entries reduced to [0, q).  One
blocked elimination kernel serves ``rref``, ``rank`` and ``det``: it takes
the columns in panels of NB, finds each panel's pivots with a scalar
first-nonzero loop on the panel alone, and applies the panel to the rest of
the matrix with a float64 matrix product reduced mod q once per product
(16-bit limbs keep it exact up to q = 2**31 - 1).  ``mat_mul`` uses the same
product.  Pivot columns and the RREF do not depend on which pivot rows are
chosen, so ``rref`` output is bit-reproducible.  ``SparseMatrix`` is the
compressed sparse row (CSR) form the Macaulay builder emits: three int64
arrays ``indptr``, ``indices``, ``values``, validated as whole arrays, which
elimination densifies with one scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .field import PrimeField

NB = 64             # panel width of the blocked elimination
_EXACT = 2**53      # float64 holds every integer up to here exactly
_LIMB = 65536.0     # operands of the limb product are split at 2**16
_LIMB_K = 2**20     # inner-dimension chunk that keeps a limb product below _EXACT


def as_matrix(field: PrimeField, data) -> np.ndarray:
    """Coerce to a 2-D int64 array with entries reduced mod q."""
    M = np.asarray(data, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    return M % field.q


def zeros_matrix(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Compressed sparse row (CSR) matrix: row i stores its nonzero values
    values[indptr[i]:indptr[i+1]] at the strictly increasing columns
    indices[indptr[i]:indptr[i+1]]."""

    rows: int
    cols: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("indptr", "indices", "values"):
            a = np.array(getattr(self, name), dtype=np.int64)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        indptr, indices = self.indptr, self.indices
        if indptr.shape != (self.rows + 1,) or indptr[0] != 0 or (np.diff(indptr) < 0).any():
            raise ValueError("indptr must have rows + 1 entries, start at 0 and never decrease")
        if indices.shape != (indptr[-1],) or self.values.shape != indices.shape:
            raise ValueError("indices and values must have indptr[-1] entries")
        if indices.size and (indices.min() < 0 or indices.max() >= self.cols):
            raise ValueError("column index out of range")
        # Rows never decrease and columns lie in [0, cols), so row * cols +
        # column increases strictly exactly when each row's columns do.
        row_of = np.repeat(np.arange(self.rows), np.diff(indptr))
        if (np.diff(row_of * self.cols + indices) <= 0).any():
            raise ValueError("column indices must be strictly increasing within a row")
        if not self.values.all():
            raise ValueError("stored zeros are not allowed")

    @classmethod
    def from_dense(cls, M: np.ndarray) -> "SparseMatrix":
        rows, cols = M.shape
        r, c = np.nonzero(M)  # row-major, so columns increase within each row
        indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=rows))))
        return cls(rows, cols, indptr, c, M[r, c])

    def to_dense(self) -> np.ndarray:
        M = zeros_matrix(self.rows, self.cols)
        M[np.repeat(np.arange(self.rows), np.diff(self.indptr)), self.indices] = self.values
        return M

    @property
    def nnz(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            np.array_equal(getattr(self, a), getattr(other, a))
            for a in ("indptr", "indices", "values")
        )

    __hash__ = None  # type: ignore[assignment]


def _addmul_mod(C: np.ndarray, A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """C <- (C + A @ B) mod q in place, exactly, and return C.

    All three are float64 arrays with entries in [0, q), q < 2**31.  Every
    integer below 2**53 is exact in float64, and so is every partial sum of
    a dot product that stays below it, whatever order the BLAS adds in.
    While k * (q-1)**2 + q <= 2**53 (inner dimension k; at q = 32003 any
    k up to 8.79 million) one product and one reduction suffice.
    Otherwise both operands are split into 16-bit limbs and multiplied in
    four products, reduced between the high and the low half, with k cut
    into chunks of _LIMB_K so that each limb sum stays below 2**53.
    """
    k = A.shape[1]
    if k * (q - 1) ** 2 + q <= _EXACT:
        C += A @ B
        return np.fmod(C, q, out=C)
    for s in range(0, k, _LIMB_K):
        a, b = A[:, s : s + _LIMB_K], B[s : s + _LIMB_K]
        a1, b1 = np.floor(a / _LIMB), np.floor(b / _LIMB)
        a0, b0 = a - a1 * _LIMB, b - b1 * _LIMB
        T = a1 @ b1
        np.fmod(T, q, out=T)
        T *= _LIMB
        T += a1 @ b0
        T += a0 @ b1
        np.fmod(T, q, out=T)
        T *= _LIMB
        T += a0 @ b0
        T += C
        np.fmod(T, q, out=C)
    return C


def _eliminate(field: PrimeField, P: np.ndarray, w: int, reduced: bool, follow=None):
    """First-nonzero Gaussian elimination of the first w columns of the int64
    array P, in place.

    For each column in order, the first row at or below the current pivot
    row with a nonzero entry becomes the pivot and is swapped up; every
    swap is applied to the rows of `follow` too, if given.  Forward mode
    clears the entries below each pivot; reduced mode also normalizes the
    pivot row and clears above it.  Columns w + t of a wider P start as
    the unit vector of pivot t and take every row operation, so they end
    as E with row i = (its original row) + E[i] @ (the pivot rows'
    original values).
    Returns (pivot columns, d): d is the product of the pivots times the
    sign of the row permutation, mod q.
    """
    q = field.q
    h = P.shape[0]
    tracked = P.shape[1] > w
    pivots: list[int] = []
    d = 1
    for j in range(w):
        k = len(pivots)
        if k == h:
            break
        nz = P[k:, j].nonzero()[0]
        if nz.size == 0:
            continue
        i = k + int(nz[0])
        if i != k:
            P[[k, i]] = P[[i, k]]
            if follow is not None:
                follow[[k, i]] = follow[[i, k]]
            d = -d
        piv = int(P[k, j])
        d = d * piv % q
        if tracked:
            P[k, w + k] = 1
        end = w + k + 1 if tracked else w  # columns past end are still zero
        if reduced:
            P[k, j:end] = P[k, j:end] * field.inv(piv) % q
            rows = P[:, j].nonzero()[0]
            rows = rows[rows != k]
            factors = P[rows, j]
        else:
            rows = k + 1 + P[k + 1 :, j].nonzero()[0]
            factors = P[rows, j] * field.inv(piv) % q
        if rows.size:
            P[rows, j:end] = (P[rows, j:end] - factors[:, None] * P[k, j:end]) % q
        pivots.append(j)
    return pivots, d % q


def _echelon(field: PrimeField, M, reduced: bool):
    """Blocked elimination over GF(q): (pivot columns, W, d).

    W is a float64 working copy of M, taken panel by panel over NB columns.
    `_eliminate` finds a panel's k pivots among the rows not yet used,
    swaps them up to rows [pr, pr + k) and, when later columns or earlier
    rows still need it, records its row operations as E.  One
    `_addmul_mod` product per row range then applies the panel to them:
    the rows below get E @ (the pivot rows); with `reduced`, the pivot rows
    become X = A11^-1 @ (themselves), A11 being their block at the pivot
    columns, and the rows above lose (their pivot-column entries) @ X.
    Pivot columns are the column rank profile whatever rows were chosen,
    so with `reduced` W ends as the unique RREF of M.  d is the
    determinant factor of `_eliminate` over all panels.
    """
    q = field.q
    W = as_matrix(field, M).astype(np.float64)
    m, n = W.shape
    pivots: list[int] = []
    d = 1
    pr = 0
    for c0 in range(0, n, NB):
        if pr == m:
            break
        c1 = min(c0 + NB, n)
        w = c1 - c0
        track = reduced or c1 < n
        P = np.zeros((m - pr, w + min(w, m - pr) * track), dtype=np.int64)
        P[:, :w] = W[pr:, c0:c1]
        local, dp = _eliminate(field, P, w, reduced, W[pr:] if track else None)
        d = d * dp % q
        k = len(local)
        pivots += [c0 + j for j in local]
        if k and track:
            E = P[:, w : w + k].astype(np.float64)
            piv_rows = W[pr : pr + k]
            below = W[pr + k :]
            _addmul_mod(below[:, c1:], E[k:], piv_rows[:, c1:], q)
            below[:, c0:c1] = 0
            if reduced:
                X = _addmul_mod(np.zeros((k, n - c0)), E[:k], piv_rows[:, c0:], q)
                above = W[:pr]
                _addmul_mod(above[:, c0:], above[:, pivots[-k:]], np.fmod(q - X, q), q)
                piv_rows[:, c0:] = X
        pr += k
    return pivots, W, d


def rref(field: PrimeField, M: np.ndarray) -> tuple[int, np.ndarray, list[int]]:
    """Reduced row echelon form.

    Returns (rank, R, pivot_columns).  R is the unique RREF of M; pivots are
    strictly increasing.
    """
    pivots, W, _ = _echelon(field, M, reduced=True)
    return len(pivots), W.astype(np.int64), pivots


def rank(field: PrimeField, M) -> int:
    """Rank of a dense array or SparseMatrix (densified) over GF(q)."""
    if isinstance(M, SparseMatrix):
        M = M.to_dense()
    return len(_echelon(field, M, reduced=False)[0])


def right_kernel_basis(field: PrimeField, M) -> list[np.ndarray]:
    """Basis of {v : M v = 0} in canonical free-variable form.

    One vector per non-pivot column f (in increasing column order): entry 1
    at f, -R[i, f] at each pivot column, 0 elsewhere.
    """
    q = field.q
    _, R, pivots = rref(field, M)
    n = R.shape[1]
    pivot_set = set(pivots)
    basis = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = np.zeros(n, dtype=np.int64)
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = (-int(R[i, f])) % q
        basis.append(v)
    return basis


def mat_mul(field: PrimeField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B mod q, exact for every q < 2**31."""
    A = as_matrix(field, A)
    B = as_matrix(field, B)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    C = np.zeros((A.shape[0], B.shape[1]))
    return _addmul_mod(C, A.astype(np.float64), B.astype(np.float64), field.q).astype(np.int64)


def mat_vec(field: PrimeField, M: np.ndarray, v: np.ndarray) -> np.ndarray:
    return mat_mul(field, M, np.asarray(v, dtype=np.int64).reshape(-1, 1)).reshape(-1)


def det(field: PrimeField, M: np.ndarray) -> int:
    """Determinant of a square matrix: the product of the forward pivots
    times the sign of the row permutation, 0 if any column lacks a pivot."""
    M = as_matrix(field, M)
    n = M.shape[0]
    if M.shape[1] != n:
        raise ValueError("determinant requires a square matrix")
    pivots, _, d = _echelon(field, M, reduced=False)
    return d if len(pivots) == n else 0


def check_cell_cap(rows: int, cols: int, cap: int) -> None:
    """Refuse matrix builds beyond the configured cell budget."""
    if rows * cols > cap:
        raise CapExceededError(
            f"matrix of {rows} x {cols} = {rows * cols} cells exceeds cap {cap}"
        )
