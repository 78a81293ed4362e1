"""Exact dense linear algebra over GF(q).

Matrices are 2-D numpy int64 arrays with entries reduced to [0, q).  One
blocked elimination kernel serves ``rref``, ``rank`` and ``kernel_basis``
(some kernel basis from one forward elimination of the transpose): a scalar
first-nonzero loop finds the pivots of IB columns at a time and records
their row operations, float64 matrix products apply them to the rest of
their NB-column panel and each panel to the rest of the matrix, exact
below 2**53 (16-bit limbs up to q = 2**31 - 1), and a floor-multiply with
two masked fix-ups reduces them mod q in place.  ``mat_mul`` uses the same
product.  Pivot columns and the RREF do not depend on which pivot rows are
chosen, so ``rref`` output is bit-reproducible.  ``SparseMatrix`` is the
compressed sparse row (CSR) form the Macaulay builder emits: three int64
arrays ``indptr``, ``indices``, ``values``, validated as whole arrays,
which elimination densifies with one scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .field import PrimeField

NB = 64             # panel width of the blocked elimination
IB = 16             # sub-panel width of the scalar loop inside a panel
_RED_CELLS = 2**13  # scratch cells of the mod-q reduction
_EXACT = 2**53      # float64 holds every integer up to here exactly
_LIMB = 65536.0     # operands of the limb product are split at 2**16
_LIMB_K = 2**20     # inner-dimension chunk that keeps a limb product below _EXACT
# Up to this inner dimension k the high limb product needs no reduction
# before the middle ones are added: k * ((2**15-1)**2 * 2**16 + 2 * 2**31)
# = k * 2**46 < 2**53.  Every panel update (k <= NB) is within it.
_LIMB_LAZY_K = 127


def as_matrix(field: PrimeField, data, dtype=np.int64) -> np.ndarray:
    """Coerce to a new 2-D array of `dtype` with entries reduced mod q."""
    M = np.asarray(data, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={M.ndim}")
    reduced = M.size == 0 or (M.min() >= 0 and M.max() < field.q)
    return M.astype(dtype) if reduced else (M % field.q).astype(dtype, copy=False)


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

    def to_dense(self) -> np.ndarray:
        M = np.zeros((self.rows, self.cols), dtype=np.int64)
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


def _reduce(C: np.ndarray, q: int) -> np.ndarray:
    """C <- C mod q in place and return C, exact for float64 integers in
    [0, 2**53] and q < 2**31; its scratch holds one block of _RED_CELLS.

    t = floor(C * fl(1/q)) carries two roundings of relative error
    u = 2**-53, so t*q <= C*(1+u)**2 <= C + 2 and t >= floor(C/q) - 1:
    r = C - t*q lies in [-2, 2q), and one masked +q and one masked -q
    bring it to [0, q).  The integer t*q <= 2**53 + 2 is exact unless it
    is 2**53 + 1 = 3 * 107 * 28059810762433 (tests check q = 3, 107
    there), and so is r, an integer below 2q in magnitude.
    """
    step = max(1, _RED_CELLS // max(C.shape[1], 1))
    t = np.empty((min(step, len(C)), C.shape[1]))
    mask = np.empty(t.shape, dtype=bool)
    for i in range(0, len(C), step):
        c = C[i : i + step]
        tb, mb = t[: len(c)], mask[: len(c)]
        np.floor(np.multiply(c, 1.0 / q, out=tb), out=tb)
        c -= np.multiply(tb, q, out=tb)
        np.add(c, q, out=c, where=np.less(c, 0, out=mb))
        np.subtract(c, q, out=c, where=np.greater_equal(c, q, out=mb))
    return C


def _addmul_mod(C: np.ndarray, A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """C <- (C + A @ B) mod q in place, exactly, and return C.

    All three are float64 arrays with entries in [0, q), q < 2**31.  Every
    integer below 2**53 is exact in float64, and so is every partial sum of
    a dot product that stays below it, whatever order the BLAS adds in.
    While k * (q-1)**2 + q <= 2**53 (inner dimension k; at q = 32003 any
    k up to 8.79 million) one product and one reduction suffice.
    Otherwise both operands are split into 16-bit limbs and multiplied in
    four products, reduced between the high and the low half (and, for
    chunks wider than _LIMB_LAZY_K, after the high product), with k cut
    into chunks of _LIMB_K so that each limb sum stays below 2**53.  Sums
    are reduced in the contiguous product, then copied into C.
    """
    k = A.shape[1]
    if k * (q - 1) ** 2 + q <= _EXACT:
        T = A @ B
        C[...] = _reduce(np.add(T, C, out=T), q)
        return C
    for s in range(0, k, _LIMB_K):
        a, b = A[:, s : s + _LIMB_K], B[s : s + _LIMB_K]
        a1, b1 = np.floor(a / _LIMB), np.floor(b / _LIMB)
        a0, b0 = a - a1 * _LIMB, b - b1 * _LIMB
        T = a1 @ b1
        if a.shape[1] > _LIMB_LAZY_K:
            _reduce(T, q)
        T *= _LIMB
        T += a1 @ b0
        T += a0 @ b1
        _reduce(T, q)
        T *= _LIMB
        T += a0 @ b0
        T += C
        C[...] = _reduce(T, q)
    return C


def _eliminate(field: PrimeField, P: np.ndarray, w: int, reduced: bool, follow=()):
    """First-nonzero Gaussian elimination of the first w columns of the int64
    array P, in place; returns the pivot columns.

    For each column in order, the first row at or below the current pivot
    row with a nonzero entry becomes the pivot and is swapped up; the rows
    of each array in `follow` take the same permutation at the end.
    Forward mode clears below each pivot; reduced mode also normalizes the
    pivot row and clears above it.  Columns w + t of a wider P start as the
    unit vector of pivot t, so they end as E: row i = (its original row) +
    E[i] @ (the pivot rows' original values).  A row gains less than q**2
    per pivot, so while w * (q-1)**2 + q < 2**63 rows are reduced only when
    read (pivot column, pivot row), and E at the end.
    """
    q = field.q
    h = P.shape[0]
    tracked = P.shape[1] > w
    lazy = w * (q - 1) ** 2 + q < 2**63
    pivots: list[int] = []
    order = list(range(h))
    for j in range(w):
        k = len(pivots)
        if k == h:
            break
        col = P[:, j] % q
        nz = col[k:].nonzero()[0]
        if nz.size == 0:
            continue
        i = k + int(nz[0])
        if i != k:
            P[k], P[i] = P[i], P[k].copy()
            col[k], col[i] = col[i], col[k]
            order[k], order[i] = order[i], order[k]
        piv = int(col[k])
        if tracked:
            P[k, w + k] = 1
        end = w + k + 1 if tracked else w  # columns past end are still zero
        prow = P[k, j:end] % q
        if reduced:
            prow = prow * field.inv(piv) % q
            rows = col.nonzero()[0]
            rows = rows[rows != k]
            factors = col[rows]
        else:
            rows = k + 1 + col[k + 1 :].nonzero()[0]
            factors = col[rows] * field.inv(piv) % q
        P[k, j:end] = prow
        if rows.size:
            X = P[rows, j:end] - factors[:, None] * prow
            P[rows, j:end] = X if lazy else X % q
        pivots.append(j)
    P[:, w:] %= q
    moved = [t for t in range(h) if order[t] != t]
    for A in follow:
        A[moved] = A[[order[t] for t in moved]]
    return pivots


def _blocked(field: PrimeField, W: np.ndarray, w: int, reduced: bool, follow, widths):
    """`_eliminate` on the float64 array W, in panels of widths[0] columns.

    Each panel is eliminated by itself (`_blocked` over widths[1:], else
    `_eliminate`) on the rows not yet used, which swaps its k pivots up to
    rows [pr, pr + k) and records E.  Products apply it from column c1 to
    the last nonzero tracking column: the rows below gain E @ (pivot rows);
    with `reduced`, the pivot rows become X = A11^-1 @ (themselves), A11
    being their pivot-column block, and the rows above lose (their
    pivot-column entries) @ X.  After a panel with fewer pivots than
    columns, the elimination ends once the rows left are zero in the
    columns left.
    """
    q = field.q
    h, N = W.shape
    while len(widths) > 1 and widths[0] >= w:
        widths = widths[1:]  # a level of one panel only adds copies
    tracked = N > w
    pivots: list[int] = []
    pr = 0
    for c0 in range(0, w, widths[0]):
        if pr == h:
            break
        c1 = min(c0 + widths[0], w)
        wp = c1 - c0
        track = reduced or c1 < N
        inner = widths[1:]
        P = np.zeros((h - pr, wp + min(wp, h - pr) * track), np.float64 if inner else np.int64)
        P[:, :wp] = W[pr:, c0:c1]
        follow_p = (W[pr:], *(f[pr:] for f in follow)) if track else ()
        local = (_blocked(field, P, wp, reduced, follow_p, inner) if inner
                 else _eliminate(field, P, wp, reduced, follow_p))
        k = len(local)
        pivots += [c0 + j for j in local]
        if tracked:
            W[range(pr, pr + k), range(w + pr, w + pr + k)] = 1
        end = w + pr + k if tracked else N  # columns past end are still zero
        if k and track:
            E = P[:, wp : wp + k].astype(np.float64)
            piv_rows = W[pr : pr + k]
            below = W[pr + k :]
            _addmul_mod(below[:, c1:end], E[k:], piv_rows[:, c1:end], q)
            below[:, c0:c1] = 0
            if reduced:
                X = _addmul_mod(np.zeros((k, end - c0)), E[:k], piv_rows[:, c0:end], q)
                above = W[:pr]
                _addmul_mod(above[:, c0:end], above[:, pivots[-k:]], _reduce(q - X, q), q)
                piv_rows[:, c0:end] = X
        pr += k
        if k < wp and not W[pr:, c1:w].any():
            break  # the rows left are zero in the columns left: no pivot remains
    return pivots


def _echelon(field: PrimeField, M, reduced: bool):
    """(pivot columns, W) of `_blocked` on a float64 copy W of M."""
    W = as_matrix(field, M, np.float64)
    return _blocked(field, W, W.shape[1], reduced, (), (NB, IB)), W


def rref(field: PrimeField, M: np.ndarray) -> tuple[int, np.ndarray, list[int]]:
    """Reduced row echelon form.

    Returns (rank, R, pivot_columns).  R is the unique RREF of M; pivots are
    strictly increasing.
    """
    pivots, W = _echelon(field, M, reduced=True)
    return len(pivots), W.astype(np.int64), pivots


def rank(field: PrimeField, M) -> int:
    """Rank of a dense array or SparseMatrix (densified) over GF(q)."""
    if isinstance(M, SparseMatrix):
        M = M.to_dense()
    return len(_echelon(field, M, reduced=False)[0])


def right_kernel_basis(field: PrimeField, M) -> np.ndarray:
    """Basis of {v : M v = 0} in canonical free-variable form, as a
    (dim ker, cols) int64 array.

    One row per non-pivot column f (in increasing column order): entry 1
    at f, -R[i, f] at each pivot column, 0 elsewhere.
    """
    _, R, pivots = rref(field, M)
    free = np.delete(np.arange(R.shape[1]), pivots)
    K = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    K[np.arange(len(free)), free] = 1
    K[:, pivots] = -R[: len(pivots), free].T % field.q
    return K


def kernel_basis(field: PrimeField, M) -> tuple[int, np.ndarray]:
    """(rank, some basis of {v : M v = 0}) from one forward elimination, the
    basis a (dim ker, cols) int64 array with no canonical form.

    Forward elimination of W = [M^T | 0] records E in the extra columns and
    the row permutation in `perm`.  Row i >= rank of the eliminated M^T is
    zero, so e_perm[i] + sum_t E[i, t] e_perm[t] lies in ker M.
    """
    MT = as_matrix(field, M, np.float64).T
    h, w = MT.shape
    W = np.zeros((h, w + min(h, w)))
    W[:, :w] = MT
    perm = np.arange(h)
    rk = len(_blocked(field, W, w, False, (perm,), (NB, IB)))
    Z = np.zeros((h - rk, h), dtype=np.int64)
    Z[np.arange(h - rk), perm[rk:]] = 1
    Z[:, perm[:rk]] = W[rk:, w : w + rk]
    return rk, Z


def mat_mul(field: PrimeField, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B mod q, exact for every q < 2**31."""
    A = as_matrix(field, A, np.float64)
    B = as_matrix(field, B, np.float64)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch {A.shape} x {B.shape}")
    return _addmul_mod(np.zeros((len(A), B.shape[1])), A, B, field.q).astype(np.int64)


def check_cell_cap(rows: int, cols: int, cap: int) -> None:
    """Refuse matrix builds beyond the configured cell budget."""
    if rows * cols > cap:
        raise CapExceededError(
            f"matrix of {rows} x {cols} = {rows * cols} cells exceeds cap {cap}"
        )
