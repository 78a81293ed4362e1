"""The bilinear minor system and its Macaulay matrices.

For every pencil row i and every (r+1)-column subset J, stacking row i of
the pencil on top of the unknown r x n matrix C and taking the maximal
minor on J gives one bilinear equation: expanding along the stacked row,

    eq(i, J) = sum_t (-1)^t m_{i, j_t}(x) * c_{J \\ {j_t}}   (t 0-based),

where c_T is the maximal minor of C on columns T, treated as an independent
linearized unknown.  The whole system is two arrays: the coefficient tensor
coef[e, t, ell] = (-1)^t M_ell[i, j_t] mod q of equation e = (i, colex(J)),
gathered from the instance's stack, and the colex Plucker rank of each
J \\ {j_t}.  The degree-b Macaulay matrix collects mu * eq(i, J) for all
x-monomials mu of degree b-1; rows are ordered monomial-major, then by
(i, colex(J)); columns monomial-major by colex, then by colex Plucker rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import estimator
from .combinatorics import drop_ranks, monomial_mul, monomial_rank, monomials_colex, subsets_colex
from .instance import MinRankInstance
from .linalg import (
    SparseMatrix, check_cell_cap, mat_mul, rank as matrix_rank, right_kernel_basis, rref,
)

MATRIX_CELL_CAP = 50_000_000


@dataclass(frozen=True, eq=False)
class BilinearSystem:
    """All m * C(n, r+1) equations, ordered by (row, colex(J)).

    `coef[e, t, ell]` is the coefficient of x_ell * c_{J \\ {j_t}} in
    equation e, and `plk[colex(J), t]` the colex rank of J \\ {j_t}; both
    arrays are read-only.  Equation (row, J) sits at
    e = row * C(n, r+1) + colex(J).
    """

    coef: np.ndarray
    plk: np.ndarray
    m: int
    n: int
    r: int

    def __len__(self) -> int:
        return len(self.coef)


def build_equations(inst: MinRankInstance) -> BilinearSystem:
    """The bilinear system of the instance.  Rejects r = n (no (r+1)-column
    subsets)."""
    m, n, r = inst.m, inst.n, inst.r
    if r >= n:
        raise ValueError(f"r={r} must be below n={n}: no (r+1)-column subsets exist")
    q = inst.field.q
    Js = list(subsets_colex(n, r + 1))
    plk = drop_ranks(n, r + 1)
    sign = np.where(np.arange(r + 1) % 2, q - 1, 1)
    # (K, m, |Js|, r+1) gather, moved to (m, |Js|, r+1, K); products < 2^62.
    coef = np.moveaxis(inst.stack[:, :, np.array(Js)], 0, -1) * sign[:, None] % q
    coef = coef.reshape(m * len(Js), r + 1, inst.K)
    coef.setflags(write=False)
    plk.setflags(write=False)
    return BilinearSystem(coef, plk, m, n, r)


@dataclass(frozen=True)
class MacaulayMatrix:
    """Sparse Macaulay matrix at x-degree b.

    Row (mu, e) sits at monomial_rank(mu) * len(equations) + e and column
    (nu, T) at monomial_rank(nu) * C(n, r) + subset_rank(T).
    """

    b: int
    K: int
    equations: BilinearSystem
    data: SparseMatrix

    @property
    def n_rows(self) -> int:
        return self.data.rows

    @property
    def n_cols(self) -> int:
        return self.data.cols


def macaulay(inst: MinRankInstance, b: int, cap: int = MATRIX_CELL_CAP) -> MacaulayMatrix:
    """Assemble the degree-b Macaulay matrix of the bilinear system.

    Row mu * eq(i, J) is row eq(i, J) of the b = 1 matrix with the column
    block of each x_ell moved to that of mu * x_ell.  The b = 1 rows are
    sorted by (ell, Plucker rank), and colex(mu * x_ell) strictly increases
    with ell, so the moved rows stay sorted.
    """
    K, n, r = inst.K, inst.n, inst.r
    rows, cols = estimator.macaulay_dims(estimator.ParameterSet(inst.m, n, K, r), b)
    check_cell_cap(rows, cols, cap)
    eqs = build_equations(inst)
    row_monos = list(monomials_colex(K, b - 1))
    eq_of, t, ell = np.nonzero(eqs.coef)
    vals, plk = eqs.coef[eq_of, t, ell], eqs.plk[eq_of % len(eqs.plk), t]
    order = np.lexsort((plk, ell, eq_of))
    shift = np.array([[monomial_rank(monomial_mul(mu, v)) for v in range(K)] for mu in row_monos])
    row_nnz = np.tile(np.bincount(eq_of, minlength=len(eqs)), len(row_monos))
    indptr = np.concatenate(([0], np.cumsum(row_nnz)))
    indices = (shift[:, ell[order]] * comb(n, r) + plk[order]).ravel()
    data = SparseMatrix(rows, cols, indptr, indices, np.tile(vals[order], len(row_monos)))
    return MacaulayMatrix(b, K, eqs, data)


def macaulay_kernel(
    inst: MinRankInstance, b: int, cap: int = MATRIX_CELL_CAP, *, basis: bool = False
) -> tuple[int, int, int, np.ndarray | None]:
    """(rows, cols, rank, kernel basis or None) of the degree-b Macaulay
    matrix; the basis is a (dim ker, cols) int64 array, bit-identical to
    `right_kernel_basis` of the assembled matrix.  Every b but 2 assembles
    the matrix and eliminates it, forward only without `basis`.  Mac_2 is
    never assembled: rows and cols are its nominal dimensions, and the cap
    applies to its nominal cell count, then to Mac_1's and G's.

    Row (x_a, e) of Mac_2 is row e of Mac_1 with each x_ell column block
    moved to x_a x_ell, so u is in ker Mac_2 exactly when every slice
    W_a[ell, T] = u(x_a x_ell, T) lies in ker Mac_1 and W_a[ell] = W_ell[a].
    With B a basis of ker Mac_1 (dimension d1) and W_a = sum_i Y[a, i] B_i,
    the symmetry is G y = 0 for the C(K, 2) C(n, r) x K d1 matrix G holding
    +B_i[ell, T] at column (a, i) and -B_i[a, T] at column (ell, i) in row
    (a < ell, T); so dim ker Mac_2 = dim ker G, and the lift of a basis of
    ker G spans ker Mac_2.  The free columns of Mac_2 (its non-pivots) are
    the pivots a right-to-left elimination finds in any kernel basis, and
    on them the basis `right_kernel_basis` returns is the identity: so it
    is the RREF of the lifted basis with its columns reversed, columns and
    rows then reversed back.

    With E = m C(n, r+1) equations, G has (K-1) d1 / ((K+1) E) times the
    cells of Mac_2: fewer when the b = 1 kernel is small next to E, more
    when the b = 1 system is far underdetermined.
    """
    K, f, q = inst.K, inst.field, inst.field.q
    if b != 2:
        mac = macaulay(inst, b, cap=cap)
        rows, cols = mac.n_rows, mac.n_cols
        if not basis:
            return rows, cols, matrix_rank(f, mac.data), None
        Z = right_kernel_basis(f, mac.data.to_dense())
        return rows, cols, cols - len(Z), Z
    rows, cols = estimator.macaulay_dims(estimator.ParameterSet(inst.m, inst.n, K, inst.r), 2)
    check_cell_cap(rows, cols, cap)
    B = macaulay_kernel(inst, 1, cap, basis=True)[3]
    P, d1 = comb(inst.n, inst.r), len(B)
    B = B.reshape(d1, K, P)
    pairs = np.array(list(subsets_colex(K, 2)), dtype=np.int64).reshape(-1, 2)
    check_cell_cap(len(pairs) * P, K * d1, cap)
    a, ell, at = pairs[:, 0], pairs[:, 1], np.arange(len(pairs))
    G = np.zeros((len(pairs), P, K, d1), dtype=np.int64)
    G[at, :, a, :] = B[:, ell, :].transpose(1, 2, 0)
    G[at, :, ell, :] = (q - B[:, a, :]).transpose(1, 2, 0) % q
    G = G.reshape(len(pairs) * P, K * d1)
    if not basis:
        return rows, cols, cols - K * d1 + matrix_rank(f, G), None
    Y = right_kernel_basis(f, G)
    d2 = len(Y)
    # W[z, a, ell, T] = sum_i Y_z[a, i] B_i[ell, T]; u(x_a x_ell, T) = W[z, a, ell, T] for a <= ell.
    W = mat_mul(f, Y.reshape(d2 * K, d1), B.reshape(d1, K * P)).reshape(d2, K, K, P)
    mono = np.array(list(monomials_colex(K, 2)), dtype=np.int64)
    lifted = W[:, mono[:, 0], mono[:, 1]].reshape(d2, cols)
    R = rref(f, lifted[:, ::-1])[1]
    return rows, cols, cols - d2, np.ascontiguousarray(R[::-1, ::-1])


@dataclass(frozen=True)
class RankCheckReport:
    b: int
    rows: int
    cols: int
    observed_rank: int
    predicted: int
    precondition_met: bool
    match: bool


def rank_check(inst: MinRankInstance, b: int, cap: int = MATRIX_CELL_CAP) -> RankCheckReport:
    """Observed Macaulay rank at any b >= 1 vs the generic count `eqs`.

    The report never asserts: where the count is not proven or the instance
    is non-generic, `match` simply records the comparison.
    """
    p = estimator.ParameterSet(inst.m, inst.n, inst.K, inst.r)
    predicted, precondition = estimator.eqs(p, b)
    rows, cols, observed, _ = macaulay_kernel(inst, b, cap)
    return RankCheckReport(b, rows, cols, observed, predicted, precondition, observed == predicted)
