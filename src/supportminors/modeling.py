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

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import estimator
from .combinatorics import drop_ranks, monomial_mul, monomial_rank, monomials_colex, subsets_colex
from .instance import MinRankInstance
from .linalg import (
    SparseMatrix, check_cell_cap, kernel_basis, mat_mul, rank as matrix_rank, right_kernel_basis,
    rref,
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


@functools.cache
def _equation_tables(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (C(n, r+1), r+1) tables: the colex (r+1)-subsets J of
    range(n), and the colex rank of each J \\ {j_t}."""
    tables = (np.array(list(subsets_colex(n, r + 1)), dtype=np.int64).reshape(-1, r + 1),
              drop_ranks(n, r + 1))
    for t in tables:
        t.setflags(write=False)
    return tables


def build_equations(inst: MinRankInstance) -> BilinearSystem:
    """The bilinear system of the instance.  Rejects r = n (no (r+1)-column
    subsets)."""
    m, n, r = inst.m, inst.n, inst.r
    if r >= n:
        raise ValueError(f"r={r} must be below n={n}: no (r+1)-column subsets exist")
    q = inst.field.q
    Js, plk = _equation_tables(n, r)
    sign = np.where(np.arange(r + 1) % 2, q - 1, 1)
    # (K, m, |Js|, r+1) gather, moved to (m, |Js|, r+1, K); products < 2^62.
    coef = np.moveaxis(inst.stack[:, :, Js], 0, -1) * sign[:, None] % q
    coef = coef.reshape(m * len(Js), r + 1, inst.K)
    coef.setflags(write=False)
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


@functools.cache
def _macaulay_order(m: int, n: int, r: int, K: int, b: int) -> tuple[np.ndarray, ...]:
    """Read-only CSR order of Mac_b's entries at this shape: every (e, t, ell)
    of `coef`, sorted by (e, ell, Plucker rank), as its flat index into
    `coef`, its equation e, and its column for each degree-(b-1) row
    monomial mu (one row of the last table per mu)."""
    plk = _equation_tables(n, r)[1]
    eq_of, t, ell = (a.ravel() for a in np.indices((m * len(plk), r + 1, K)))
    plk_of = plk[eq_of % len(plk), t]
    flat = np.lexsort((plk_of, ell, eq_of))
    shift = np.array([[monomial_rank(monomial_mul(mu, v)) for v in range(K)]
                      for mu in monomials_colex(K, b - 1)], dtype=np.int64)
    tables = (flat, eq_of[flat], shift[:, ell[flat]] * comb(n, r) + plk_of[flat])
    for table in tables:
        table.setflags(write=False)
    return tables


def macaulay(inst: MinRankInstance, b: int, cap: int = MATRIX_CELL_CAP) -> MacaulayMatrix:
    """Assemble the degree-b Macaulay matrix of the bilinear system.

    Row mu * eq(i, J) is row eq(i, J) of the b = 1 matrix with the column
    block of each x_ell moved to that of mu * x_ell.  The b = 1 rows are
    sorted by (ell, Plucker rank), and colex(mu * x_ell) strictly increases
    with ell, so the moved rows stay sorted: each call gathers `coef` in
    the order `_macaulay_order` fixes for the shape and drops its zeros.
    """
    K, n, r = inst.K, inst.n, inst.r
    rows, cols = estimator.macaulay_dims(estimator.ParameterSet(inst.m, n, K, r), b)
    check_cell_cap(rows, cols, cap)
    eqs = build_equations(inst)
    flat, eq_of, at = _macaulay_order(inst.m, n, r, K, b)
    vals = eqs.coef.ravel()[flat]
    nz = vals != 0
    vals = vals[nz]
    row_nnz = np.tile(np.bincount(eq_of[nz], minlength=len(eqs)), len(at))
    indptr = np.concatenate(([0], np.cumsum(row_nnz)))
    data = SparseMatrix(rows, cols, indptr, at[:, nz].ravel(), np.tile(vals, len(at)))
    return MacaulayMatrix(b, K, eqs, data)


def _lifts(p: estimator.ParameterSet, b: int, d: int | None = None) -> bool:
    """Whether `macaulay_kernel` lifts Mac_b from b-1: where G_b, at
    d = dim ker Mac_{b-1} (by default the generic cols_{b-1} - eqs(p, b-1)),
    has fewer cells than Mac_b."""
    if b < 2:
        return False
    if d is None:
        d = estimator.macaulay_dims(p, b - 1)[1] - estimator.eqs(p, b - 1)[0]
    rows, cols = estimator.macaulay_dims(p, b)
    return comb(p.K, 2) * comb(p.K + b - 3, b - 2) * comb(p.n, p.r) * p.K * d < rows * cols


@functools.cache
def _lift_indices(K: int, b: int) -> tuple[np.ndarray, ...]:
    """Read-only index columns of the lift to degree b: per row of G_b, per mu."""
    g = [(a, c, monomial_rank(monomial_mul(w, c)), monomial_rank(monomial_mul(w, a)))
         for a, c in subsets_colex(K, 2) for w in monomials_colex(K, b - 2)]
    u = [(mu[0], monomial_rank(mu[1:])) for mu in monomials_colex(K, b)]
    tables = (*np.array(g, dtype=np.int64).reshape(-1, 4).T, *np.array(u, dtype=np.int64).T)
    for t in tables:
        t.setflags(write=False)
    return tables


def macaulay_kernel(
    inst: MinRankInstance, b: int, cap: int = MATRIX_CELL_CAP, *, basis: bool = False
) -> tuple[int, int, int, np.ndarray | None]:
    """(rows, cols, rank, kernel basis or None) of the degree-b Macaulay
    matrix; the basis is a (dim ker, cols) int64 array, bit-identical to
    `right_kernel_basis` of the assembled matrix.  The cap applies to
    Mac_b's nominal cells.  Mac_b is assembled and eliminated (forward only
    without `basis`), unless `_lifts` picks the lift from b-1, priced at
    the generic d_{b-1} and again at the observed one; so G_b, built only
    where it has fewer cells than Mac_b, fits every cap that Mac_b fits.

    Row (x_a omega, e) of Mac_b is row (omega, e) of Mac_{b-1} with x_ell
    moved to x_a omega x_ell, so u is in ker Mac_b exactly when every slice
    V_a[nu, T] = u(x_a nu, T) lies in ker Mac_{b-1} and V_a[x_c omega] =
    V_c[x_a omega] for a < c.  With B any basis of ker Mac_{b-1} (dimension
    d) and V_a = sum_i Y[a, i] B_i, that is G_b y = 0 for G_b holding
    +B_i[x_c omega, T] at column (a, i) and -B_i[x_a omega, T] at (c, i) in
    row (a < c, omega, T); u(mu, T) = V_a[mu / x_a, T], a the smallest
    variable of mu.  A change of B multiplies G_b's columns by I_K (x) T, so
    levels below the top give some basis from one forward elimination
    (`kernel_basis`, or a lift left unreduced).  On the free columns of
    Mac_b, the pivots of a right-to-left elimination of any kernel basis,
    `right_kernel_basis` is the identity: so the top level's basis is the
    RREF of the column-reversed lift, reversed back.
    """
    return _kernel(inst, b, cap, "canonical" if basis else "rank")


def _kernel(inst: MinRankInstance, b: int, cap: int, want: str):
    """`macaulay_kernel` for a request `want`: "rank" (no basis), "any"
    (some basis) or "canonical" (the basis of `right_kernel_basis`)."""
    f, K, p = inst.field, inst.K, estimator.ParameterSet(inst.m, inst.n, inst.K, inst.r)
    rows, cols = estimator.macaulay_dims(p, b)
    check_cell_cap(rows, cols, cap)
    B = _kernel(inst, b - 1, cap, "any")[3] if _lifts(p, b) else None
    if B is None or not _lifts(p, b, len(B)):
        M = macaulay(inst, b, cap=cap).data
        if want == "rank":
            return rows, cols, matrix_rank(f, M), None
        if want == "any":
            return rows, cols, *kernel_basis(f, M.to_dense())
        Z = right_kernel_basis(f, M.to_dense())
        return rows, cols, cols - len(Z), Z
    a, c, at_c, at_a, lead, rest = _lift_indices(K, b)
    (d, cols_below), P = B.shape, comb(inst.n, inst.r)
    V = B.reshape(d, cols_below // P, P)
    G = np.zeros((len(a), P, K, d), dtype=np.int64)
    G[np.arange(len(a)), :, a, :] = V[:, at_c, :].transpose(1, 2, 0)
    G[np.arange(len(a)), :, c, :] = (f.q - V[:, at_a, :]).transpose(1, 2, 0) % f.q
    G = G.reshape(len(a) * P, K * d)
    if want == "rank":
        return rows, cols, cols - K * d + matrix_rank(f, G), None
    Y = right_kernel_basis(f, G)
    W = mat_mul(f, Y.reshape(len(Y) * K, d), B).reshape(len(Y), K, *V.shape[1:])  # V_a per Y row
    W = W[:, lead, rest].reshape(len(Y), cols)
    if want == "any":
        return rows, cols, cols - len(Y), W
    R = rref(f, W[:, ::-1])[1]
    return rows, cols, cols - len(Y), np.ascontiguousarray(R[::-1, ::-1])


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
