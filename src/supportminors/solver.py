"""Solving MinRank by linearization of the bilinear minor system.

The right kernel of the degree-b Macaulay matrix contains, for every
solution x with supporting row space C, the evaluation vector whose
(monomial nu, Plucker T) entry is nu(x) * minor_T(C).  Reshaped to a
(monomials x Plucker) matrix such a vector has rank one; extraction
inverts that structure:

* b = 1: the monomial factor is x itself;
* b = 2: the monomial factor fills a symmetric K x K matrix proportional
  to x x^T, and any nonzero column of it is proportional to x.

The kernel comes from `modeling.macaulay_kernel`; diagnostics report its
matrix's nominal dimensions.

Rank one is tested without elimination: every 2x2 minor through the first
nonzero entry must vanish mod q, which is exact in int64.

Kernels of dimension 1 < d <= EXTRACTION_CAP are swept exactly: d = 2 via
the roots of a 2x2-minor quadratic (all rank-one points of a pencil), small
q^d by enumeration of projective combinations.  A kernel that cannot be
swept, too large either in d or in combinations, falls back to the
brute-force oracle when the solution space itself is small enough to scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .combinatorics import monomials_colex, subset_rank
from .field import PrimeField
from .instance import (
    BRUTE_FORCE_CAP,
    MinRankInstance,
    SolutionCandidate,
    brute_force_solve,
    evaluate_pencil,
    iter_projective,
    normalize_projective,
    projective_point_count,
)
# perfbench/layers.py EXPECTED requires the unused `right_kernel_basis`, `rref`, `macaulay`.
from .linalg import rank as matrix_rank, right_kernel_basis, rref  # noqa: F401
from .modeling import MATRIX_CELL_CAP, macaulay, macaulay_kernel  # noqa: F401

EXTRACTION_CAP = 8       # max kernel dimension the solver will sweep
COMBO_CAP = 20_000       # max projective kernel combinations to enumerate


@dataclass(frozen=True)
class SolveDiagnostics:
    rows: int
    cols: int
    rank: int
    kernel_dim: int
    method: str
    complete: bool
    fixed_plucker: tuple[int, ...] | None = None
    notes: tuple[str, ...] = ()


def _sqrt_mod(a: int, q: int) -> int | None:
    """A square root of a mod prime q, or None (Tonelli-Shanks)."""
    a %= q
    if a == 0:
        return 0
    if pow(a, (q - 1) // 2, q) != 1:
        return None
    if q % 4 == 3:
        return pow(a, (q + 1) // 4, q)
    # Factor q - 1 = s * 2^e and walk the 2-Sylow subgroup.
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    z = 2
    while pow(z, (q - 1) // 2, q) != q - 1:
        z += 1
    root = pow(a, (s + 1) // 2, q)
    t = pow(a, s, q)
    c = pow(z, s, q)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % q
            i += 1
        b = pow(c, 1 << (e - i - 1), q)
        root = root * b % q
        c = b * b % q
        t = t * c % q
        e = i
    return root


def _quadratic_roots(field: PrimeField, c2: int, c1: int, c0: int) -> list[int]:
    """Roots of c2 t^2 + c1 t + c0 over GF(q), sorted; the zero polynomial returns []."""
    q = field.q
    c2, c1, c0 = c2 % q, c1 % q, c0 % q
    if c2 == 0:
        if c1 == 0:
            return []
        return [(-c0) * field.inv(c1) % q]
    if q == 2:  # 2 * c2 has no inverse
        return [t for t in (0, 1) if (c2 * t * t + c1 * t + c0) % 2 == 0]
    disc = (c1 * c1 - 4 * c2 * c0) % q
    s = _sqrt_mod(disc, q)
    if s is None:
        return []
    half = field.inv(2 * c2 % q)
    roots = {(-c1 + s) * half % q, (-c1 - s) * half % q}
    return sorted(roots)


def _first_minor_quadratic(field: PrimeField, A: np.ndarray, B: np.ndarray):
    """Coefficients of the first 2x2 minor of t*A + B that is not identically
    zero as a polynomial in t; None if the whole pencil has rank <= 1."""
    q = field.q
    rows, cols = A.shape
    for i1 in range(rows):
        for i2 in range(i1 + 1, rows):
            for j1 in range(cols):
                for j2 in range(j1 + 1, cols):
                    a1, b1 = int(A[i1, j1]), int(B[i1, j1])
                    a2, b2 = int(A[i1, j2]), int(B[i1, j2])
                    a3, b3 = int(A[i2, j1]), int(B[i2, j1])
                    a4, b4 = int(A[i2, j2]), int(B[i2, j2])
                    c2 = (a1 * a4 - a2 * a3) % q
                    c1 = (a1 * b4 + b1 * a4 - a2 * b3 - b2 * a3) % q
                    c0 = (b1 * b4 - b2 * b3) % q
                    if c2 or c1 or c0:
                        return c2, c1, c0
    return None


def _rank_one_column(W: np.ndarray, q: int) -> np.ndarray | None:
    """The first nonzero column of W when W has rank one mod q, else None.

    With pivot p = W[i, j] at the first nonzero entry, entry (k, l) of
    p W - W[:, j] W[i] is the 2x2 minor on rows {i, k} and columns {j, l},
    and W has rank one iff all of them vanish.  Entries in [0, q) with
    q < 2^31 keep the products exact in int64.
    """
    nz = np.flatnonzero(W)
    if not len(nz):
        return None
    i, j = divmod(int(nz[0]), W.shape[1])
    col = W[:, j]
    if ((W * W[i, j] - np.outer(col, W[i])) % q).any():
        return None
    return col


def _rank_one_pencil_points(
    field: PrimeField, A: np.ndarray, B: np.ndarray
) -> list[np.ndarray] | None:
    """All rank-one members of {t A + B} union {A}, or None when every member
    has rank <= 1 (caller must enumerate instead)."""
    quad = _first_minor_quadratic(field, A, B)
    if quad is None:
        return None
    members = [A] + [(t * A + B) % field.q for t in _quadratic_roots(field, *quad)]
    return [M for M in members if _rank_one_column(M, field.q) is not None]


def _extract(
    field: PrimeField, kernel: np.ndarray, K: int, P: int, b: int, fixed_col: int | None
) -> tuple[set[tuple[int, ...]], str, bool, str | None]:
    """(candidates, method, complete, note): the normalized x of the
    rank-one members found in the span of the (d, cols) kernel basis, each
    row a (monomials x P) matrix.  `complete` says every rank-one member was
    swept; `note` names the cap that stopped an incomplete sweep.
    """
    d, q = len(kernel), field.q
    if d == 0:
        return set(), "none", True, None
    if d > EXTRACTION_CAP:
        return set(), "none", False, f"kernel dimension {d} exceeds cap {EXTRACTION_CAP}"
    reshaped = kernel.reshape(d, -1, P)
    if b == 2:  # sym[a, c] = the row of x_a x_c, so col[sym] is symmetric and ~ x x^T
        mono = np.array(list(monomials_colex(K, 2)))
        sym = np.empty((K, K), dtype=np.int64)
        sym[mono[:, 0], mono[:, 1]] = sym[mono[:, 1], mono[:, 0]] = np.arange(len(mono))
    candidates: set[tuple[int, ...]] = set()

    def try_vector(W) -> None:
        col = W[:, fixed_col] if fixed_col is not None else _rank_one_column(W, q)
        if col is not None and b == 2:
            col = _rank_one_column(col[sym], q)
        if col is not None and col.any():
            candidates.add(normalize_projective(field, col.tolist()))

    method, complete = "direct", d == 1
    for W in reshaped:
        try_vector(W)
    if d == 2:
        points = _rank_one_pencil_points(field, reshaped[0], reshaped[1])
        if points is not None:
            for W in points:
                try_vector(W)
            method, complete = "pencil", True
    n_combos = projective_point_count(q, d)
    if not complete and n_combos <= COMBO_CAP:
        # Exact in int64: combos run only while q^(d-1) < COMBO_CAP, so
        # each entry, a sum of d products below q^2, stays far below 2^63.
        for coeffs in iter_projective(field, d):
            try_vector(np.tensordot(coeffs, reshaped, axes=1) % q)
        method, complete = "combo-enumeration", True
    note = None if complete else f"{n_combos} kernel combinations exceed cap {COMBO_CAP}"
    return candidates, method, complete, note


def _validate(inst: MinRankInstance, b: int, fix_pluecker: tuple[int, ...] | None) -> int | None:
    """Check b and `fix_pluecker`; the kernel column pinned to one, or None."""
    if b not in (1, 2):
        raise ValueError(f"the solver linearizes at b in {{1, 2}}, got {b}")
    if fix_pluecker is None:
        return None
    T = tuple(fix_pluecker)
    if len(T) != inst.r or list(T) != sorted(set(T)) or not 0 <= T[0] <= T[-1] < inst.n:
        raise ValueError(f"{T} is not an r-subset of the column set")
    return subset_rank(T)


def _verify(inst: MinRankInstance, candidates: set[tuple[int, ...]]) -> list[SolutionCandidate]:
    """The candidates whose pencil has rank in [1, r], in lexicographic order."""
    ranks = {x: matrix_rank(inst.field, evaluate_pencil(inst, x)) for x in sorted(candidates)}
    return [SolutionCandidate(x, k) for x, k in ranks.items() if 0 < k <= inst.r]


def solve_linearization(
    inst: MinRankInstance,
    b: int,
    *,
    brute_cap: int = BRUTE_FORCE_CAP,
    matrix_cap: int = MATRIX_CELL_CAP,
    fix_pluecker: tuple[int, ...] | None = None,
) -> tuple[list[SolutionCandidate], SolveDiagnostics]:
    """Kernel extraction at degree b in {1, 2}: validate, take the Macaulay
    kernel, extract its rank-one members, then verify them, or scan every
    point instead when the sweep is incomplete and the scan fits `brute_cap`.

    Returns lexicographically sorted verified solutions plus diagnostics.
    `fix_pluecker` pins the Plucker coordinate that is normalized to one
    during extraction (solutions on which it vanishes are then invisible,
    matching the normalization's invertibility assumption).
    """
    fixed_col = _validate(inst, b, fix_pluecker)
    rows, cols, rank, kernel = macaulay_kernel(inst, b, matrix_cap, basis=True)
    candidates, method, complete, note = _extract(
        inst.field, kernel, inst.K, comb(inst.n, inst.r), b, fixed_col)
    if not complete and projective_point_count(inst.field.q, inst.K) <= brute_cap:
        solutions, method, complete = brute_force_solve(inst, cap=brute_cap), "brute-fallback", True
        note = "kernel sweep infeasible; solutions from exhaustive scan"
    else:
        solutions = _verify(inst, candidates)
    notes = (note,) if note else ()
    return solutions, SolveDiagnostics(rows, cols, rank, len(kernel), method, complete,
                                       fix_pluecker, notes)
