"""Explicit linear syzygies of the bilinear minor system.

Two families annihilate the equations identically, for every instance over
every field.  Writing eq(h, J) for the minor equations and working with a
generic pencil entry y_{h,j}:

* duplicated-row family: stacking row h twice over C on an (r+2)-column
  set J+ and expanding along the duplicate gives
  sum_t (-1)^t y_{h, j_t} eq(h, J+ \\ {j_t}) = 0;
* two-row family: for rows h1 < h2 on columns J+, the difference of the
  expansions along the two pencil rows gives
  sum_t (-1)^t [ y_{h1, j_t} eq(h2, J+ \\ {j_t}) + y_{h2, j_t} eq(h1, J+ \\ {j_t}) ] = 0.

Enumerated over generic y-variables, these specialize (y_{h,j} ->
sum_l M_l[h,j] x_l) to x-linear syzygies of any concrete instance; the
same substitution makes the identities checkable by expanding in the
(x-monomial, Plucker) basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .combinatorics import subsets_colex, subset_rank
from .field import PrimeField
from .instance import MinRankInstance
from .linalg import rank as matrix_rank
from .modeling import BilinearEquation, MacaulayMatrix, MATRIX_CELL_CAP, macaulay


@dataclass(frozen=True)
class LinearForm:
    """Sparse linear form; variables are (row, col) pairs in the generic
    y-universe and plain int indices in the x-universe."""

    universe: str  # "y" or "x"
    coeffs: tuple[tuple[object, int], ...]  # (variable, nonzero coefficient)


@dataclass(frozen=True)
class Syzygy:
    """Coefficient vector over equation ids (h, J) with linear-form entries."""

    universe: str
    entries: tuple[tuple[tuple[int, tuple[int, ...]], LinearForm], ...]
    origin: tuple


def _sorted_entries(entries):
    return tuple(sorted(entries, key=lambda kv: (kv[0][0], subset_rank(kv[0][1]))))


def enumerate_sprime1(m: int, n: int, r: int) -> list[Syzygy]:
    """Duplicated-row syzygies: one per (h, (r+2)-subset J+); count m*C(n, r+2).

    Empty when r + 2 > n (no (r+2)-column subsets exist).
    """
    out = []
    if r + 2 > n:
        return out
    for h in range(m):
        for jplus in subsets_colex(n, r + 2):
            entries = []
            for t, j in enumerate(jplus):
                sign = 1 if t % 2 == 0 else -1
                key = (h, jplus[:t] + jplus[t + 1 :])
                entries.append((key, LinearForm("y", (((h, j), sign),))))
            out.append(Syzygy("y", _sorted_entries(entries), ("S1", h, jplus)))
    return out


def enumerate_sprime3(m: int, n: int, r: int) -> list[Syzygy]:
    """Two-row difference syzygies: one per (h1 < h2, J+); count C(m,2)*C(n, r+2)."""
    out = []
    if r + 2 > n or m < 2:
        return out
    for h1, h2 in subsets_colex(m, 2):
        for jplus in subsets_colex(n, r + 2):
            entries: dict[tuple[int, tuple[int, ...]], list] = {}
            for t, j in enumerate(jplus):
                sign = 1 if t % 2 == 0 else -1
                sub = jplus[:t] + jplus[t + 1 :]
                entries.setdefault((h2, sub), []).append(((h1, j), sign))
                entries.setdefault((h1, sub), []).append(((h2, j), sign))
            packed = [
                (key, LinearForm("y", tuple(sorted(terms))))
                for key, terms in entries.items()
            ]
            out.append(Syzygy("y", _sorted_entries(packed), ("S3", h1, h2, jplus)))
    return out


def enumerate_sprime(m: int, n: int, r: int) -> list[Syzygy]:
    return enumerate_sprime1(m, n, r) + enumerate_sprime3(m, n, r)


def specialize(s: Syzygy, inst: MinRankInstance) -> Syzygy:
    """Substitute y_{k,j} -> sum_l M_l[k,j] x_l, producing an x-universe syzygy.

    Entries whose forms collapse to zero are dropped; a zero instance
    therefore specializes every syzygy to the empty one.
    """
    if s.universe != "y":
        raise ValueError("only y-universe syzygies can be specialized")
    q = inst.field.q
    new_entries = []
    for (h, J), form in s.entries:
        if h >= inst.m or (J and J[-1] >= inst.n) or len(J) != inst.r + 1:
            raise ValueError(f"entry ({h}, {J}) does not fit an m={inst.m}, "
                             f"n={inst.n}, r={inst.r} instance")
        acc: dict[int, int] = {}
        for (k, j), c in form.coeffs:
            if k >= inst.m or j >= inst.n:
                raise ValueError(f"variable ({k}, {j}) out of range")
            for ell in range(inst.K):
                v = (acc.get(ell, 0) + c * int(inst.matrices[ell][k, j])) % q
                if v:
                    acc[ell] = v
                elif ell in acc:
                    del acc[ell]
        if acc:
            new_entries.append(((h, J), LinearForm("x", tuple(sorted(acc.items())))))
    return Syzygy("x", tuple(new_entries), s.origin)


def check_annihilation(
    field: PrimeField, s: Syzygy, equations: list[BilinearEquation]
) -> bool:
    """True iff sum over entries of entry * equation expands to zero.

    The expansion runs in the basis of (degree-2 x-monomial, Plucker subset)
    pairs, which is exact: no genericity or probabilistic reasoning is
    involved.
    """
    if s.universe != "x":
        raise ValueError("annihilation is checked after specialization")
    eq_map = {(e.row, e.cols): e for e in equations}
    q = field.q
    acc: dict[tuple[tuple[int, int], tuple[int, ...]], int] = {}
    for key, form in s.entries:
        if key not in eq_map:
            raise ValueError(f"syzygy entry {key} has no matching equation")
        for a, ca in form.coeffs:
            for ell, T, ce in eq_map[key].terms:
                mono = (a, ell) if a <= ell else (ell, a)
                k = (mono, T)
                v = (acc.get(k, 0) + ca * ce) % q
                if v:
                    acc[k] = v
                elif k in acc:
                    del acc[k]
    return not acc


def syzygy_row_vector(s: Syzygy, mac: MacaulayMatrix) -> np.ndarray:
    """Coefficient vector of an x-linear syzygy over the rows of a degree-2
    Macaulay matrix; lies in the left kernel exactly when the syzygy holds."""
    if s.universe != "x":
        raise ValueError("row vectors are defined for specialized syzygies")
    if mac.b != 2:
        raise ValueError("row vectors live over the degree-2 Macaulay matrix")
    eq_index = {(e.row, e.cols): i for i, e in enumerate(mac.equations)}
    v = np.zeros(mac.n_rows, dtype=np.int64)
    for key, form in s.entries:
        ei = eq_index[key]
        for a, c in form.coeffs:
            v[mac.row_id((a,), ei)] = c
    return v


def xonly_syzygy_dim(inst: MinRankInstance, d: int, cap: int = MATRIX_CELL_CAP) -> int:
    """Dimension of the syzygies whose entries are x-only forms of degree d.

    Computed as the left-kernel dimension of the Macaulay matrix whose rows
    are (degree-d monomial) * equation, i.e. the matrix at x-degree d + 1.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    mac = macaulay(inst, d + 1, cap=cap)
    return mac.n_rows - matrix_rank(inst.field, mac.data)


def linear_syzygy_dim_prediction(m: int, n: int, r: int) -> int:
    """Generic count of x-linear syzygies: C(m+1, 2) * C(n, r+2)."""
    return comb(m + 1, 2) * comb(n, r + 2)


def generator_family_counts(m: int, n: int, r: int) -> dict[str, int]:
    """Sizes of the four full generating families for the (r+1)-minor
    syzygies of the stacked (m+r) x n generic matrix.

    Only the cardinality bookkeeping is provided: the families indexed over
    all row subsets involve minors outside the solver's equation set, and
    only their restrictions enumerated by enumerate_sprime1/enumerate_sprime3
    (row subsets meeting the pencil block in exactly the duplicated rows)
    are ever constructed.
    """
    return {
        "S1": comb(m + r, r + 1) * (r + 1) * comb(n, r + 2),
        "S2": comb(m + r, r + 2) * comb(n, r + 1) * (r + 1),
        "S3": comb(m + r, r + 2) * comb(n, r + 2) * (r + 1),
        "S4": comb(m + r, r + 2) * comb(n, r + 2) * (r + 1),
        "Sprime1": m * comb(n, r + 2),
        "Sprime3": comb(m, 2) * comb(n, r + 2),
    }


def submax_dim_formula(m: int, n: int, K: int, b: int) -> int:
    """Closed-form syzygy-space dimension in the submaximal regime r = n-1.

    Alternating sum over i of C(m, n+i) C(n, i-1) C(K+b-n-i-1, K-1), up to
    min(m-n, n+1, b-n); the empty range (b <= n or m <= n) gives 0.
    """
    upper = min(m - n, n + 1, b - n)
    total = 0
    for i in range(1, upper + 1):
        term = comb(m, n + i) * comb(n, i - 1) * comb(K + b - n - i - 1, K - 1)
        total += term if i % 2 == 1 else -term
    return total


def submax_dim_empirical(inst: MinRankInstance, b: int, cap: int = MATRIX_CELL_CAP) -> int:
    """Left-kernel dimension at x-degree b - 1 for an r = n-1 instance.

    For generic instances with K >= m this equals submax_dim_formula.  The
    value is observed, not asserted.
    """
    if inst.r != inst.n - 1:
        raise ValueError("submaximal checks require r = n - 1")
    if b < 2:
        raise ValueError(f"b must be at least 2, got {b}")
    return xonly_syzygy_dim(inst, b - 1, cap=cap)
