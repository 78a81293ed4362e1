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
sum_l M_l[h,j] x_l, one gather from the instance's stack) to x-linear
syzygies of any concrete instance.  A specialized syzygy is checked
exactly on arrays: for each Plucker coordinate T, the K x K matrix
S_T[a, ell] sums entry coefficient of x_a times equation coefficient of
x_ell * c_T, and the syzygy holds iff every monomial coefficient vanishes
mod q, i.e. S_T[a, b] + S_T[b, a] for a < b and S_T[a, a] on the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .combinatorics import subsets_colex
from .estimator import sprime_count
from .field import PrimeField
from .instance import MinRankInstance
from .linalg import rank as matrix_rank
from .modeling import BilinearSystem, MacaulayMatrix, MATRIX_CELL_CAP, macaulay


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


# Tuples here are built from lists: tuple() of a generator starts at a guessed
# size and resizes, so freed tuples pile up on the free list of their final
# size instead of being reused (1.1 MB more peak RSS on check-fields).


def _drops(jplus: tuple[int, ...]):
    """(J+ minus j_t, j_t, (-1)^t) for every t, in colex order of J+ minus j_t.

    Dropping a later element leaves a colex-smaller subset, so the order is
    by descending t.
    """
    return [(jplus[:t] + jplus[t + 1 :], jplus[t], -1 if t % 2 else 1)
            for t in range(len(jplus) - 1, -1, -1)]


def enumerate_sprime1(m: int, n: int, r: int) -> list[Syzygy]:
    """Duplicated-row syzygies: one per (h, (r+2)-subset J+); count m*C(n, r+2).

    Entries are in (row, colex) order of their equation ids.  Empty when
    r + 2 > n (no (r+2)-column subsets exist).
    """
    if r + 2 > n:
        return []
    return [
        Syzygy("y", tuple([((h, sub), LinearForm("y", (((h, j), sign),)))
                           for sub, j, sign in _drops(jplus)]), ("S1", h, jplus))
        for h in range(m)
        for jplus in subsets_colex(n, r + 2)
    ]


def enumerate_sprime3(m: int, n: int, r: int) -> list[Syzygy]:
    """Two-row difference syzygies: one per (h1 < h2, J+); count C(m,2)*C(n, r+2).

    Entry (h1, J+ minus j_t) carries y_{h2, j_t} and entry (h2, J+ minus j_t)
    carries y_{h1, j_t}, both with sign (-1)^t, in (row, colex) order.
    """
    if r + 2 > n or m < 2:
        return []
    out = []
    for h1, h2 in subsets_colex(m, 2):
        for jplus in subsets_colex(n, r + 2):
            drops = _drops(jplus)
            entries = tuple([((h, sub), LinearForm("y", (((other, j), sign),)))
                             for h, other in ((h1, h2), (h2, h1)) for sub, j, sign in drops])
            out.append(Syzygy("y", entries, ("S3", h1, h2, jplus)))
    return out


def enumerate_sprime(m: int, n: int, r: int) -> list[Syzygy]:
    return enumerate_sprime1(m, n, r) + enumerate_sprime3(m, n, r)


def specialize(s: Syzygy, inst: MinRankInstance) -> Syzygy:
    """Substitute y_{k,j} -> sum_l M_l[k,j] x_l, producing an x-universe syzygy.

    One gather M[:, k, j] * c mod q over all y-terms, summed per entry.
    Entries whose forms collapse to zero are dropped; a zero instance
    therefore specializes every syzygy to the empty one.
    """
    if s.universe != "y":
        raise ValueError("only y-universe syzygies can be specialized")
    q = inst.field.q
    keys, starts, ks, js, cs = [], [], [], [], []
    for (h, J), form in s.entries:
        if h >= inst.m or (J and J[-1] >= inst.n) or len(J) != inst.r + 1:
            raise ValueError(f"entry ({h}, {J}) does not fit an m={inst.m}, "
                             f"n={inst.n}, r={inst.r} instance")
        if form.coeffs:
            keys.append((h, J))
            starts.append(len(ks))
        for (k, j), c in form.coeffs:
            if k >= inst.m or j >= inst.n:
                raise ValueError(f"variable ({k}, {j}) out of range")
            ks.append(k)
            js.append(j)
            cs.append(c % q)
    if not ks:
        return Syzygy("x", (), s.origin)
    # Products are below q^2 < 2^62 and are reduced before the per-entry sum.
    terms = inst.stack[:, ks, js].T * np.array(cs)[:, None] % q
    forms = (np.add.reduceat(terms, starts) % q).tolist()
    new_entries = []
    for key, row in zip(keys, forms):
        coeffs = tuple([(ell, c) for ell, c in enumerate(row) if c])
        if coeffs:
            new_entries.append((key, LinearForm("x", coeffs)))
    return Syzygy("x", tuple(new_entries), s.origin)


def check_annihilation(field: PrimeField, s: Syzygy, equations: BilinearSystem) -> bool:
    """True iff sum over entries of entry * equation expands to zero.

    The expansion runs in the basis of (degree-2 x-monomial, Plucker subset)
    pairs, which is exact: no genericity or probabilistic reasoning is
    involved.  Outer products of the entries' x-forms with their equations'
    (r+1) x K blocks are reduced mod q (factors below 2^31, so each product
    is exact in int64) and summed per Plucker rank by one product.
    """
    if s.universe != "x":
        raise ValueError("annihilation is checked after specialization")
    if not s.entries:
        return True
    rows = np.array([equations.index(*key) for key, _ in s.entries])
    q = field.q
    coef = equations.coef[rows]  # (E, r+1, K)
    plk = equations.plk[rows % len(equations.plk)].ravel()
    K = coef.shape[2]
    x = [[0] * K for _ in s.entries]
    for row, (_, form) in zip(x, s.entries):
        for a, c in form.coeffs:
            if not 0 <= a < K:
                raise ValueError(f"x-variable {a} out of range for K={K}")
            row[a] += c % q
    x = np.array(x, dtype=np.int64) % q
    outer = (x[:, None, :, None] * coef[:, :, None, :] % q).reshape(len(plk), K * K)
    onehot = (np.arange(plk.max() + 1)[:, None] == plk).astype(np.int64)
    S = (onehot @ outer % q).reshape(-1, K, K)
    # x_a x_b (a < b) collects S[a, b] + S[b, a] and x_a^2 collects S[a, a]
    # alone; the doubled diagonal of `sym` is no test of it at q = 2.
    sym = (S + S.transpose(0, 2, 1)) % q
    return not sym.any() and not S.diagonal(axis1=1, axis2=2).any()


def syzygy_row_vector(s: Syzygy, mac: MacaulayMatrix) -> np.ndarray:
    """Coefficient vector of an x-linear syzygy over the rows of a degree-2
    Macaulay matrix; lies in the left kernel exactly when the syzygy holds."""
    if s.universe != "x":
        raise ValueError("row vectors are defined for specialized syzygies")
    if mac.b != 2:
        raise ValueError("row vectors live over the degree-2 Macaulay matrix")
    v = np.zeros(mac.n_rows, dtype=np.int64)
    for key, form in s.entries:
        ei = mac.equations.index(*key)
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
    return sum(sprime_count(m, n, r))


def generator_family_counts(m: int, n: int, r: int) -> dict[str, int]:
    """Sizes of the four full generating families for the (r+1)-minor
    syzygies of the stacked (m+r) x n generic matrix.

    Only the cardinality bookkeeping is provided: the families indexed over
    all row subsets involve minors outside the solver's equation set, and
    only their restrictions enumerated by enumerate_sprime1/enumerate_sprime3
    (row subsets meeting the pencil block in exactly the duplicated rows)
    are ever constructed.
    """
    sprime1, sprime3 = sprime_count(m, n, r)
    return {
        "S1": comb(m + r, r + 1) * (r + 1) * comb(n, r + 2),
        "S2": comb(m + r, r + 2) * comb(n, r + 1) * (r + 1),
        "S3": comb(m + r, r + 2) * comb(n, r + 2) * (r + 1),
        "S4": comb(m + r, r + 2) * comb(n, r + 2) * (r + 1),
        "Sprime1": sprime1,
        "Sprime3": sprime3,
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
