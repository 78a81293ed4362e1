"""Explicit linear syzygies of the bilinear minor system.

Two families annihilate the equations identically, for every instance over
every field.  Writing eq(h, J) for the minor equations and working with a
generic pencil entry y_{h,j}:

* duplicated-row family S'1: stacking row h twice over C on an
  (r+2)-column set J+ and expanding along the duplicate gives
  sum_t (-1)^t y_{h, j_t} eq(h, J+ \\ {j_t}) = 0;
* two-row family S'3: for rows h1 < h2 on columns J+, the difference of the
  expansions along the two pencil rows gives
  sum_t (-1)^t [ y_{h1, j_t} eq(h2, J+ \\ {j_t}) + y_{h2, j_t} eq(h1, J+ \\ {j_t}) ] = 0.

A family holds three read-only (F, E) int64 arrays, E = 2(r+2) entries per
member: the equation index `eq` = row * C(n, r+1) + colex(J), the
y-variable `var` = k*n + j and `sign` in {-1, 0, +1}; S'1 members pad their
second half with sign 0.  Members run over rows, then colex J+; entries over
rows, then colex order of their equations' column sets.  `specialize`
substitutes y_{k,j} -> sum_l M_l[k,j] x_l by one gather from the instance's
stack, giving (F, E, K) x-forms mod q, and `check_annihilation` verifies
them by one scatter-sum into (member, Plucker, monomial) bins (see there).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from .combinatorics import drop_ranks, monomial_rank, subsets_colex
from .estimator import sprime_count
from .field import PrimeField
from .instance import MinRankInstance
# perfbench/layers.py EXPECTED requires the unused `matrix_rank` and `macaulay`.
from .linalg import rank as matrix_rank  # noqa: F401
from .modeling import BilinearSystem, MacaulayMatrix, MATRIX_CELL_CAP, macaulay_kernel
from .modeling import macaulay  # noqa: F401


class _Members:
    """`len`, one-member families `fam[i]` and iteration over them."""

    _arrays: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.eq)

    def __getitem__(self, i: int):
        i = range(len(self))[i]  # IndexError past the end; negative i counts from it
        arrays = (getattr(self, a)[i : i + 1] for a in self._arrays)
        return type(self)(self.m, self.n, self.r, *arrays)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True, eq=False)
class SyzygyFamily(_Members):
    """Generic syzygies: member f is sum_e sign[f, e] * y_{var[f, e]} * eq(eq[f, e])."""

    _arrays = ("eq", "var", "sign")
    m: int
    n: int
    r: int
    eq: np.ndarray
    var: np.ndarray
    sign: np.ndarray


@dataclass(frozen=True, eq=False)
class SpecializedFamily(_Members):
    """x-linear syzygies of one instance: member f is
    sum_e (sum_a forms[f, e, a] x_a) * eq(eq[f, e]), coefficients mod q."""

    _arrays = ("eq", "forms")
    m: int
    n: int
    r: int
    eq: np.ndarray
    forms: np.ndarray


def _family(m: int, n: int, r: int, pairs: list[tuple[int, int]]) -> SyzygyFamily:
    """Members over pairs (h1, h2), then colex J+: entry (u, t) is
    (-1)^t y_{h_{1-u}, j_t} eq(h_u, J+ minus j_t), in order of u, then
    descending t (colex order of J+ minus j_t); h1 = h2 (S'1) keeps u = 0."""
    ts = np.arange(r + 1, -1, -1)
    cols = np.array(list(subsets_colex(n, r + 2)), dtype=np.int64).reshape(-1, r + 2)[:, ts]
    drops = drop_ranks(n, r + 2)[:, ts]
    rows = np.array(pairs, dtype=np.int64).reshape(-1, 1, 2, 1)
    live = (np.arange(2)[:, None] == 0) | (rows[:, :, :1] != rows[:, :, 1:])
    full = (len(rows), len(cols), 2, r + 2)
    arrays = [np.broadcast_to(a, full).reshape(-1, 2 * (r + 2)) for a in (
        rows * comb(n, r + 1) + drops[:, None, :],
        rows[:, :, ::-1] * n + cols[:, None, :],
        live * np.where(ts % 2, -1, 1),
    )]
    for a in arrays:
        a.setflags(write=False)
    return SyzygyFamily(m, n, r, *arrays)


def enumerate_sprime1(m: int, n: int, r: int) -> SyzygyFamily:
    """Duplicated-row syzygies: one per (h, (r+2)-subset J+); count m*C(n, r+2).

    Empty when r + 2 > n (no (r+2)-column subsets exist).
    """
    return _family(m, n, r, [(h, h) for h in range(m)])


def enumerate_sprime3(m: int, n: int, r: int) -> SyzygyFamily:
    """Two-row difference syzygies: one per (h1 < h2, J+); count C(m,2)*C(n, r+2).

    Entry (h1, J+ minus j_t) carries y_{h2, j_t} and entry (h2, J+ minus j_t)
    carries y_{h1, j_t}, both with sign (-1)^t.
    """
    return _family(m, n, r, list(subsets_colex(m, 2)))


def enumerate_sprime(m: int, n: int, r: int) -> SyzygyFamily:
    """S'1 followed by S'3, as one family."""
    return _family(m, n, r, [(h, h) for h in range(m)] + list(subsets_colex(m, 2)))


def specialize(fam: SyzygyFamily, inst: MinRankInstance) -> SpecializedFamily:
    """Substitute y_{k,j} -> sum_l M_l[k,j] x_l: forms[f, e] = sign[f, e] *
    stack[:, k, j] mod q, one gather over all members.  Sign-0 entries and a
    zero instance give zero forms."""
    if (fam.m, fam.n, fam.r) != (inst.m, inst.n, inst.r):
        raise ValueError(f"family for (m, n, r) = {(fam.m, fam.n, fam.r)} on an instance "
                         f"with {(inst.m, inst.n, inst.r)}")
    forms = inst.stack.reshape(inst.K, -1).T[fam.var] * fam.sign[:, :, None] % inst.field.q
    forms.setflags(write=False)
    return SpecializedFamily(fam.m, fam.n, fam.r, fam.eq, forms)


def _check_fits(spec: SpecializedFamily, eqs: BilinearSystem) -> None:
    got = (spec.m, spec.n, spec.r, spec.forms.shape[2])
    want = (eqs.m, eqs.n, eqs.r, eqs.coef.shape[2])
    if got != want:
        raise ValueError(f"family for (m, n, r, K) = {got} on a system with {want}")


@functools.cache
def _monomial_ranks(K: int) -> np.ndarray:
    """Read-only (K, K) table of the colex rank of x_a x_ell among the degree-2
    monomials."""
    ranks = np.array([[monomial_rank((min(a, ell), max(a, ell))) for ell in range(K)]
                      for a in range(K)], dtype=np.int64)
    ranks.setflags(write=False)
    return ranks


def check_annihilation(field: PrimeField, spec: SpecializedFamily, equations: BilinearSystem) -> bool:
    """True iff every member's sum of entry * equation expands to zero, exactly.

    One `np.bincount` adds each product of an entry's x_a and its equation's
    x_ell c_T coefficients, reduced mod q (factors below 2^31, exact in
    int64), into the bin of (member, Plucker rank T, colex rank of
    x_a x_ell): x_a x_b collects both orders, x_a^2 only its own products
    (also at q = 2), and a member annihilates iff its bins are 0 mod q.  One
    term per equation has T, so a bin of an E-entry member sums at most 2 E
    residues, far below 2^53: every float64 sum is exact.
    """
    _check_fits(spec, equations)
    q, (F, _, K) = field.q, spec.forms.shape
    M, P = K * (K + 1) // 2, comb(spec.n, spec.r)
    plk = np.take(equations.plk, spec.eq, axis=0, mode="wrap")  # row eq mod C(n, r+1) = colex(J)
    key = ((plk + np.arange(0, F * P, P)[:, None, None]) * M)[..., None, None] + _monomial_ranks(K)
    prod = spec.forms[:, :, None, :, None] * equations.coef[spec.eq][:, :, :, None, :] % q
    bins = np.bincount(key.ravel(), prod.ravel(), F * P * M)
    return not np.count_nonzero(bins.astype(np.int64) % q)


def syzygy_row_vector(spec: SpecializedFamily, mac: MacaulayMatrix) -> np.ndarray:
    """One row per member: its coefficient vector over the rows of a degree-2
    Macaulay matrix, which lies in the left kernel exactly when the member
    annihilates.  A member's nonzero entries name distinct equations, as in
    the enumerated families."""
    if mac.b != 2:
        raise ValueError("row vectors live over the degree-2 Macaulay matrix")
    _check_fits(spec, mac.equations)
    f, e, a = np.nonzero(spec.forms)
    out = np.zeros((len(spec), mac.n_rows), dtype=np.int64)
    out[f, a * len(mac.equations) + spec.eq[f, e]] = spec.forms[f, e, a]
    return out


def xonly_syzygy_dim(inst: MinRankInstance, d: int, cap: int = MATRIX_CELL_CAP) -> int:
    """Dimension of the syzygies whose entries are x-only forms of degree d.

    Computed as the left-kernel dimension of the Macaulay matrix whose rows
    are (degree-d monomial) * equation, i.e. the matrix at x-degree d + 1.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    rows, _, rank, _ = macaulay_kernel(inst, d + 1, cap)
    return rows - rank


def linear_syzygy_dim_prediction(m: int, n: int, r: int) -> int:
    """Generic count of x-linear syzygies: C(m+1, 2) * C(n, r+2)."""
    return sum(sprime_count(m, n, r))


def generator_family_counts(m: int, n: int, r: int) -> dict[str, int]:
    """Sizes of the four full generating families for the (r+1)-minor
    syzygies of the stacked (m+r) x n generic matrix.

    Only the cardinality bookkeeping: the full families involve minors
    outside the solver's equation set, and only their restrictions S'1 and
    S'3 (row subsets meeting the pencil block in exactly the duplicated
    rows) are enumerated.
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
