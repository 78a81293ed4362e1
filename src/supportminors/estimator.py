"""Closed-form equation counts, solvability predicates, and cost models.

Everything here is exact big-integer arithmetic (math.comb), so the same
functions serve both desk-scale verification and cryptographic-size
parameter exploration.  Cost figures are explicit *models* of the
linearization step, not measured quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class ParameterSet:
    m: int
    n: int
    K: int
    r: int

    def __post_init__(self):
        if min(self.m, self.n, self.K, self.r) < 1:
            raise ValueError("m, n, K, r must be positive")
        if self.r > self.n:
            raise ValueError(f"r={self.r} exceeds n={self.n}")


def eqs_b1(p: ParameterSet) -> int:
    """Independent equations available at x-degree 1 for generic inputs."""
    return min(p.m * comb(p.n, p.r + 1), p.K * comb(p.n, p.r))


def eqs_b2(p: ParameterSet) -> tuple[int, bool]:
    """Independent-equation count at x-degree 2 and its precondition flag.

    The count is min(K m C(n,r+1) - C(m+1,2) C(n,r+2), C(K+1,2) C(n,r)),
    clamped at 0 (a rank is never negative); the flag records whether
    m C(n,r+1) <= K C(n,r) held (the regime in which the count is proven).
    The value is reported either way.
    """
    rows_minus_syz = p.K * p.m * comb(p.n, p.r + 1) - comb(p.m + 1, 2) * comb(p.n, p.r + 2)
    value = max(0, min(rows_minus_syz, comb(p.K + 1, 2) * comb(p.n, p.r)))
    precondition = p.m * comb(p.n, p.r + 1) <= p.K * comb(p.n, p.r)
    return value, precondition


def solvable(p: ParameterSet, b: int) -> bool:
    """Whether linearization at degree b is predicted to reach a solution."""
    if b == 1:
        return p.m * comb(p.n, p.r + 1) >= p.K * comb(p.n, p.r) - 1
    if b == 2:
        lhs = p.K * p.m * comb(p.n, p.r + 1) - comb(p.m + 1, 2) * comb(p.n, p.r + 2)
        return lhs >= comb(p.K + 1, 2) * comb(p.n, p.r) - 1
    raise ValueError(f"solvability is only predicted for b in {{1, 2}}, got {b}")


def macaulay_dims(p: ParameterSet, b: int) -> tuple[int, int]:
    """(rows, cols) of the degree-b Macaulay matrix, for any b >= 1."""
    if b < 1:
        raise ValueError(f"b must be at least 1, got {b}")
    rows = comb(p.K + b - 2, b - 1) * p.m * comb(p.n, p.r + 1)
    cols = comb(p.K + b - 1, b) * comb(p.n, p.r)
    return rows, cols


# Cost model: dense elimination ~ rows*cols*min(rows, cols) field ops; the
# sparse figure assumes ~3 ops per retained cell over cols^2 cells times the
# structural row weight (r+1)*K.  Both are bookkeeping, not measurements.
def cost_estimate(p: ParameterSet, b: int) -> dict[str, int]:
    rows, cols = macaulay_dims(p, b)
    dense = rows * cols * min(rows, cols)
    sparse = 3 * cols * cols * (p.r + 1) * p.K
    if rows == 0 or cols == 0:
        dense = sparse = 0
    return {"dense": dense, "sparse": sparse}


def sprime_count(m: int, n: int, r: int) -> tuple[int, int]:
    """Sizes of the two explicit syzygy families at x-degree 1."""
    return m * comb(n, r + 2), comb(m, 2) * comb(n, r + 2)


@dataclass(frozen=True)
class ComplexityReport:
    params: ParameterSet
    entries: tuple[dict, ...]  # per-b dicts with stable keys


def complexity_report(p: ParameterSet, extra_b: tuple[int, ...] = ()) -> ComplexityReport:
    """Per-degree report for b = 1, 2 plus any extra degrees (dims/cost only)."""
    entries = []
    for b in (1, 2) + tuple(sorted(set(extra_b) - {1, 2})):
        rows, cols = macaulay_dims(p, b)
        cost = cost_estimate(p, b)
        entry: dict = {
            "b": b,
            "rows": rows,
            "cols": cols,
            "cost_dense": cost["dense"],
            "cost_sparse": cost["sparse"],
        }
        if b == 1:
            entry["predicted"] = eqs_b1(p)
            entry["precondition"] = True
            entry["solvable"] = solvable(p, 1)
        elif b == 2:
            value, pre = eqs_b2(p)
            entry["predicted"] = value
            entry["precondition"] = pre
            entry["solvable"] = solvable(p, 2)
        if "predicted" in entry:
            assert entry["predicted"] <= min(rows, cols)
        entries.append(entry)
    return ComplexityReport(p, tuple(entries))


_KEY_ORDER = ("b", "rows", "cols", "predicted", "precondition", "solvable",
              "cost_dense", "cost_sparse")


def format_report(report: ComplexityReport) -> str:
    """Flat key=value block, one line per key, booleans as true/false."""
    lines = []
    for entry in report.entries:
        for key in _KEY_ORDER:
            if key not in entry:
                continue
            value = entry[key]
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
