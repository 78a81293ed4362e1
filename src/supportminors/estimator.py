"""Closed-form equation counts, solvability predicates, and cost models.

The count at every x-degree b is the alternating sum N_b of Bardet, Bros,
Cabarcas, Gaborit, Perlner, Smith-Tone, Tillich and Verbel, "Improvements
of algebraic attacks for solving the rank decoding and MinRank problems"
(ASIACRYPT 2020), less the submaximal syzygy dimension at r = n-1; `eqs`
says where it is proven.  Everything here is exact big-integer arithmetic
(math.comb), so the same functions serve both desk-scale verification and
cryptographic-size parameter exploration.  Cost figures are explicit
*models* of the linearization step, not measured quantities.
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


def macaulay_dims(p: ParameterSet, b: int) -> tuple[int, int]:
    """(rows, cols) of the degree-b Macaulay matrix, for any b >= 1."""
    if b < 1:
        raise ValueError(f"b must be at least 1, got {b}")
    rows = comb(p.K + b - 2, b - 1) * p.m * comb(p.n, p.r + 1)
    cols = comb(p.K + b - 1, b) * comb(p.n, p.r)
    return rows, cols


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


def _count(p: ParameterSet, b: int) -> int:
    """The generic rank N_b of Mac_b before clamping: the sum over i = 1..b
    of (-1)^(i+1) C(n, r+i) C(m+i-1, i) C(K+b-i-1, b-i), less
    submax_dim_formula at r = n-1."""
    total = sum((-1) ** (i + 1) * comb(p.n, p.r + i) * comb(p.m + i - 1, i)
                * comb(p.K + b - i - 1, b - i) for i in range(1, b + 1))
    return total - (submax_dim_formula(p.m, p.n, p.K, b) if p.r == p.n - 1 else 0)


def eqs(p: ParameterSet, b: int) -> tuple[int, bool]:
    """Independent equations at x-degree b >= 1 for generic inputs, and
    whether the count is proven there.

    The count is `_count` clamped to [0, min(rows, cols)] of Mac_b.  It is
    proven at b = 1; at b = 2 when m C(n,r+1) <= K C(n,r); and at r = n-1
    when K >= m.  Elsewhere the value is reported all the same.
    """
    rows, cols = macaulay_dims(p, b)
    precondition = (b == 1 or (b == 2 and p.m * comb(p.n, p.r + 1) <= p.K * comb(p.n, p.r))
                    or (p.r == p.n - 1 and p.K >= p.m))
    return max(0, min(_count(p, b), rows, cols)), precondition


def solvable(p: ParameterSet, b: int) -> bool:
    """Whether linearization at degree b is predicted to reach a solution."""
    return _count(p, b) >= macaulay_dims(p, b)[1] - 1


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
    """Per-degree report for b = 1, 2 plus any extra degrees."""
    entries = []
    for b in (1, 2) + tuple(sorted(set(extra_b) - {1, 2})):
        rows, cols = macaulay_dims(p, b)
        cost = cost_estimate(p, b)
        predicted, precondition = eqs(p, b)
        entries.append({
            "b": b,
            "rows": rows,
            "cols": cols,
            "predicted": predicted,
            "precondition": precondition,
            "solvable": solvable(p, b),
            "cost_dense": cost["dense"],
            "cost_sparse": cost["sparse"],
        })
    return ComplexityReport(p, tuple(entries))


def format_report(report: ComplexityReport) -> str:
    """Flat key=value block, one line per key, booleans as true/false."""
    lines = []
    for entry in report.entries:
        for key, value in entry.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"
