"""Colexicographic ranking of subsets and monomials.

Subsets of {0, ..., n-1} are strictly increasing int tuples; the colex rank
of (j_0 < ... < j_{k-1}) is sum_t C(j_t, t+1) (combinatorial number system).
Monomials in K variables are weakly increasing tuples of variable indices;
their colex order equals colex order on exponent vectors and is obtained by
the staircase bijection onto (k = degree)-subsets of {0, ..., K+d-2}.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

import numpy as np


def subset_rank(J: tuple[int, ...]) -> int:
    """Colex rank of a strictly increasing subset tuple."""
    r = 0
    prev = -1
    for t, j in enumerate(J):
        if j <= prev:
            raise ValueError(f"subset {J} is not strictly increasing")
        prev = j
        r += comb(j, t + 1)
    return r


def subsets_colex(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of {0..n-1} in colex order."""
    if k == 0:
        yield ()
        return
    if k > n:
        return
    for top in range(k - 1, n):
        for rest in subsets_colex(top, k - 1):
            yield rest + (top,)


def drop_ranks(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) int64 table whose entry [colex(J), t] is the colex rank
    of the k-subset J minus its element j_t."""
    rank_of = {T: i for i, T in enumerate(subsets_colex(n, k - 1))}
    return np.array([[rank_of[J[:t] + J[t + 1 :]] for t in range(k)]
                     for J in subsets_colex(n, k)], dtype=np.int64).reshape(-1, k)


def monomial_rank(mono: tuple[int, ...]) -> int:
    """Colex rank of a weakly increasing monomial tuple among its degree."""
    staircased = tuple(v + t for t, v in enumerate(mono))
    return subset_rank(staircased)


def monomials_colex(K: int, d: int) -> Iterator[tuple[int, ...]]:
    """All degree-d monomials in K variables, colex on exponent vectors."""
    for subset in subsets_colex(K + d - 1, d):
        yield tuple(j - t for t, j in enumerate(subset))


def monomial_mul(mono: tuple[int, ...], var: int) -> tuple[int, ...]:
    """Multiply a monomial by one variable, keeping the tuple sorted."""
    out = list(mono)
    out.append(var)
    out.sort()
    return tuple(out)
