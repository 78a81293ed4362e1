"""Independent reference implementations used as test oracles.

Everything here is deliberately written without the package's linear
algebra: pure-Python lists, permutation-expansion determinants, and a tiny
dict-based polynomial type, so the two sides of every comparison share no
code path.
"""

from __future__ import annotations

import itertools


def ref_rref(rows: list[list[int]], q: int) -> tuple[int, list[list[int]], list[int]]:
    """Gauss-Jordan elimination on lists of Python ints: (rank, RREF, pivots)."""
    M = [[v % q for v in row] for row in rows]
    ncols = len(M[0]) if M else 0
    pivots: list[int] = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(M):
            break
        piv = None
        for i in range(rank, len(M)):
            if M[i][col] % q:
                piv = i
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][col], q - 2, q)
        M[rank] = [v * inv % q for v in M[rank]]
        for i in range(len(M)):
            if i != rank and M[i][col]:
                f = M[i][col]
                M[i] = [(a - f * b) % q for a, b in zip(M[i], M[rank])]
        pivots.append(col)
    return len(pivots), M, pivots


def ref_rank(rows: list[list[int]], q: int) -> int:
    return ref_rref(rows, q)[0]


def ref_det(M: list[list[int]], q: int) -> int:
    """Leibniz expansion over all permutations (tiny matrices only)."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = perm_sign(perm)
        prod = 1
        for i in range(n):
            prod = prod * M[i][perm[i]] % q
        total = (total + sign * prod) % q
    return total


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets sorted by reversed-tuple comparison (= colex)."""
    return sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])


def colex_monomials(K: int, d: int) -> list[tuple[int, ...]]:
    """Degree-d monomials sorted by reversed exponent vectors (= colex)."""
    monos = itertools.combinations_with_replacement(range(K), d)

    def expvec(mono):
        e = [0] * K
        for v in mono:
            e[v] += 1
        return tuple(reversed(e))

    return sorted(monos, key=expvec)


def projective_points(q: int, K: int) -> list[tuple[int, ...]]:
    """Normalized projective representatives via full enumeration + dedupe."""
    seen = set()
    for x in itertools.product(range(q), repeat=K):
        for v in x:
            if v:
                inv = pow(v, q - 2, q)
                seen.add(tuple(u * inv % q for u in x))
                break
    return sorted(seen)


class Poly:
    """Multivariate polynomial as dict: monomial (sorted var tuple) -> coeff."""

    def __init__(self, q: int, terms: dict | None = None):
        self.q = q
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                c %= q
                if c:
                    self.terms[tuple(sorted(mono))] = c

    @classmethod
    def const(cls, q, c):
        return cls(q, {(): c})

    @classmethod
    def var(cls, q, name):
        return cls(q, {(name,): 1})

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = (out.get(mono, 0) + c) % self.q
        return Poly(self.q, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = (out.get(mono, 0) - c) % self.q
        return Poly(self.q, out)

    def __mul__(self, other):
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = (out.get(mono, 0) + c1 * c2) % self.q
        return Poly(self.q, out)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.q == other.q and self.terms == other.terms


def poly_det(q: int, M: list[list[Poly]]) -> Poly:
    """Determinant of a matrix of polynomials by permutation expansion."""
    n = len(M)
    total = Poly(q)
    for perm in itertools.permutations(range(n)):
        sign = perm_sign(perm)
        prod = Poly.const(q, sign)
        for i in range(n):
            prod = prod * M[i][perm[i]]
        total = total + prod
    return total
