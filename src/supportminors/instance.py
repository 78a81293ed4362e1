"""MinRank instances: representation, generators, and the brute-force oracle.

An instance is K matrices M_0..M_{K-1} of shape m x n over GF(q), kept as
one (K, m, n) array, together with a target rank r; the pencil at x is
sum_l x_l M_l.  Solutions are nonzero x with 0 < rank(pencil(x)) <= r,
reported as projective representatives whose first nonzero coordinate
is 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .errors import CapExceededError
from .field import PrimeField
from .linalg import mat_mul, rank
from .prng import ChaChaStream

BRUTE_FORCE_CAP = 2_000_000  # projective points; keeps the oracle desk-scale


@dataclass(frozen=True, eq=False)
class MinRankInstance:
    """`stack` is the read-only (K, m, n) array of the matrices reduced mod q;
    `matrices` holds its K views."""

    field: PrimeField
    m: int
    n: int
    K: int
    r: int
    matrices: tuple[np.ndarray, ...]
    stack: np.ndarray = dc_field(init=False, repr=False)

    def __post_init__(self):
        if min(self.m, self.n, self.K, self.r) < 1:
            raise ValueError("m, n, K, r must be positive")
        if self.r > self.n:
            raise ValueError(f"target rank r={self.r} exceeds n={self.n}")
        stack = np.array(self.matrices, dtype=np.int64)  # a copy: the caller's array stays theirs
        if stack.shape != (self.K, self.m, self.n):
            raise ValueError(f"matrices of shape {stack.shape} != ({self.K}, {self.m}, {self.n})")
        if stack.min() < 0 or stack.max() >= self.field.q:
            stack %= self.field.q
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "matrices", tuple(stack))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinRankInstance):
            return NotImplemented
        return (self.field, self.r) == (other.field, other.r) and np.array_equal(self.stack, other.stack)

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class SolutionCandidate:
    """A normalized projective solution and the pencil rank it achieves."""

    x: tuple[int, ...]
    achieved_rank: int

    def __post_init__(self):
        nz = [v for v in self.x if v != 0]
        if not nz or nz[0] != 1:
            raise ValueError("x must be nonzero with first nonzero coordinate 1")


def _combine(stack: np.ndarray, x: Sequence[int], q: int) -> np.ndarray:
    """sum_l x_l stack[l] mod q.  Each product is below q^2 < 2^62 and is
    reduced before the sum, which is therefore exact while K q < 2^63."""
    x = np.array([v % q for v in x], dtype=np.int64)
    return (x[:, None, None] * stack % q).sum(axis=0) % q


def evaluate_pencil(inst: MinRankInstance, x: Sequence[int]) -> np.ndarray:
    """sum_l x_l M_l over GF(q)."""
    if len(x) != inst.K:
        raise ValueError(f"x has length {len(x)}, expected K={inst.K}")
    return _combine(inst.stack, x, inst.field.q)


def normalize_projective(field: PrimeField, x: Sequence[int]) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1; zero vectors are rejected."""
    vec = [int(v) % field.q for v in x]
    for v in vec:
        if v:
            inv = field.inv(v)
            return tuple(u * inv % field.q for u in vec)
    raise ValueError("cannot normalize the zero vector")


def verify_solution(inst: MinRankInstance, x: Sequence[int]) -> bool:
    """True iff the pencil at x is nonzero with rank at most inst.r."""
    return 0 < rank(inst.field, evaluate_pencil(inst, x)) <= inst.r


def _random_array(stream: ChaChaStream, field: PrimeField, *shape: int) -> np.ndarray:
    """Uniform entries of the given shape from one draw, in row-major order."""
    return stream.below_array(field.q, math.prod(shape)).reshape(shape)


def gen_random(field: PrimeField, m: int, n: int, K: int, seed: int, r: int = 1) -> MinRankInstance:
    """Uniformly random instance; matrices drawn in order, entries row-major."""
    return MinRankInstance(field, m, n, K, r, _random_array(ChaChaStream(seed), field, K, m, n))


def gen_planted(
    field: PrimeField, m: int, n: int, K: int, r: int, seed: int
) -> tuple[MinRankInstance, tuple[int, ...]]:
    """Random instance with a known solution x*.

    M_0..M_{K-2} are uniform; x* is uniform with its last coordinate forced
    nonzero; the last matrix is solved for so that the pencil at x* equals
    U V with U (m x r), V (r x n) random, redrawn until U V is nonzero.
    """
    if r > min(m, n):
        raise ValueError(f"planted rank r={r} must be at most min(m, n)")
    stream = ChaChaStream(seed)
    mats = _random_array(stream, field, K - 1, m, n)
    x = stream.below_array(field.q, K - 1).tolist()
    x.append(stream.nonzero_below(field.q))
    q = field.q
    while True:
        U = _random_array(stream, field, m, r)
        V = _random_array(stream, field, r, n)
        target = mat_mul(field, U, V)  # exact; U @ V in int64 can wrap at large q
        if target.any():
            break
    last = (target - _combine(mats, x[:-1], q)) * field.inv(x[-1]) % q
    inst = MinRankInstance(field, m, n, K, r, np.concatenate((mats, last[None])))
    return inst, tuple(x)


def projective_point_count(q: int, K: int) -> int:
    return (q**K - 1) // (q - 1)


def iter_projective(field: PrimeField, K: int):
    """Normalized representatives of P^{K-1}(GF(q)) in lexicographic order."""
    q = field.q
    for lead in range(K - 1, -1, -1):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=K - 1 - lead):
            yield prefix + tail


def brute_force_solve(inst: MinRankInstance, *, cap: int = BRUTE_FORCE_CAP) -> list[SolutionCandidate]:
    """Exhaustive oracle: all normalized x with 0 < rank(pencil(x)) <= inst.r.

    Output is lexicographically sorted.  Refuses instances whose projective
    point count exceeds the cap.
    """
    total = projective_point_count(inst.field.q, inst.K)
    if total > cap:
        raise CapExceededError(
            f"{total} projective points exceed the enumeration cap {cap}"
        )
    out = []
    for x in iter_projective(inst.field, inst.K):
        rk = rank(inst.field, evaluate_pencil(inst, x))
        if 0 < rk <= inst.r:
            out.append(SolutionCandidate(x, rk))
    return out


@dataclass(frozen=True)
class DecodingReduction:
    """Homogenized decoding instance plus how to read its solutions."""

    instance: MinRankInstance
    note: str


def decoding_to_minrank(
    field: PrimeField, M0: np.ndarray, basis: Sequence[np.ndarray], radius: int
) -> DecodingReduction:
    """Reduce rank-metric decoding of M0 against a code basis to MinRank.

    The instance has K+1 matrices (basis..., M0); a solution with last
    coordinate lam != 0 decodes to coefficients -lam^{-1} (x_0..x_{K-1}),
    i.e. M0 minus the decoded codeword has rank at most the radius.
    """
    m, n = np.shape(M0)
    inst = MinRankInstance(field, m, n, len(basis) + 1, radius, (*basis, M0))
    note = (
        "solution (x_0..x_{K-1}, lam) with lam != 0 decodes to "
        "c = -lam^{-1} (x_0..x_{K-1}); rank(M0 - sum c_l B_l) <= radius"
    )
    return DecodingReduction(inst, note)


def decoding_coefficients(field: PrimeField, x_hom: Sequence[int]) -> tuple[int, ...] | None:
    """Map a homogeneous solution back to decoding coefficients; None if lam = 0."""
    lam = x_hom[-1] % field.q
    if lam == 0:
        return None
    scale = -field.inv(lam) % field.q
    return tuple(v * scale % field.q for v in x_hom[:-1])


def elementary_instance(field: PrimeField, m: int, n: int, r: int) -> MinRankInstance:
    """K = m*n instance whose matrices are the elementary basis E_{kj}.

    The pencil entry (k, j) is then the single variable x_{k*n+j}, which
    makes substitution into generic-variable identities a pure renaming.
    """
    return MinRankInstance(field, m, n, m * n, r, np.eye(m * n, dtype=np.int64).reshape(-1, m, n))
