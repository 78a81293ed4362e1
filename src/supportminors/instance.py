"""MinRank instances: representation, generators, and the brute-force oracle.

An instance is K matrices M_0..M_{K-1} of shape m x n over GF(q) together
with a target rank r; the pencil at x is sum_l x_l M_l.  Solutions are
nonzero x with 0 < rank(pencil(x)) <= r, reported as projective
representatives whose first nonzero coordinate is 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExceededError
from .field import PrimeField
from .linalg import as_matrix, rank, zeros_matrix
from .prng import ChaChaStream

BRUTE_FORCE_CAP = 2_000_000  # projective points; keeps the oracle desk-scale


@dataclass(frozen=True, eq=False)
class MinRankInstance:
    field: PrimeField
    m: int
    n: int
    K: int
    r: int
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        if min(self.m, self.n, self.K, self.r) < 1:
            raise ValueError("m, n, K, r must be positive")
        if self.r > self.n:
            raise ValueError(f"target rank r={self.r} exceeds n={self.n}")
        if len(self.matrices) != self.K:
            raise ValueError(f"expected {self.K} matrices, got {len(self.matrices)}")
        q = self.field.q
        frozen = []
        for M in self.matrices:
            M = as_matrix(self.field, M)
            if M.shape != (self.m, self.n):
                raise ValueError(f"matrix shape {M.shape} != ({self.m}, {self.n})")
            if M.min(initial=0) < 0 or M.max(initial=0) >= q:
                raise ValueError("entries must lie in [0, q)")
            M.setflags(write=False)
            frozen.append(M)
        object.__setattr__(self, "matrices", tuple(frozen))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MinRankInstance):
            return NotImplemented
        return (
            self.field == other.field
            and (self.m, self.n, self.K, self.r) == (other.m, other.n, other.K, other.r)
            and all(np.array_equal(a, b) for a, b in zip(self.matrices, other.matrices))
        )

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


def evaluate_pencil(inst: MinRankInstance, x: Sequence[int]) -> np.ndarray:
    """sum_l x_l M_l over GF(q)."""
    if len(x) != inst.K:
        raise ValueError(f"x has length {len(x)}, expected K={inst.K}")
    q = inst.field.q
    acc = zeros_matrix(inst.m, inst.n)
    for coeff, M in zip(x, inst.matrices):
        c = coeff % q
        if c:
            acc = (acc + c * M) % q
    return acc


def normalize_projective(field: PrimeField, x: Sequence[int]) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is 1; zero vectors are rejected."""
    vec = [int(v) % field.q for v in x]
    for v in vec:
        if v:
            inv = field.inv(v)
            return tuple(u * inv % field.q for u in vec)
    raise ValueError("cannot normalize the zero vector")


def verify_solution(inst: MinRankInstance, x: Sequence[int], r: int | None = None) -> bool:
    """True iff the pencil at x is nonzero with rank at most r."""
    if r is None:
        r = inst.r
    P = evaluate_pencil(inst, x)
    if not P.any():
        return False
    return rank(inst.field, P) <= r


def _random_array(stream: ChaChaStream, field: PrimeField, *shape: int) -> np.ndarray:
    """Uniform entries of the given shape from one draw, in row-major order."""
    return stream.below_array(field.q, math.prod(shape)).reshape(shape)


def gen_random(field: PrimeField, m: int, n: int, K: int, seed: int, r: int = 1) -> MinRankInstance:
    """Uniformly random instance; matrices drawn in order, entries row-major."""
    mats = _random_array(ChaChaStream(seed), field, K, m, n)
    return MinRankInstance(field, m, n, K, r, tuple(mats))


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
    mats = list(_random_array(stream, field, K - 1, m, n))
    x = stream.below_array(field.q, K - 1).tolist()
    x.append(stream.nonzero_below(field.q))
    q = field.q
    while True:
        U = _random_array(stream, field, m, r)
        V = _random_array(stream, field, r, n)
        target = U @ V % q
        if target.any():
            break
    partial = zeros_matrix(m, n)
    for coeff, M in zip(x[:-1], mats):
        partial = (partial + coeff * M) % q
    last = (target - partial) * field.inv(x[-1]) % q
    mats.append(last)
    inst = MinRankInstance(field, m, n, K, r, tuple(mats))
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


def brute_force_solve(
    inst: MinRankInstance, r: int | None = None, cap: int = BRUTE_FORCE_CAP
) -> list[SolutionCandidate]:
    """Exhaustive oracle: all normalized x with 0 < rank(pencil(x)) <= r.

    Output is lexicographically sorted.  Refuses instances whose projective
    point count exceeds the cap.
    """
    if r is None:
        r = inst.r
    total = projective_point_count(inst.field.q, inst.K)
    if total > cap:
        raise CapExceededError(
            f"{total} projective points exceed the enumeration cap {cap}"
        )
    out = []
    for x in iter_projective(inst.field, inst.K):
        P = evaluate_pencil(inst, x)
        if not P.any():
            continue
        rk = rank(inst.field, P)
        if rk <= r:
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
    M0 = as_matrix(field, M0)
    mats = [as_matrix(field, B) for B in basis]
    m, n = M0.shape
    for B in mats:
        if B.shape != (m, n):
            raise ValueError(f"basis matrix shape {B.shape} != ({m}, {n})")
    inst = MinRankInstance(field, m, n, len(mats) + 1, radius, tuple(mats) + (M0,))
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
    scale = field.neg(field.inv(lam))
    return tuple(v * scale % field.q for v in x_hom[:-1])


def elementary_instance(field: PrimeField, m: int, n: int, r: int) -> MinRankInstance:
    """K = m*n instance whose matrices are the elementary basis E_{kj}.

    The pencil entry (k, j) is then the single variable x_{k*n+j}, which
    makes substitution into generic-variable identities a pure renaming.
    """
    mats = []
    for k in range(m):
        for j in range(n):
            E = zeros_matrix(m, n)
            E[k, j] = 1
            mats.append(E)
    return MinRankInstance(field, m, n, m * n, r, tuple(mats))
