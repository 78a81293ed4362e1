"""Property tests of the blocked elimination kernel against tests/oracle.py.

Shapes straddle the panel width NB (NB - 1, NB, NB + 1, 2 NB + 1 columns)
and include empty matrices; ranks range over 0, full, full - 1 and n - 1,
with pivot columns spread at random, and one panel may hold no pivot.
Matrices are built with Python's `random`, so no package code shapes the
inputs.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from supportminors.field import PrimeField
from supportminors.linalg import NB, SparseMatrix, det, mat_mul, rank, right_kernel_basis, rref

from oracle import perm_sign, ref_det, ref_rref

QS = (2, 3, 7, 32003, 2**31 - 1)
SHAPES = [(m, n) for m in (0, 1, 3, 12, 40) for n in (0, 1, 2, 7, NB - 1, NB, NB + 1, 2 * NB + 1)]
SHAPES += [(NB + 1, n) for n in (1, 7, NB - 1, NB, NB + 1)]
RANKS = ("zero", "full", "full-1", "n-1", "random")


def with_profile(rnd, q, m, n, pivots):
    """A random m x n matrix whose row space has an echelon basis with its
    pivots at `pivots`: A @ E with A random m x r and E in echelon form."""
    E = []
    for p in pivots:
        row = [0] * n
        row[p] = 1
        for j in range(p + 1, n):
            if j not in pivots:
                row[j] = rnd.randrange(q)
        E.append(row)
    A = [[rnd.randrange(q) for _ in pivots] for _ in range(m)]
    return [[sum(a * e[j] for a, e in zip(row, E)) % q for j in range(n)] for row in A]


@st.composite
def matrices(draw):
    q = draw(st.sampled_from(QS))
    m, n = draw(st.sampled_from(SHAPES))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    cols = list(range(n))
    if draw(st.booleans()):
        # No pivot in the second panel (the first if n <= NB).
        lo = NB if n > NB else 0
        cols = [j for j in cols if not lo <= j < lo + NB]
    full = min(m, len(cols))
    r = {"zero": 0, "full": full, "full-1": full - 1, "n-1": n - 1,
         "random": rnd.randint(0, full)}[draw(st.sampled_from(RANKS))]
    pivots = sorted(rnd.sample(cols, max(0, min(r, full))))
    return q, m, n, with_profile(rnd, q, m, n, pivots)


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_rref_rank_kernel_match_oracle(case):
    q, m, n, M = case
    F = PrimeField(q)
    A = np.array(M, dtype=np.int64).reshape(m, n)
    ref_rk, ref_R, ref_piv = ref_rref(M, q)

    rk, R, piv = rref(F, A)
    assert R.dtype == np.int64 and R.shape == (m, n)
    assert (rk, R.tolist(), piv) == (ref_rk, ref_R, ref_piv)
    assert rank(F, A) == ref_rk
    assert rank(F, SparseMatrix.from_dense(A)) == ref_rk

    expected = []
    for f in range(n):
        if f in ref_piv:
            continue
        v = [0] * n
        v[f] = 1
        for i, p in enumerate(ref_piv):
            v[p] = -ref_R[i][f] % q
        expected.append(v)
    assert [v.tolist() for v in right_kernel_basis(F, A)] == expected


@st.composite
def square_with_det(draw):
    """M = (row permutation of) U @ L with U upper triangular, L unit lower
    triangular: det(M) = sign * prod(diag U), known without elimination."""
    q = draw(st.sampled_from(QS))
    n = draw(st.sampled_from((1, 2, 5, NB - 1, NB, NB + 1)))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    diag = [rnd.randrange(1, q) for _ in range(n)]
    if draw(st.booleans()):
        diag[rnd.randrange(n)] = 0
    U = [[diag[i] if i == j else rnd.randrange(q) if j > i else 0 for j in range(n)]
         for i in range(n)]
    L = [[1 if i == j else rnd.randrange(q) if j < i else 0 for j in range(n)]
         for i in range(n)]
    prod = [[sum(U[i][t] * L[t][j] for t in range(max(i, j), n)) % q for j in range(n)]
            for i in range(n)]
    perm = list(range(n))
    rnd.shuffle(perm)
    expected = perm_sign(perm)
    for d in diag:
        expected = expected * d % q
    return q, [prod[p] for p in perm], expected


@settings(max_examples=40, deadline=None)
@given(square_with_det())
def test_det_matches_factorization(case):
    q, M, expected = case
    F = PrimeField(q)
    assert det(F, np.array(M, dtype=np.int64)) == expected
    if len(M) <= 5:
        assert expected == ref_det(M, q)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(QS), st.integers(65, 300), st.integers(0, 2**32))
def test_mat_mul_exact(q, k, seed):
    """Inner dimension above NB; at 2**31 - 1 this is the 16-bit limb path."""
    rnd = random.Random(seed)
    A = [[rnd.choice((q - 1, rnd.randrange(q))) for _ in range(k)] for _ in range(3)]
    B = [[rnd.choice((q - 1, rnd.randrange(q))) for _ in range(4)] for _ in range(k)]
    expected = [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*B)] for row in A]
    assert mat_mul(PrimeField(q), A, B).tolist() == expected
