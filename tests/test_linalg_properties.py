"""Property tests of the blocked elimination kernel against tests/oracle.py.

Shapes straddle the panel width NB (NB - 1, NB, NB + 1, 2 NB + 1 columns)
and the sub-panel width IB (IB - 1, IB, IB + 1) and include empty
matrices; ranks range over 0, full, full - 1 and n - 1, with pivot columns
spread at random, and a panel or a sub-panel may hold no pivot, or a
panel all its pivots in its last sub-panel.  Matrices are built with
Python's `random`, so no package code shapes the inputs; Macaulay matrices
of small instances add the sparse, structured row swaps of the solver.
Tall rank-deficient and wide big-kernel shapes reach the blocked
elimination's early exit, in `rref` and in the transposed forward pass of
`kernel_basis`, whose basis is checked to span the oracle's kernel.  The
mod-q reduction is checked against Python's % on edge values.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportminors.field import PrimeField
from supportminors.instance import gen_planted, gen_random
from supportminors.linalg import (
    _LIMB_K,
    _LIMB_LAZY_K,
    _RED_CELLS,
    IB,
    NB,
    _addmul_mod,
    _reduce,
    kernel_basis,
    mat_mul,
    rank,
    right_kernel_basis,
    rref,
)
from supportminors.modeling import macaulay

from oracle import ref_csr, ref_rref

QS = (2, 3, 7, 32003, 2**31 - 1)
# The largest prime q with 16 * (q-1)**2 + q < 2**63: up to it a scalar loop
# over IB = 16 columns reduces its int64 rows only when it reads them.
Q_LAZY = 759250111
# fl(1/q) > 1/q for q = 5 and 13, so only there can floor(C * fl(1/q))
# exceed floor(C/q); at 107 and 3, t*q could reach 2**53 + 1.
Q_REDUCE = QS + (5, 13, 107, Q_LAZY)
WIDTHS = (0, 1, 2, 7, IB - 1, IB, IB + 1, NB - 1, NB, NB + 1, 2 * NB + 1)
SHAPES = [(m, n) for m in (0, 1, 3, 12, 40) for n in WIDTHS]
SHAPES += [(NB + 1, n) for n in (1, 7, IB, IB + 1, NB - 1, NB, NB + 1)]
SHAPES += [(4 * NB + 1, n) for n in (0, 1, 8, IB + 1)]  # tall
SHAPES += [(m, 4 * NB + 1) for m in (0, 1, 7)]  # wide
RANKS = ("zero", "full", "full-1", "n-1", "random")
LAYOUTS = ("any", "empty panel", "empty sub-panel", "last sub-panel")


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
    q = draw(st.sampled_from(QS + (Q_LAZY,)))
    m, n = draw(st.sampled_from(SHAPES))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    cols = list(range(n))
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "empty panel":  # the second panel (the first if n <= NB)
        lo = NB if n > NB else 0
        cols = [j for j in cols if not lo <= j < lo + NB]
    elif layout == "empty sub-panel":
        lo = IB * rnd.randrange(max(1, -(-n // IB)))
        cols = [j for j in cols if not lo <= j < lo + IB]
    elif layout == "last sub-panel":  # of the first panel
        last = (min(n, NB) - 1) // IB * IB
        cols = [j for j in cols if j >= last]
    full = min(m, len(cols))
    r = {"zero": 0, "full": full, "full-1": full - 1, "n-1": n - 1,
         "random": rnd.randint(0, full)}[draw(st.sampled_from(RANKS))]
    pivots = sorted(rnd.sample(cols, max(0, min(r, full))))
    return q, m, n, with_profile(rnd, q, m, n, pivots)


def check_against_oracle(q, m, n, M):
    F = PrimeField(q)
    A = np.array(M, dtype=np.int64).reshape(m, n)
    ref_rk, ref_R, ref_piv = ref_rref(M, q)

    rk, R, piv = rref(F, A)
    assert R.dtype == np.int64 and R.shape == (m, n)
    assert (rk, R.tolist(), piv) == (ref_rk, ref_R, ref_piv)
    assert rank(F, A) == ref_rk
    assert rank(F, ref_csr(A)) == ref_rk

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

    # Some basis Z of the same kernel: M Z^T = 0, full row rank, and the
    # RREF of the column-reversed Z, reversed back, is the canonical basis.
    rk, Z = kernel_basis(F, A)
    assert rk == ref_rk and Z.dtype == np.int64 and Z.shape == (n - rk, n)
    assert not ((np.array(M, dtype=object).reshape(m, n) @ Z.T.astype(object)) % q).any()
    z_rk, z_R, _ = ref_rref(Z[:, ::-1].tolist(), q)
    assert z_rk == n - rk
    assert [row[::-1] for row in z_R[::-1]] == expected


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_rank_kernel_match_oracle(case):
    check_against_oracle(*case)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(QS), st.sampled_from([(3, 4, 3, 1), (3, 4, 4, 2), (4, 5, 3, 2), (3, 5, 4, 2)]),
       st.booleans(), st.integers(0, 2**32))
def test_macaulay_rref_kernel_match_oracle(q, shape, planted, seed):
    """b = 2 Macaulay matrices (up to 120 x 100) of planted or random instances."""
    m, n, K, r = shape
    F = PrimeField(q)
    inst = gen_planted(F, m, n, K, r, seed)[0] if planted else gen_random(F, m, n, K, seed, r=r)
    D = macaulay(inst, 2).data.to_dense()
    check_against_oracle(q, *D.shape, D.tolist())


def reduce_cases(q: int, rnd: random.Random) -> list[int]:
    """Integers in [0, 2**53] where a floor-multiply reduction can slip."""
    top = 2**53 // q
    ts = [1, 2, 3, 1000, top // 2, top - 1, top] + [rnd.randrange(1, top + 1) for _ in range(300)]
    vals = [0, 1, q - 1, q, q + 1, 2 * q - 1, 2 * q]
    vals += [t * q + e for t in ts for e in (-1, 0, 1)]
    k = (2**53 - q) // (q - 1) ** 2  # largest inner dimension of one float product
    vals += [k * (q - 1) ** 2 + q - 1 - e for e in range(3)]
    vals += [2**53 - e for e in range(300)]
    vals += [rnd.randrange(2**e) for e in range(1, 54) for _ in range(30)]
    if k == 0:  # the limb path: high, middle and low sums of one _LIMB_K chunk,
        # and high plus middle of an unreduced chunk of _LIMB_LAZY_K
        hi, lo = (q - 1) >> 16, 2**16 - 1
        for bound in (_LIMB_K * hi * hi, (q - 1) * 2**16 + 2 * _LIMB_K * hi * lo,
                      (q - 1) * 2**16 + _LIMB_K * lo * lo + q - 1,
                      _LIMB_LAZY_K * (hi * hi * 2**16 + 2 * hi * lo)):
            vals += [bound - e for e in range(100)] + [rnd.randrange(bound) for _ in range(1000)]
    return [v for v in vals if 0 <= v <= 2**53]


@pytest.mark.parametrize("q", Q_REDUCE)
def test_reduce_matches_python_mod(q):
    vals = reduce_cases(q, random.Random(q))
    C = np.array(vals, dtype=np.float64).reshape(1, -1)
    assert _reduce(C, q).tolist() == [[v % q for v in vals]]


VIEWS = {  # (shape of W, the view of W that is reduced)
    "W[pr:, c1:]": ((37, 41), lambda A: A[5:, 9:]),
    "W[::3, 1::2]": ((37, 41), lambda A: A[::3, 1::2]),
    "W.T": ((37, 41), lambda A: A.T),
    "row wider than the scratch": ((2, _RED_CELLS + 5), lambda A: A),
    "several row blocks": ((3 * _RED_CELLS // 20 + 7, 20), lambda A: A),
}


@pytest.mark.parametrize("q", QS + (5,))
@pytest.mark.parametrize("view", VIEWS)
def test_reduce_in_place_on_views(q, view):
    """Reduces exactly the cells of the view, in place."""
    shape, select = VIEWS[view]
    rnd = random.Random(q)
    vals = reduce_cases(q, rnd)
    W = np.array([rnd.choice(vals) for _ in range(shape[0] * shape[1])], dtype=np.float64)
    W = W.reshape(shape)
    before = W.astype(np.int64).tolist()
    V = select(W)
    assert _reduce(V, q) is V
    inside = np.zeros(shape, dtype=bool)
    select(inside)[...] = True
    expected = [[v % q if i else v for v, i in zip(row, irow)]
                for row, irow in zip(before, inside.tolist())]
    assert W.astype(np.int64).tolist() == expected


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(QS), st.integers(65, 300), st.integers(0, 2**32))
def test_mat_mul_exact(q, k, seed):
    """Inner dimension above NB; at 2**31 - 1 this is the 16-bit limb path."""
    rnd = random.Random(seed)
    A = [[rnd.choice((q - 1, rnd.randrange(q))) for _ in range(k)] for _ in range(3)]
    B = [[rnd.choice((q - 1, rnd.randrange(q))) for _ in range(4)] for _ in range(k)]
    expected = [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*B)] for row in A]
    assert mat_mul(PrimeField(q), A, B).tolist() == expected


@pytest.mark.parametrize("k", [_LIMB_LAZY_K, _LIMB_LAZY_K + 1])
def test_limb_product_at_lazy_bound(k):
    """The widest product whose high limb sum is left unreduced and the
    narrowest one reduced, with the largest operands of q = 2**31 - 1."""
    q = 2**31 - 1
    rnd = random.Random(k)
    A = [[q - 1] * k, [rnd.randrange(q) for _ in range(k)]]
    B = [[q - 1, rnd.randrange(q)] for _ in range(k)]
    C = [[q - 1, q - 2], [0, rnd.randrange(q)]]
    products = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]
    assert mat_mul(PrimeField(q), A, B).tolist() == [[p % q for p in row] for row in products]
    out = _addmul_mod(*(np.array(X, dtype=np.float64) for X in (C, A, B)), q)
    assert out.astype(np.int64).tolist() == [[(c + p) % q for c, p in zip(crow, prow)]
                                             for crow, prow in zip(C, products)]
