"""Property tests of the index-arithmetic Macaulay assembly against
`oracle.ref_macaulay`, and of `macaulay_kernel` against direct elimination
of the assembled matrix and `oracle.ref_rank`, on both sides of its rule:
with `modeling._lifts` patched, each case runs once assembled at its own
degree and once lifted at every degree from 2 up.

Fields span q in {2, 3, 7, 32003, 2**31 - 1}, degrees b in {1, 2, 3} for
the assembly and {1, 2, 3, 4} for the kernel, and shapes include r = n - 1,
K = 1 and m = 1.  Pencil entries are drawn with Python's `random` at a
chosen density, so rows of one matrix carry different numbers of terms and
some may be empty.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supportminors import modeling
from supportminors.field import PrimeField
from supportminors.instance import MinRankInstance, gen_planted
from supportminors.linalg import right_kernel_basis
from supportminors.modeling import macaulay, macaulay_kernel

from oracle import ref_macaulay, ref_rank

QS = (2, 3, 7, 32003, 2**31 - 1)
SHAPES = [  # (m, n, K, r)
    (1, 2, 1, 1), (1, 3, 2, 1), (2, 4, 3, 2), (3, 4, 1, 3),
    (2, 3, 4, 2), (3, 5, 3, 2), (2, 5, 2, 4), (4, 4, 2, 1),
]


# (m, n, K, r) with r < n.  Generic b = 1 kernels: dimension 0 at (3, 4, 2, 2)
# and (4, 4, 2, 1), above half the C(n, r) K columns at (1, 3, 3, 1),
# (2, 4, 3, 2) and (2, 5, 2, 4); K = 1 and r = n - 1 at (1, 2, 1, 1) and
# (3, 4, 1, 3).  Density 0 makes every column free.
LIFT_SHAPES = [
    (1, 2, 1, 1), (3, 4, 1, 3), (1, 3, 3, 1), (2, 4, 3, 2),
    (3, 4, 2, 2), (4, 4, 2, 1), (2, 5, 2, 4), (3, 5, 3, 2),
]


def _random_instance(q, m, n, K, r, density, seed):
    rnd = random.Random(seed)
    mats = tuple(
        np.array([[rnd.randrange(1, q) if rnd.random() < density else 0 for _ in range(n)]
                  for _ in range(m)], dtype=np.int64)
        for _ in range(K)
    )
    return MinRankInstance(PrimeField(q), m, n, K, r, mats)


@st.composite
def instances(draw):
    q = draw(st.sampled_from(QS))
    shape = draw(st.sampled_from(SHAPES))
    density = draw(st.sampled_from((0.0, 0.3, 1.0)))
    inst = _random_instance(q, *shape, density, draw(st.integers(0, 2**32)))
    return inst, draw(st.sampled_from((1, 2, 3)))


@st.composite
def lift_instances(draw):
    q = draw(st.sampled_from(QS))
    m, n, K, r = draw(st.sampled_from(LIFT_SHAPES))
    seed = draw(st.integers(0, 2**32))
    if r <= m and draw(st.booleans()):  # a planted solution puts its lift in the kernel
        return gen_planted(PrimeField(q), m, n, K, r, seed)[0]
    return _random_instance(q, m, n, K, r, draw(st.sampled_from((0.0, 0.3, 1.0))), seed)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_macaulay_matches_reference(case):
    inst, b = case
    sp = macaulay(inst, b).data
    dense = sp.to_dense()
    assert dense.tolist() == ref_macaulay(inst, b)
    assert sp.nnz == np.count_nonzero(dense)
    indptr, indices, values = sp.indptr.tolist(), sp.indices.tolist(), sp.values.tolist()
    assert len(indptr) == sp.rows + 1 and indptr[0] == 0 and indptr[-1] == len(indices)
    for lo, hi in zip(indptr, indptr[1:]):
        row = indices[lo:hi]
        assert lo <= hi
        assert all(0 <= c < sp.cols for c in row)
        assert all(a < c for a, c in zip(row, row[1:]))
        assert all(values[lo:hi])


@pytest.mark.parametrize("b", (1, 2, 3, 4))
@settings(max_examples=120, deadline=None)
@given(lift_instances())
@example(_random_instance(2**31 - 1, 4, 4, 2, 1, 1.0, 0))   # b = 1 kernel of dimension 0
@example(_random_instance(2, 2, 4, 3, 2, 0.0, 0))           # every b = 1 column free
@example(_random_instance(3, 3, 4, 1, 3, 1.0, 1))           # K = 1, r = n - 1
def test_macaulay_kernel_matches_direct_elimination(b, inst):
    mac = macaulay(inst, b)
    dense = mac.data.to_dense()
    want = right_kernel_basis(inst.field, dense)
    rank = mac.n_cols - len(want)
    assert rank == ref_rank(dense.tolist(), inst.field.q)
    for lift in (False, True):  # Mac_b assembled; every degree from 2 to b lifted
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modeling, "_lifts", lambda p, b, d=None: lift and b > 1)
            rows, cols, got, basis = macaulay_kernel(inst, b, basis=True)
            assert (rows, cols, got) == (mac.n_rows, mac.n_cols, rank)
            assert basis.shape == (len(want), mac.n_cols) and basis.dtype == np.int64
            assert basis.tolist() == [v.tolist() for v in want]
            assert macaulay_kernel(inst, b) == (rows, cols, rank, None)
