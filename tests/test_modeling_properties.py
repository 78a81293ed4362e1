"""Property test of the index-arithmetic Macaulay assembly against
`oracle.ref_macaulay`.

Fields span q in {2, 3, 7, 32003, 2**31 - 1}, degrees b in {1, 2, 3}, and
shapes include r = n - 1, K = 1 and m = 1.  Pencil entries are drawn with
Python's `random` at a chosen density, so rows of one matrix carry
different numbers of terms and some may be empty.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from supportminors.field import PrimeField
from supportminors.instance import MinRankInstance
from supportminors.modeling import macaulay

from oracle import ref_macaulay

QS = (2, 3, 7, 32003, 2**31 - 1)
SHAPES = [  # (m, n, K, r)
    (1, 2, 1, 1), (1, 3, 2, 1), (2, 4, 3, 2), (3, 4, 1, 3),
    (2, 3, 4, 2), (3, 5, 3, 2), (2, 5, 2, 4), (4, 4, 2, 1),
]


@st.composite
def instances(draw):
    q = draw(st.sampled_from(QS))
    m, n, K, r = draw(st.sampled_from(SHAPES))
    density = draw(st.sampled_from((0.0, 0.3, 1.0)))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    mats = tuple(
        np.array([[rnd.randrange(1, q) if rnd.random() < density else 0 for _ in range(n)]
                  for _ in range(m)], dtype=np.int64)
        for _ in range(K)
    )
    return MinRankInstance(PrimeField(q), m, n, K, r, mats), draw(st.sampled_from((1, 2, 3)))


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
