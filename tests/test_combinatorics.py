from math import comb

import pytest

from supportminors.combinatorics import (
    drop_ranks,
    monomial_mul,
    monomial_rank,
    monomials_colex,
    subset_rank,
    subsets_colex,
)

from oracle import colex_monomials, colex_subsets, subset_unrank


def test_colex_table_n4_k2():
    # 0-based image of the standard colex table on 2-subsets of a 4-set.
    expected = {(0, 1): 0, (0, 2): 1, (1, 2): 2, (0, 3): 3, (1, 3): 4, (2, 3): 5}
    for subset, rk in expected.items():
        assert subset_rank(subset) == rk
        assert subset_unrank(rk, 4, 2) == subset


def test_full_set_rank_zero():
    for n in range(1, 7):
        assert subset_rank(tuple(range(n))) == 0
        assert subset_unrank(0, n, n) == tuple(range(n))


def test_roundtrip_all_c8_3():
    for rk in range(comb(8, 3)):
        assert subset_rank(subset_unrank(rk, 8, 3)) == rk


def test_enumeration_matches_reference_order():
    for n in range(0, 8):
        for k in range(0, n + 1):
            got = list(subsets_colex(n, k))
            assert got == colex_subsets(n, k)
            assert [subset_rank(s) for s in got] == list(range(comb(n, k)))


def test_subset_rank_rejects_non_increasing():
    with pytest.raises(ValueError):
        subset_rank((2, 2))
    with pytest.raises(ValueError):
        subset_rank((3, 1))


def test_subset_unrank_range():
    with pytest.raises(ValueError):
        subset_unrank(comb(5, 2), 5, 2)
    with pytest.raises(ValueError):
        subset_unrank(-1, 5, 2)


def test_monomial_order_matches_exponent_colex():
    for K in range(1, 5):
        for d in range(0, 5):
            got = list(monomials_colex(K, d))
            assert got == colex_monomials(K, d)
            assert len(got) == comb(K + d - 1, d)
            assert [monomial_rank(m) for m in got] == list(range(len(got)))


def test_monomial_mul():
    assert monomial_mul((), 2) == (2,)
    assert monomial_mul((0, 2), 1) == (0, 1, 2)
    assert monomial_mul((1, 1), 1) == (1, 1, 1)


def test_drop_ranks_against_reference():
    for n in range(0, 7):
        for k in range(1, n + 2):
            pos = {T: c for c, T in enumerate(colex_subsets(n, k - 1))}
            want = [[pos[J[:t] + J[t + 1 :]] for t in range(k)] for J in colex_subsets(n, k)]
            table = drop_ranks(n, k)
            assert table.shape == (comb(n, k), k) and table.tolist() == want
