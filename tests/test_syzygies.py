from math import comb

import numpy as np
import pytest

from supportminors.field import PrimeField
from supportminors.instance import elementary_instance, gen_random
from supportminors.linalg import mat_mul, rank
from supportminors.modeling import build_equations, macaulay
from supportminors.syzygies import (
    LinearForm,
    Syzygy,
    check_annihilation,
    enumerate_sprime,
    enumerate_sprime1,
    enumerate_sprime3,
    linear_syzygy_dim_prediction,
    specialize,
    submax_dim_empirical,
    submax_dim_formula,
    syzygy_row_vector,
    xonly_syzygy_dim,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
FBIG = PrimeField(32003)


def test_family_counts_4_4_2():
    s1 = enumerate_sprime1(4, 4, 2)
    s3 = enumerate_sprime3(4, 4, 2)
    assert len(s1) == 4 * comb(4, 4) == 4
    assert len(s3) == comb(4, 2) * comb(4, 4) == 6
    assert len(s1) + len(s3) == comb(5, 2) * comb(4, 4) == 10


def test_counts_match_formulas_small_grid():
    for m in range(1, 6):
        for n in range(3, 7):
            for r in range(1, n - 1):
                assert len(enumerate_sprime1(m, n, r)) == m * comb(n, r + 2)
                assert len(enumerate_sprime3(m, n, r)) == comb(m, 2) * comb(n, r + 2)


def test_empty_when_too_few_columns():
    assert enumerate_sprime1(3, 4, 3) == []
    assert enumerate_sprime3(3, 4, 3) == []
    assert enumerate_sprime3(1, 5, 1) == []  # needs two pencil rows


def test_support_sizes():
    for s in enumerate_sprime1(3, 5, 1):
        assert len(s.entries) == 3  # r + 2 equations touched
        for _, form in s.entries:
            assert len(form.coeffs) == 1
    for s in enumerate_sprime3(3, 5, 1):
        assert len(s.entries) == 2 * 3  # both rows, r + 2 column drops each
        for _, form in s.entries:
            assert len(form.coeffs) == 1


def test_identity_specialization_pins_signs():
    # Generic-variable annihilation, realized by the elementary-basis
    # instance where specialization is a bijective variable renaming.
    for m, n, r in [(2, 3, 1), (2, 4, 2), (3, 4, 1), (4, 4, 2)]:
        inst = elementary_instance(F5, m, n, r)
        eqs = build_equations(inst)
        for s in enumerate_sprime(m, n, r):
            assert check_annihilation(F5, specialize(s, inst), eqs)


def test_universal_annihilation_random_instances():
    for q in (2, 3, 7, 32003):
        f = PrimeField(q)
        for seed in range(3):
            inst = gen_random(f, 3, 4, 2, seed=seed, r=1)
            eqs = build_equations(inst)
            for s in enumerate_sprime(3, 4, 1):
                assert check_annihilation(f, specialize(s, inst), eqs)


def test_perturbed_syzygy_fails():
    inst = gen_random(F7, 3, 4, 2, seed=1, r=1)
    eqs = build_equations(inst)
    s = specialize(enumerate_sprime1(3, 4, 1)[0], inst)
    key, form = s.entries[0]
    bad_form = LinearForm("x", ((form.coeffs[0][0], (form.coeffs[0][1] + 1) % 7),)
                          if form.coeffs[0][1] != 6 else ((form.coeffs[0][0], 1),))
    bad = Syzygy("x", ((key, bad_form),) + s.entries[1:], s.origin)
    assert not check_annihilation(F7, bad, eqs)


def test_zero_syzygy_annihilates():
    eqs = build_equations(gen_random(F7, 2, 3, 2, seed=0, r=1))
    assert check_annihilation(F7, Syzygy("x", (), ("S1", 0, ())), eqs)


def test_specialize_zero_instance_collapses():
    inst = elementary_instance(F5, 2, 4, 2)
    zero = gen_random(F5, 2, 4, 1, seed=0, r=2)
    zero = type(zero)(F5, 2, 4, 1, 2, (np.zeros((2, 4), dtype=np.int64),))
    for s in enumerate_sprime(2, 4, 2):
        assert specialize(s, zero).entries == ()
        renamed = specialize(s, inst)
        # Renaming: every coefficient stays a unit (+1 or -1 mod 5).
        for _, form in renamed.entries:
            assert all(c in (1, 4) for _, c in form.coeffs)


def test_specialize_dimension_mismatch():
    s = enumerate_sprime1(3, 5, 2)[-1]  # touches column 4, absent below n=5
    inst = gen_random(F7, 3, 4, 2, seed=0, r=2)
    with pytest.raises(ValueError):
        specialize(s, inst)
    wrong_r = gen_random(F7, 3, 5, 2, seed=0, r=1)
    with pytest.raises(ValueError):
        specialize(enumerate_sprime1(3, 5, 2)[0], wrong_r)


def test_check_annihilation_requires_matching_equations():
    inst = gen_random(F7, 3, 4, 2, seed=2, r=1)
    s = specialize(enumerate_sprime1(3, 4, 1)[0], inst)
    with pytest.raises(ValueError):
        check_annihilation(F7, s, build_equations(gen_random(F7, 3, 4, 2, seed=2, r=2)))


def test_check_annihilation_rejects_x_variable_out_of_range():
    inst = gen_random(F7, 3, 4, 2, seed=2, r=1)
    (key, _), *rest = specialize(enumerate_sprime1(3, 4, 1)[0], inst).entries
    for a in (2, -1):  # K = 2
        bad = Syzygy("x", ((key, LinearForm("x", ((a, 1),))), *rest), ("S1", 0, ()))
        with pytest.raises(ValueError):
            check_annihilation(F7, bad, build_equations(inst))


def test_xonly_dim_at_main_theorem_parameters():
    for seed in range(3):
        inst = gen_random(FBIG, 4, 4, 8, seed=seed, r=2)
        assert xonly_syzygy_dim(inst, 1) == linear_syzygy_dim_prediction(4, 4, 2) == 10


def test_xonly_dim_below_threshold_reported_only():
    inst = gen_random(FBIG, 4, 4, 3, seed=0, r=2)
    dim = xonly_syzygy_dim(inst, 1)  # no theorem applies at K=3; just observed
    assert dim >= 10


def test_xonly_dim_validates_d():
    inst = gen_random(F7, 2, 3, 2, seed=0, r=1)
    with pytest.raises(ValueError):
        xonly_syzygy_dim(inst, 0)


def test_specialized_vectors_span_left_kernel():
    for seed in range(2):
        inst = gen_random(FBIG, 4, 4, 8, seed=seed, r=2)
        mac = macaulay(inst, 2)
        dense = mac.data.to_dense()
        vecs = [syzygy_row_vector(specialize(s, inst), mac) for s in enumerate_sprime(4, 4, 2)]
        assert len(vecs) == 10
        for v in vecs:
            assert not mat_mul(FBIG, v.reshape(1, -1), dense).any()
        assert rank(FBIG, np.stack(vecs)) == 10
        assert xonly_syzygy_dim(inst, 1) == 10


def test_syzygy_row_vector_requires_degree_two():
    inst = gen_random(F7, 3, 4, 2, seed=0, r=1)
    s = specialize(enumerate_sprime1(3, 4, 1)[0], inst)
    with pytest.raises(ValueError):
        syzygy_row_vector(s, macaulay(inst, 1))


def test_rank_nullity_identity():
    for seed in range(3):
        inst = gen_random(F7, 3, 4, 3, seed=seed, r=1)
        mac = macaulay(inst, 2)
        assert rank(F7, mac.data) + xonly_syzygy_dim(inst, 1) == 3 * 3 * comb(4, 2)


def test_submax_formula_values():
    # m=5, n=3, K=5: single-term and two-term evaluations.
    assert submax_dim_formula(5, 3, 5, 4) == comb(5, 4) * comb(3, 0) * comb(4, 4) == 5
    assert submax_dim_formula(5, 3, 5, 5) == 25 - comb(5, 5) * comb(3, 1) * comb(4, 4) == 22
    assert submax_dim_formula(5, 3, 5, 3) == 0  # b = n: empty range
    assert submax_dim_formula(4, 4, 6, 9) == 0  # m = n: empty range
    assert submax_dim_formula(6, 3, 4, 7) == (
        comb(6, 4) * comb(3, 0) * comb(4 + 7 - 3 - 1 - 1, 3)
        - comb(6, 5) * comb(3, 1) * comb(4 + 7 - 3 - 2 - 1, 3)
        + comb(6, 6) * comb(3, 2) * comb(4 + 7 - 3 - 3 - 1, 3)
    )


def test_submax_empirical_matches_formula():
    for seed in range(2):
        inst = gen_random(FBIG, 5, 3, 5, seed=seed, r=2)
        for b in (3, 4):
            assert submax_dim_empirical(inst, b) == submax_dim_formula(5, 3, 5, b)


def test_submax_empirical_guards():
    inst = gen_random(F7, 4, 4, 2, seed=0, r=2)  # r != n-1
    with pytest.raises(ValueError):
        submax_dim_empirical(inst, 4)
    inst2 = gen_random(F7, 4, 3, 2, seed=0, r=2)
    with pytest.raises(ValueError):
        submax_dim_empirical(inst2, 1)


def test_generator_family_bookkeeping():
    from supportminors.syzygies import generator_family_counts

    for m, n, r in [(2, 4, 1), (4, 4, 2), (3, 6, 2)]:
        counts = generator_family_counts(m, n, r)
        assert counts["S3"] == counts["S4"]
        assert counts["Sprime1"] == len(enumerate_sprime1(m, n, r))
        assert counts["Sprime3"] == len(enumerate_sprime3(m, n, r))
        # The enumerated families are restrictions of the full ones.
        assert counts["Sprime1"] <= counts["S1"]
        assert counts["Sprime3"] <= counts["S3"]
        assert counts["S1"] == comb(m + r, r + 1) * (r + 1) * comb(n, r + 2)
        assert counts["S2"] == comb(m + r, r + 2) * comb(n, r + 1) * (r + 1)


def test_entries_sorted_and_origin_tags():
    for s in enumerate_sprime1(2, 4, 1):
        assert s.origin[0] == "S1"
        keys = [(h, k) for (h, k), _ in s.entries]
        assert keys == sorted(keys, key=lambda hk: (hk[0], hk[1][::-1]))
    for s in enumerate_sprime3(3, 4, 1):
        assert s.origin[0] == "S3"
        assert s.origin[1] < s.origin[2]
