from math import comb

import numpy as np
import pytest

from supportminors.estimator import submax_dim_formula
from supportminors.field import PrimeField
from supportminors.instance import elementary_instance, gen_random
from supportminors.linalg import mat_mul, rank
from supportminors.modeling import build_equations, macaulay
from supportminors.syzygies import (
    SpecializedFamily,
    check_annihilation,
    enumerate_sprime,
    enumerate_sprime1,
    enumerate_sprime3,
    linear_syzygy_dim_prediction,
    specialize,
    syzygy_row_vector,
    xonly_syzygy_dim,
)

from oracle import colex_monomials, ref_annihilates, ref_sprime

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
    assert len(enumerate_sprime1(3, 4, 3)) == 0
    assert len(enumerate_sprime3(3, 4, 3)) == 0
    assert len(enumerate_sprime3(1, 5, 1)) == 0  # needs two pencil rows
    assert enumerate_sprime(3, 4, 3).eq.shape == (0, 2 * 5)


def test_families_match_reference_enumeration():
    # r + 2 > n (empty), m = 1 (no S'3), n = r + 2, and larger shapes.
    for m, n, r in [(2, 3, 2), (3, 4, 3), (1, 3, 1), (1, 5, 2), (1, 4, 2), (2, 4, 2),
                    (3, 5, 1), (4, 6, 2), (5, 5, 3), (3, 7, 3)]:
        fam = enumerate_sprime(m, n, r)
        assert fam.eq.shape == fam.var.shape == fam.sign.shape == (len(fam), 2 * (r + 2))
        got = [[(e, v, c) for e, v, c in zip(fam.eq[i].tolist(), fam.var[i].tolist(),
                                             fam.sign[i].tolist()) if c]
               for i in range(len(fam))]
        assert got == ref_sprime(m, n, r)
        s1, s3 = enumerate_sprime1(m, n, r), enumerate_sprime3(m, n, r)
        for name in ("eq", "var", "sign"):
            assert np.array_equal(getattr(fam, name),
                                  np.concatenate((getattr(s1, name), getattr(s3, name))))


def test_support_sizes():
    # r + 2 equations touched by an S'1 member, both rows' r + 2 by an S'3 one.
    assert ((enumerate_sprime1(3, 5, 1).sign != 0).sum(axis=1) == 3).all()
    assert ((enumerate_sprime3(3, 5, 1).sign != 0).sum(axis=1) == 2 * 3).all()


def test_member_protocol():
    fam = enumerate_sprime(3, 5, 2)
    members = list(fam)
    assert len(members) == len(fam) == 3 * 5 + 3 * 5
    for i in (0, 7, len(fam) - 1, -1):
        one = fam[i]
        assert len(one) == 1 and (one.m, one.n, one.r) == (3, 5, 2)
        for name in ("eq", "var", "sign"):
            assert np.array_equal(getattr(one, name)[0], getattr(fam, name)[i])
    with pytest.raises(IndexError):
        fam[len(fam)]
    for a in (fam.eq, fam.var, fam.sign, members[3].sign):
        assert not a.flags.writeable
    inst = gen_random(F7, 3, 5, 2, seed=0, r=2)
    spec = specialize(fam, inst)
    assert not spec.forms.flags.writeable
    for x, s in zip(spec, fam):
        assert np.array_equal(x.forms, specialize(s, inst).forms)


def test_identity_specialization_pins_signs():
    # Generic-variable annihilation, realized by the elementary-basis
    # instance where specialization is a bijective variable renaming.
    for m, n, r in [(2, 3, 1), (2, 4, 2), (3, 4, 1), (4, 4, 2)]:
        inst = elementary_instance(F5, m, n, r)
        eqs = build_equations(inst)
        spec = specialize(enumerate_sprime(m, n, r), inst)
        assert check_annihilation(F5, spec, eqs) is True
        assert all(check_annihilation(F5, s, eqs) for s in spec)


def test_universal_annihilation_random_instances():
    for q in (2, 3, 7, 32003):
        f = PrimeField(q)
        for seed in range(3):
            inst = gen_random(f, 3, 4, 2, seed=seed, r=1)
            assert check_annihilation(f, specialize(enumerate_sprime(3, 4, 1), inst),
                                      build_equations(inst))


def test_perturbed_syzygy_fails():
    inst = gen_random(F7, 3, 4, 2, seed=1, r=1)
    eqs = build_equations(inst)
    spec = specialize(enumerate_sprime(3, 4, 1), inst)
    forms = spec.forms.copy()
    e, a = np.argwhere(forms[5])[0]
    forms[5, e, a] = (forms[5, e, a] + 1) % 7
    bad = SpecializedFamily(spec.m, spec.n, spec.r, spec.eq, forms)
    assert check_annihilation(F7, bad, eqs) is False
    assert [check_annihilation(F7, s, eqs) for s in bad] == [i != 5 for i in range(len(bad))]
    # Two copies of the last member, bumped by +1 and -1 at one entry, over every
    # field and two shapes: their sums cancel, so a check that pooled members
    # (or shared bins across them) would pass them.
    for q in (2, 3, 7, 32003, 2**31 - 1):
        for m, n, r in ((3, 4, 1), (2, 5, 3)):
            f = PrimeField(q)
            inst = gen_random(f, m, n, 2, seed=1, r=r)
            eqs = build_equations(inst)
            spec = specialize(enumerate_sprime(m, n, r), inst)
            e, a = np.argwhere(spec.forms[-1])[0]
            pair = np.repeat(spec.forms[-1:], 2, axis=0)
            pair[:, e, a] = (pair[:, e, a] + [1, q - 1]) % q
            twins = SpecializedFamily(m, n, r, np.repeat(spec.eq[-1:], 2, axis=0), pair)
            assert not ref_annihilates(inst, eqs, twins, 0) and not ref_annihilates(inst, eqs, twins, 1)
            assert check_annihilation(f, twins, eqs) is False, (q, m, n, r)


def test_zero_syzygy_annihilates():
    inst = gen_random(F7, 1, 3, 2, seed=0, r=1)
    spec = specialize(enumerate_sprime3(1, 3, 1), inst)
    assert len(spec) == 0 and spec.forms.shape == (0, 6, 2)
    assert check_annihilation(F7, spec, build_equations(inst)) is True


def test_specialize_zero_instance_collapses():
    inst = elementary_instance(F5, 2, 4, 2)
    zero = gen_random(F5, 2, 4, 1, seed=0, r=2)
    zero = type(zero)(F5, 2, 4, 1, 2, (np.zeros((2, 4), dtype=np.int64),))
    fam = enumerate_sprime(2, 4, 2)
    assert not specialize(fam, zero).forms.any()
    # Renaming: every live entry becomes one x-variable with a unit
    # coefficient (+1 or -1 mod 5); sign-0 entries stay zero.
    forms = specialize(fam, inst).forms
    assert ((forms != 0).sum(axis=2) == (fam.sign != 0)).all()
    assert np.isin(forms[forms != 0], (1, 4)).all()


def test_specialize_dimension_mismatch():
    fam = enumerate_sprime1(3, 5, 2)
    with pytest.raises(ValueError):
        specialize(fam, gen_random(F7, 3, 4, 2, seed=0, r=2))  # n = 4
    with pytest.raises(ValueError):
        specialize(fam, gen_random(F7, 3, 5, 2, seed=0, r=1))  # r = 1
    with pytest.raises(ValueError):
        specialize(fam, gen_random(F7, 2, 5, 2, seed=0, r=2))  # m = 2


def test_check_annihilation_requires_matching_equations():
    inst = gen_random(F7, 3, 4, 2, seed=2, r=1)
    s = specialize(enumerate_sprime1(3, 4, 1), inst)
    with pytest.raises(ValueError):
        check_annihilation(F7, s, build_equations(gen_random(F7, 3, 4, 2, seed=2, r=2)))


def test_check_annihilation_rejects_x_variable_out_of_range():
    # Forms over x_0, x_1 (K = 2) against equations in x_0 .. x_2, and back.
    s2 = specialize(enumerate_sprime1(3, 4, 1), gen_random(F7, 3, 4, 2, seed=2, r=1))
    s3 = specialize(enumerate_sprime1(3, 4, 1), gen_random(F7, 3, 4, 3, seed=2, r=1))
    with pytest.raises(ValueError):
        check_annihilation(F7, s2, build_equations(gen_random(F7, 3, 4, 3, seed=2, r=1)))
    with pytest.raises(ValueError):
        check_annihilation(F7, s3, build_equations(gen_random(F7, 3, 4, 2, seed=2, r=1)))


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
        fam = enumerate_sprime(4, 4, 2)
        vecs = syzygy_row_vector(specialize(fam, inst), mac)
        assert vecs.shape == (10, mac.n_rows)
        assert not mat_mul(FBIG, vecs, dense).any()
        assert rank(FBIG, vecs) == 10
        # Member by member: entry e's coefficient of x_a sits at row (x_a, eq).
        spec = specialize(fam, inst)
        mono_pos = {mu: k for k, mu in enumerate(colex_monomials(inst.K, 1))}
        for i in range(len(fam)):
            v = np.zeros(mac.n_rows, dtype=np.int64)
            for e, form in zip(spec.eq[i].tolist(), spec.forms[i].tolist()):
                for a, c in enumerate(form):
                    if c:
                        v[mono_pos[(a,)] * len(mac.equations) + e] = c
            assert np.array_equal(vecs[i], v)
        assert xonly_syzygy_dim(inst, 1) == 10


def test_syzygy_row_vector_requires_degree_two():
    inst = gen_random(F7, 3, 4, 2, seed=0, r=1)
    s = specialize(enumerate_sprime1(3, 4, 1), inst)
    with pytest.raises(ValueError):
        syzygy_row_vector(s, macaulay(inst, 1))
    with pytest.raises(ValueError):
        syzygy_row_vector(s, macaulay(gen_random(F7, 3, 4, 3, seed=0, r=1), 2))


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
            assert xonly_syzygy_dim(inst, b - 1) == submax_dim_formula(5, 3, 5, b)


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
    # Equation e = row * C(n, r+1) + colex(J), so (row, colex) order is
    # increasing e.  A member's origin is its position: S'1 member
    # h * C(n, r+2) + colex(J+) touches row h only, and S'3 member
    # p * C(n, r+2) + colex(J+) rows h1 < h2 of the p-th colex pair.
    m, n, r = 4, 5, 2
    per_row = comb(n, r + 1)
    pairs = [(h1, h2) for h2 in range(m) for h1 in range(h2)]
    for fam, rows in ((enumerate_sprime1(m, n, r), [(h,) for h in range(m)]),
                      (enumerate_sprime3(m, n, r), pairs)):
        for i, (eq, sign) in enumerate(zip(fam.eq.tolist(), fam.sign.tolist())):
            live = [e for e, c in zip(eq, sign) if c]
            assert live == sorted(set(live))
            assert sorted({e // per_row for e in live}) == list(rows[i // comb(n, r + 2)])
