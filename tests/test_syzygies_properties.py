"""Property test of the array families' `specialize` / `check_annihilation`
against the dict expansions `oracle.ref_specialize` / `oracle.ref_annihilates`.

Fields span q in {2, 3, 7, 32003, 2**31 - 1}, shapes r in {1, n - 2} and
m in {1, 2, 5}.  Pencil entries are drawn with Python's `random` at a chosen
density.  The whole family of the drawn instance is specialized and checked
as one batch, and every member is compared with the references.  Then each
of three perturbations breaks one member of a copy of the batch: a
coefficient bumped by 1 or q - 1, an added x-variable, or an entry moved to
another equation.  The batch check must then be False, and among the
one-member slices exactly that member.  The empty family and a GF(2) case
where only a square monomial survives are checked apart, as is a member
whose bins reach their largest sums.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from supportminors.field import PrimeField
from supportminors.instance import MinRankInstance
from supportminors.modeling import build_equations
from supportminors.syzygies import (
    SpecializedFamily,
    check_annihilation,
    enumerate_sprime,
    specialize,
)

from oracle import eq_index, eq_label, ref_annihilates, ref_equation_terms, ref_specialize

QS = (2, 3, 7, 32003, 2**31 - 1)
SHAPES = [(n, r) for n in (3, 4, 5) for r in sorted({1, n - 2})]  # (n, r)


def _instance(q, m, n, K, r, density, rnd):
    mats = tuple(
        np.array([[rnd.randrange(1, q) if rnd.random() < density else 0 for _ in range(n)]
                  for _ in range(m)], dtype=np.int64)
        for _ in range(K)
    )
    return MinRankInstance(PrimeField(q), m, n, K, r, mats)


def _entries(spec, i, eqs):
    return [(eq_label(eqs, e), {a: c for a, c in enumerate(row) if c})
            for e, row in zip(spec.eq[i].tolist(), spec.forms[i].tolist())]


def _perturb(inst, eqs, spec, kind, rnd):
    """(i, family) with one entry of a random member i changed by `kind` so
    that the member no longer annihilates, or None when no entry of member i
    allows it.

    Adding d * x_a to an entry adds d * x_a * eq to the member's sum, which
    is nonzero whenever eq is; moving a nonzero form f from eq to eq' adds
    f * (eq' - eq), nonzero whenever eq' != eq as polynomials.
    """
    q, (F, E, K) = inst.field.q, spec.forms.shape
    poly = [sorted(ref_equation_terms(inst, *eq_label(eqs, e))) for e in range(len(eqs))]
    eq, forms = spec.eq.copy(), spec.forms.copy()
    i = rnd.randrange(F)
    if kind == "move":
        choices = [(e, t) for e in range(E) if forms[i, e].any()
                   for t in range(len(eqs)) if poly[t] != poly[eq[i, e]]]
    else:
        choices = [(e, a) for e in range(E) if poly[eq[i, e]]
                   for a in range(K) if kind == "add" or forms[i, e, a]]
    if not choices:
        return None
    e, v = rnd.choice(choices)
    if kind == "move":
        eq[i, e] = v
    else:
        d = rnd.choice((1, q - 1)) if kind == "bump" else rnd.randrange(1, q)
        forms[i, e, v] = (forms[i, e, v] + d) % q
    return i, SpecializedFamily(spec.m, spec.n, spec.r, eq, forms)


@st.composite
def cases(draw):
    q = draw(st.sampled_from(QS))
    m = draw(st.sampled_from((1, 2, 5)))
    n, r = draw(st.sampled_from(SHAPES))
    K = draw(st.integers(1, 4))
    density = draw(st.sampled_from((0.0, 0.3, 1.0)))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    return _instance(q, m, n, K, r, density, rnd), rnd


@settings(max_examples=150, deadline=None)
@given(cases())
def test_specialize_and_annihilation_match_reference(case):
    inst, rnd = case
    field = inst.field
    eqs = build_equations(inst)
    fam = enumerate_sprime(inst.m, inst.n, inst.r)
    spec = specialize(fam, inst)
    assert check_annihilation(field, spec, eqs) is True
    for i in range(len(fam)):
        assert _entries(spec, i, eqs) == ref_specialize(fam, i, inst, eqs)
        assert ref_annihilates(inst, eqs, spec, i)
    for kind in ("bump", "add", "move"):
        perturbed = _perturb(inst, eqs, spec, kind, rnd)
        if perturbed is None:
            continue
        i, bad = perturbed
        assert not ref_annihilates(inst, eqs, bad, i)
        assert check_annihilation(field, bad, eqs) is False
        assert [check_annihilation(field, member, eqs) for member in bad] == [
            j != i for j in range(len(bad))]
    empty = SpecializedFamily(spec.m, spec.n, spec.r, spec.eq[:0], spec.forms[:0])
    assert len(empty) == 0 and check_annihilation(field, empty, eqs) is True


def test_square_monomial_alone_fails_at_q2():
    # eq(0, J) = x_1 c_1 and eq(1, J) = (x_0 + x_1) c_1 on J = (0, 1); the
    # syzygy x_0 eq(0, J) + x_1 eq(1, J) = 2 x_0 x_1 c_1 + x_1^2 c_1 leaves
    # only the square x_1^2 c_1 over GF(2).
    f = PrimeField(2)
    M0 = np.array([[0, 0], [1, 0]], dtype=np.int64)
    M1 = np.array([[1, 0], [1, 0]], dtype=np.int64)
    inst = MinRankInstance(f, 2, 2, 2, 1, (M0, M1))
    eqs = build_equations(inst)
    s = SpecializedFamily(2, 2, 1, np.array([[eq_index(eqs, 0, (0, 1)), eq_index(eqs, 1, (0, 1))]]),
                          np.array([[[1, 0], [0, 1]]]))
    assert not ref_annihilates(inst, eqs, s, 0)
    assert not check_annihilation(f, s, eqs)
    # Over GF(3) the cross term 2 x_0 x_1 c_1 survives as well.
    f3 = PrimeField(3)
    inst3 = MinRankInstance(f3, 2, 2, 2, 1, (M0, M1))
    eqs3 = build_equations(inst3)
    assert not ref_annihilates(inst3, eqs3, s, 0) and not check_annihilation(f3, s, eqs3)


def test_annihilation_exact_at_the_largest_bins():
    # The largest member in SHAPES, (n, r) = (5, 3): E = 2(r+2) = 10 entries,
    # all on the equation (row 0, J = (0, 1, 2, 3)), whose coefficients are
    # all q - 1 (column j_t holds q - 1 at even t and 1 at odd t).  With every
    # form q - 1, a bin of x_a x_b sums 2 E products (q-1)^2: past 2^53 in
    # float64 at q = 2^31 - 1 unless the products are reduced first.
    n, r, K = 5, 3, 3
    E = 2 * (r + 2)
    assert (n, r) in SHAPES and r == max(s for _, s in SHAPES)
    for q in QS:
        row = np.array([q - 1, 1, q - 1, 1, q - 1], dtype=np.int64)
        inst = MinRankInstance(PrimeField(q), 1, n, K, r, (row[None, :],) * K)
        eqs = build_equations(inst)
        e0 = eq_index(eqs, 0, (0, 1, 2, 3))
        assert (eqs.coef[e0] == q - 1).all()
        eq = np.full((1, E), e0)
        full = np.full((1, E, K), q - 1, dtype=np.int64)
        # Forms summing to a multiple of q per variable: the member is 0.
        zero = full.copy()
        zero[0, -1] = (E - 1) % q
        for forms, holds in [(full, E % q == 0), (zero, True)]:  # full: -E eq(e0)
            for e, a, d in [(None, None, 0), (0, 0, 1), (0, 0, q - 1), (E - 1, K - 1, 1)]:
                bumped = forms.copy()
                if e is not None:
                    bumped[0, e, a] = (bumped[0, e, a] + d) % q
                spec = SpecializedFamily(1, n, r, eq, bumped)
                want = holds and e is None
                assert ref_annihilates(inst, eqs, spec, 0) is want
                assert check_annihilation(inst.field, spec, eqs) is want, (q, holds, e, a, d)
