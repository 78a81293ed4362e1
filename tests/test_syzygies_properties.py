"""Property test of the array-backed `specialize` / `check_annihilation`
against the dict expansions `oracle.ref_specialize` / `oracle.ref_annihilates`.

Fields span q in {2, 3, 7, 32003, 2**31 - 1}, shapes r in {1, n - 2} and
m in {1, 2, 5}.  Pencil entries are drawn with Python's `random` at a chosen
density.  Every enumerated syzygy of the drawn instance is checked as it is
and under one perturbation: a coefficient bumped by 1 or q - 1, an added
x-variable, or an entry moved to another equation's key; `specialize` also
sees each syzygy with one added y-variable.  The empty syzygy and a GF(2)
case where only a square monomial survives are checked apart.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from supportminors.field import PrimeField
from supportminors.instance import MinRankInstance
from supportminors.modeling import build_equations
from supportminors.syzygies import (
    LinearForm,
    Syzygy,
    check_annihilation,
    enumerate_sprime,
    specialize,
)

from oracle import ref_annihilates, ref_specialize

QS = (2, 3, 7, 32003, 2**31 - 1)
SHAPES = [(n, r) for n in (3, 4, 5) for r in sorted({1, n - 2})]  # (n, r)


def _instance(q, m, n, K, r, density, rnd):
    mats = tuple(
        np.array([[rnd.randrange(1, q) if rnd.random() < density else 0 for _ in range(n)]
                  for _ in range(m)], dtype=np.int64)
        for _ in range(K)
    )
    return MinRankInstance(PrimeField(q), m, n, K, r, mats)


def _perturb(x: Syzygy, keys, K: int, q: int, rnd: random.Random) -> Syzygy:
    entries = list(x.entries)
    e = rnd.randrange(len(entries))
    key, form = entries[e]
    coeffs = dict(form.coeffs)
    kind = rnd.choice(("bump", "add", "move"))
    if kind == "bump":
        a = rnd.choice(sorted(coeffs))
        coeffs[a] = (coeffs[a] + rnd.choice((1, q - 1))) % q
    elif kind == "add":
        a = rnd.randrange(K)
        coeffs[a] = (coeffs.get(a, 0) + rnd.randrange(1, q)) % q
    else:
        key = rnd.choice([k for k in keys if k != key])
    entries[e] = (key, LinearForm("x", tuple(sorted((a, c) for a, c in coeffs.items() if c))))
    return Syzygy("x", tuple(entries), x.origin)


def _add_y_term(s: Syzygy, inst, rnd: random.Random) -> Syzygy:
    entries = list(s.entries)
    e = rnd.randrange(len(entries))
    key, form = entries[e]
    term = ((rnd.randrange(inst.m), rnd.randrange(inst.n)), rnd.randrange(-inst.field.q, inst.field.q))
    entries[e] = (key, LinearForm("y", form.coeffs + (term,)))
    return Syzygy("y", tuple(entries), s.origin)


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
    q = inst.field.q
    eqs = build_equations(inst)
    keys = [eqs.label(e) for e in range(len(eqs))]
    for s in enumerate_sprime(inst.m, inst.n, inst.r):
        x = specialize(s, inst)
        assert x == ref_specialize(s, inst)
        y = _add_y_term(s, inst, rnd)
        assert specialize(y, inst) == ref_specialize(y, inst)
        assert check_annihilation(inst.field, x, eqs) is ref_annihilates(inst, x) is True
        if x.entries and len(keys) > 1:
            bad = _perturb(x, keys, inst.K, q, rnd)
            assert check_annihilation(inst.field, bad, eqs) == ref_annihilates(inst, bad)
    empty = Syzygy("x", (), ("S1", 0, ()))
    assert check_annihilation(inst.field, empty, eqs) and ref_annihilates(inst, empty)


def test_square_monomial_alone_fails_at_q2():
    # eq(0, J) = x_1 c_1 and eq(1, J) = (x_0 + x_1) c_1 on J = (0, 1); the
    # syzygy x_0 eq(0, J) + x_1 eq(1, J) = 2 x_0 x_1 c_1 + x_1^2 c_1 leaves
    # only the square x_1^2 c_1 over GF(2).
    f = PrimeField(2)
    M0 = np.array([[0, 0], [1, 0]], dtype=np.int64)
    M1 = np.array([[1, 0], [1, 0]], dtype=np.int64)
    inst = MinRankInstance(f, 2, 2, 2, 1, (M0, M1))
    eqs = build_equations(inst)
    s = Syzygy("x", (((0, (0, 1)), LinearForm("x", ((0, 1),))),
                     ((1, (0, 1)), LinearForm("x", ((1, 1),)))), ("S3", 0, 1, (0, 1)))
    assert not ref_annihilates(inst, s)
    assert not check_annihilation(f, s, eqs)
    # Over GF(3) the cross term 2 x_0 x_1 c_1 survives as well.
    f3 = PrimeField(3)
    inst3 = MinRankInstance(f3, 2, 2, 2, 1, (M0, M1))
    assert not ref_annihilates(inst3, s) and not check_annihilation(f3, s, build_equations(inst3))
