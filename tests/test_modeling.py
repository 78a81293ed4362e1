import functools
from math import comb

import numpy as np
import pytest

from supportminors import modeling
from supportminors.combinatorics import subsets_colex
from supportminors.errors import CapExceededError
from supportminors.estimator import ParameterSet
from supportminors.field import PrimeField
from supportminors.instance import MinRankInstance, evaluate_pencil, gen_planted, gen_random
from supportminors.linalg import rank
from supportminors.modeling import build_equations, macaulay, rank_check
from supportminors.solver import solve_linearization

from oracle import (
    Poly, colex_monomials, colex_subsets, eq_index, eq_label, evaluation_vector, extend_to_rank,
    mat_vec, plucker_vector, poly_det, subset_unrank,
)

F5 = PrimeField(5)
F7 = PrimeField(7)
FBIG = PrimeField(32003)


def _terms(eqs, e):
    """Equation e as (x-variable, Plucker subset, coefficient) triples, read
    from the `coef` and `plk` arrays that `macaulay` uses."""
    s = e % len(eqs.plk)
    return {(ell, subset_unrank(int(eqs.plk[s, t]), eqs.n, eqs.r), int(c))
            for (t, ell), c in np.ndenumerate(eqs.coef[e]) if c}


def test_hand_expanded_single_equation():
    inst = MinRankInstance(F5, 1, 2, 1, 1, (np.array([[1, 2]]),))
    eqs = build_equations(inst)
    assert len(eqs) == 1 and eq_label(eqs, 0) == (0, (0, 1))
    # minor of [[x, 2x], [c0, c1]] on both columns: 1*x*c1 - 2*x*c0, -2 = 3 mod 5
    assert eqs.coef.tolist() == [[[1], [3]]] and eqs.plk.tolist() == [[1, 0]]
    assert _terms(eqs, 0) == {(0, (1,), 1), (0, (0,), 3)}


def test_equation_count_and_order():
    inst = gen_random(F7, 3, 5, 2, seed=0, r=2)
    eqs = build_equations(inst)
    assert len(eqs) == 3 * comb(5, 3)
    assert eqs.coef.shape == (len(eqs), 3, 2) and eqs.plk.shape == (comb(5, 3), 3)
    labels = [eq_label(eqs, e) for e in range(len(eqs))]
    expected = [(i, J) for i in range(3) for J in subsets_colex(5, 3)]
    assert labels == expected
    assert [eq_index(eqs, i, J) for i, J in expected] == list(range(len(eqs)))


def test_system_index_rejects_foreign_labels():
    eqs = build_equations(gen_random(F7, 3, 5, 2, seed=0, r=2))
    for row, cols in [(3, (0, 1, 2)), (-1, (0, 1, 2)), (0, (0, 1)), (0, (0, 1, 2, 3)),
                      (0, (2, 1, 0)), (0, (1, 1, 2)), (0, (0, 1, 5)), (0, (-1, 0, 1))]:
        with pytest.raises(ValueError):
            eq_index(eqs, row, cols)


def test_equation_terms_structure():
    inst = gen_random(F7, 2, 4, 3, seed=3, r=2)
    eqs = build_equations(inst)
    assert not eqs.coef.flags.writeable and not eqs.plk.flags.writeable
    for e in range(len(eqs)):
        row, cols = eq_label(eqs, e)
        for ell, T, c in _terms(eqs, e):
            assert c != 0
            assert len(T) == 2
            # T is J minus exactly one element.
            missing = set(cols) - set(T)
            assert len(missing) == 1
            (j,) = missing
            t = cols.index(j)
            sign = 1 if t % 2 == 0 else -1
            assert c == sign * int(inst.matrices[ell][row, j]) % 7


def _symbolic_equation_check(inst):
    """Oracle: each stored equation, with Plucker symbols expanded to minors
    of C, must equal the Leibniz determinant of the stacked symbolic matrix."""
    q = inst.field.q
    r = inst.r
    eqs = build_equations(inst)
    for e in range(len(eqs)):
        row, cols = eq_label(eqs, e)
        stacked = []
        top = []
        for j in cols:
            form = Poly(q)
            for ell in range(inst.K):
                coeff = int(inst.matrices[ell][row, j])
                if coeff:
                    form = form + Poly(q, {(("x", ell),): coeff})
            top.append(form)
        stacked.append(top)
        for t in range(r):
            stacked.append([Poly.var(q, ("c", t, j)) for j in cols])
        direct = poly_det(q, stacked)
        via_terms = Poly(q)
        for ell, T, c in _terms(eqs, e):
            minor = poly_det(
                q, [[Poly.var(q, ("c", t, j)) for j in T] for t in range(r)]
            )
            via_terms = via_terms + Poly(q, {(("x", ell),): c}) * minor
        assert direct == via_terms


def test_equations_match_symbolic_minors():
    _symbolic_equation_check(gen_random(F7, 2, 4, 2, seed=5, r=2))
    _symbolic_equation_check(gen_random(FBIG, 3, 4, 3, seed=6, r=1))
    _symbolic_equation_check(gen_random(PrimeField(2), 2, 3, 2, seed=7, r=1))


def test_planted_solution_zeroes_equations():
    for seed in range(5):
        inst, x = gen_planted(F7, 4, 4, 3, 2, seed=seed)
        C = extend_to_rank(F7, evaluate_pencil(inst, x), 2)
        plk = plucker_vector(F7, C)
        tindex = {T: i for i, T in enumerate(subsets_colex(4, 2))}
        eqs = build_equations(inst)
        for e in range(len(eqs)):
            total = 0
            for ell, T, c in _terms(eqs, e):
                total = (total + c * x[ell] * int(plk[tindex[T]])) % 7
            assert total == 0


def test_r_equal_n_rejected():
    inst = gen_random(F7, 2, 3, 2, seed=0, r=3)
    with pytest.raises(ValueError):
        build_equations(inst)


def test_macaulay_b1_dims():
    inst = gen_random(F7, 3, 5, 4, seed=1, r=1)
    mac = macaulay(inst, 1)
    assert (mac.n_rows, mac.n_cols) == (3 * comb(5, 2), 4 * comb(5, 1))
    assert (mac.b, mac.K) == (1, 4)


def test_macaulay_b2_dims_4423():
    inst = gen_random(FBIG, 4, 4, 3, seed=2, r=2)
    mac = macaulay(inst, 2)
    assert (mac.n_rows, mac.n_cols) == (48, 36)


def _col(K: int, n: int, r: int, nu: tuple[int, ...], T: tuple[int, ...]) -> int:
    """Column (nu, T) by position in the oracle's colex lists."""
    plk = colex_subsets(n, r)
    return colex_monomials(K, len(nu)).index(tuple(sorted(nu))) * len(plk) + plk.index(T)


def test_macaulay_rows_are_monomial_multiples():
    inst = gen_random(F7, 2, 4, 3, seed=9, r=2)
    mac = macaulay(inst, 2)
    dense = mac.data.to_dense()
    col = functools.partial(_col, inst.K, inst.n, inst.r)
    row = 0
    for mu in colex_monomials(inst.K, 1):  # rows: monomial-major, then equation
        for e in range(len(mac.equations)):
            expected = {col(mu + (ell,), T): c for ell, T, c in _terms(mac.equations, e)}
            got = {int(c): int(dense[row, c]) for c in np.flatnonzero(dense[row])}
            assert got == expected
            row += 1
    assert row == mac.n_rows


def test_macaulay_b1_rows_embed_in_b2():
    inst = gen_random(F7, 3, 4, 3, seed=4, r=2)
    m1 = macaulay(inst, 1)
    m2 = macaulay(inst, 2)
    d1 = m1.data.to_dense()
    d2 = m2.data.to_dense()
    E = len(m1.equations)
    col = functools.partial(_col, inst.K, inst.n, inst.r)
    for a, mu in enumerate(colex_monomials(inst.K, 1)):  # multiplier variable
        for ei in range(E):
            row1 = d1[ei]
            row2 = d2[a * E + ei]
            for ell in range(inst.K):
                for T in colex_subsets(inst.n, inst.r):
                    assert row1[col((ell,), T)] == row2[col(mu + (ell,), T)]


def test_macaulay_cap():
    inst = gen_random(F7, 4, 8, 6, seed=0, r=2)
    with pytest.raises(CapExceededError):
        macaulay(inst, 3, cap=1000)


@pytest.mark.parametrize("shape, b, lifts", [  # (m, n, K, r), degree, lifted from b - 1
    ((1, 3, 20, 1), 2, False), ((1, 4, 10, 2), 2, False), ((2, 5, 6, 2), 3, False),
    ((3, 6, 6, 2), 3, True), ((4, 5, 5, 2), 3, True), ((6, 6, 8, 2), 3, True),
    ((5, 3, 5, 2), 4, False), ((5, 3, 5, 2), 5, False), ((6, 6, 8, 2), 2, True),
    ((5, 6, 6, 2), 2, True), ((3, 4, 2, 1), 1, False),
])
def test_lift_rule_choices(shape, b, lifts):
    assert modeling._lifts(ParameterSet(*shape), b) is lifts


def test_matrix_cap_prices_assembled_mac2():
    # Generic d1 = 57: G would be 570 x 1140 cells, Mac_2 is 60 x 630, so
    # Mac_2 is assembled and the cap applies to its cells alone.
    inst = gen_random(FBIG, 1, 3, 20, 1, r=1)
    rep = rank_check(inst, 2, cap=40_000)
    assert (rep.rows, rep.cols, rep.observed_rank, rep.match) == (60, 630, 59, True)
    with pytest.raises(CapExceededError, match="60 x 630 = 37800 cells exceeds cap 37799"):
        rank_check(inst, 2, cap=37_799)


def test_no_rref_below_the_top_degree(monkeypatch):
    # Below the top degree some kernel basis is enough, from one forward
    # elimination; only G's kernel and the top level's basis are reduced.
    calls = []
    for name in ("rref", "right_kernel_basis"):
        def counted(f, M, _name=name, _call=getattr(modeling, name)):
            calls.append((_name, np.shape(M)))
            return _call(f, M)
        monkeypatch.setattr(modeling, name, counted)
    sols, diag = solve_linearization(gen_planted(FBIG, 6, 6, 8, 2, 1)[0], 2)
    assert diag.complete and len(sols) == 1
    assert calls == [("right_kernel_basis", (420, 8)), ("rref", (1, 540))]
    calls.clear()
    for q in (2, 3, 7, 32003, 2**31 - 1):
        rank_check(gen_random(PrimeField(q), 5, 6, 6, 1, r=2), 2)
    assert calls == []


def test_evaluation_vector_in_kernel():
    for seed in range(3):
        inst, x = gen_planted(FBIG, 4, 4, 3, 2, seed=seed)
        C = extend_to_rank(FBIG, evaluate_pencil(inst, x), 2)
        for b in (1, 2, 3):
            mac = macaulay(inst, b)
            v = evaluation_vector(FBIG, mac, x, C)
            assert v.any()
            assert not mat_vec(FBIG, mac.data.to_dense(), v).any()


def test_rank_check_b1_examples():
    rep = rank_check(gen_random(FBIG, 4, 4, 3, seed=11, r=2), 1)
    assert (rep.rows, rep.cols) == (16, 18)
    assert rep.predicted == 16
    assert rep.observed_rank == 16 and rep.match
    rep2 = rank_check(gen_random(FBIG, 2, 3, 2, seed=12, r=1), 1)
    assert rep2.predicted == 6
    assert rep2.observed_rank == 6 and rep2.match


def test_rank_check_b2_example():
    rep = rank_check(gen_random(FBIG, 4, 4, 3, seed=13, r=2), 2)
    assert rep.predicted == 36 and rep.precondition_met
    assert rep.observed_rank == 36 and rep.match


def test_rank_check_b2_failed_precondition_still_reports():
    rep = rank_check(gen_random(FBIG, 4, 4, 2, seed=14, r=2), 2)
    assert not rep.precondition_met
    assert rep.predicted == min(2 * 16 - 10, comb(3, 2) * 6)


def test_rank_check_rejects_other_b():
    inst = gen_random(F7, 2, 3, 2, seed=0, r=1)
    with pytest.raises(ValueError):
        rank_check(inst, 0)


@pytest.mark.parametrize("m, n, K, r", [(5, 3, 5, 2), (6, 3, 6, 2), (3, 4, 4, 2), (2, 4, 5, 1)])
def test_rank_check_past_b2(m, n, K, r):
    for b in (3, 4):
        rep = rank_check(gen_random(FBIG, m, n, K, seed=1, r=r), b)
        assert rep.match, (b, rep)
        assert rep.precondition_met == (r == n - 1)  # K >= m at every r = n - 1 set


def test_planted_rank_deficient():
    for seed in range(5):
        inst, _ = gen_planted(FBIG, 4, 4, 3, 2, seed=seed)
        mac = macaulay(inst, 2)
        assert rank(FBIG, mac.data) <= mac.n_cols - 1
