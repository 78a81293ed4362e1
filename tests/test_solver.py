import hashlib
import itertools
from dataclasses import astuple

import numpy as np
import pytest

from supportminors import solver
from supportminors.errors import CapExceededError
from supportminors.field import PrimeField
from supportminors.instance import (
    MinRankInstance,
    brute_force_solve,
    evaluate_pencil,
    gen_planted,
    gen_random,
    normalize_projective,
)
from supportminors.linalg import rank
from supportminors.prng import ChaChaStream
from supportminors.solver import (
    _quadratic_roots,
    _rank_one_column,
    _sqrt_mod,
    solve_linearization,
)
from supportminors.combinatorics import subsets_colex

from oracle import (
    colex_monomials, colex_subsets, evaluation_vector, extend_to_rank, plucker_vector, ref_det,
    ref_rank,
)

F7 = PrimeField(7)
F31 = PrimeField(31)
FBIG = PrimeField(32003)


def rank_r_matrix(field, m, n, r, seed):
    s = ChaChaStream(seed)
    U = np.array([[s.below(field.q) for _ in range(r)] for _ in range(m)], dtype=np.int64)
    V = np.array([[s.below(field.q) for _ in range(n)] for _ in range(r)], dtype=np.int64)
    return U @ V % field.q


def test_plucker_vector_matches_leibniz():
    M = rank_r_matrix(F7, 2, 4, 2, seed=3) + 1  # generic-ish 2x4
    M %= 7
    want = plucker_vector(F7, M)
    for idx, T in enumerate(subsets_colex(4, 2)):
        assert ref_det(M[:, list(T)].tolist(), 7) == want[idx]


def test_extend_to_rank():
    inst, x = gen_planted(F7, 4, 5, 3, 2, seed=0)
    P = evaluate_pencil(inst, x)
    C = extend_to_rank(F7, P, 3)
    assert C.shape == (3, 5)
    assert rank(F7, C) == 3
    assert rank(F7, np.vstack([C, P])) == 3  # row space containment
    with pytest.raises(ValueError):
        extend_to_rank(F7, np.eye(4, dtype=np.int64), 2)


def test_sqrt_mod_exhaustive_small_primes():
    for q in (3, 5, 13, 17, 97):  # includes both residue classes mod 4
        squares = {a * a % q for a in range(q)}
        for a in range(q):
            s = _sqrt_mod(a, q)
            if a in squares:
                assert s is not None and s * s % q == a
            else:
                assert s is None


def test_sqrt_mod_large_prime():
    q = 32003
    for a in (2, 3, 12345, 31999):
        s = _sqrt_mod(a * a % q, q)
        assert s is not None and s * s % q == a * a % q


def test_quadratic_roots_known_factors():
    for q in (31, 32003):
        f = PrimeField(q)
        for a, b in [(3, 5), (0, 17), (9, 9)]:
            # (t - a)(t - b) = t^2 - (a+b) t + ab
            roots = _quadratic_roots(f, 1, -(a + b) % q, a * b % q)
            assert sorted(roots) == sorted({a % q, b % q})
        assert _quadratic_roots(f, 0, 2, 3) == [(-3) * f.inv(2) % q]
        assert _quadratic_roots(f, 0, 0, 5) == []
        assert _quadratic_roots(f, 0, 0, 0) == []


def test_quadratic_roots_irreducible():
    # t^2 + 1 over GF(31): -1 is a non-residue since 31 = 3 mod 4.
    assert _quadratic_roots(F31, 1, 0, 1) == []


def _roots_by_evaluation(q, c2, c1, c0):
    if c2 % q == c1 % q == c0 % q == 0:
        return []  # the zero polynomial is documented to return []
    t = np.arange(q, dtype=np.int64)
    return np.flatnonzero((c2 * t * t + c1 * t + c0) % q == 0).tolist()


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_quadratic_roots_exhaustive_small_fields(q):
    f = PrimeField(q)
    for c2, c1, c0 in itertools.product(range(q), repeat=3):
        assert _quadratic_roots(f, c2, c1, c0) == _roots_by_evaluation(q, c2, c1, c0)


@pytest.mark.parametrize("q", [4093, 4099])
def test_quadratic_roots_random_triples(q):
    # The primes either side of 4096, a natural cut-over to exhaustive evaluation.
    f = PrimeField(q)
    triples = ChaChaStream(q).below_array(q, 3 * 60).reshape(60, 3).tolist()
    triples += [[1, -2 * a % q, a * a % q] for a in (0, 1, q - 1)]  # double roots
    for c2, c1, c0 in triples:
        assert _quadratic_roots(f, c2, c1, c0) == _roots_by_evaluation(q, c2, c1, c0)


def _rank_one_inputs(q):
    top = q - 1
    s = ChaChaStream(q)
    u = np.array([top, 0, 1, top], dtype=np.int64)
    v = np.array([0, top, top, 1, 2 % q], dtype=np.int64)
    single = np.zeros((4, 5), dtype=np.int64)
    single[2, 3] = top
    outer = np.outer(u, v) % q
    bumped = outer.copy()
    bumped[3, 4] = (bumped[3, 4] + 1) % q
    yield np.zeros((4, 5), dtype=np.int64)
    yield single
    yield outer
    yield np.full((3, 3), top, dtype=np.int64)
    yield bumped
    yield (outer + np.outer(v[:4], u[::-1].tolist() + [1])) % q  # rank 2 for most q
    for shape in [(1, 6), (6, 1), (1, 1), (3, 4), (2, 2)]:
        for _ in range(4):
            yield s.below_array(q, shape[0] * shape[1]).reshape(shape)
    for _ in range(4):
        col, row = s.below_array(q, 5), s.below_array(q, 3)
        yield np.outer(col, row) % q


@pytest.mark.parametrize("q", [2, 3, 7, 32003, 2**31 - 1])
def test_rank_one_column_matches_reference_rank(q):
    for W in _rank_one_inputs(q):
        got = _rank_one_column(W, q)
        if ref_rank(W.tolist(), q) == 1:
            first_col = int(np.flatnonzero(W.any(axis=0))[0])
            assert got is not None and np.array_equal(got, W[:, first_col])
        else:
            assert got is None


def test_solve_b1_recovers_planted_witness():
    for seed in range(5):
        inst, x = gen_planted(FBIG, 4, 4, 2, 2, seed=seed)
        sols, diag = solve_linearization(inst, 1)
        assert diag.complete
        assert normalize_projective(FBIG, x) in {s.x for s in sols}


def test_solve_b2_recovers_planted_witness():
    for seed in range(5):
        inst, x = gen_planted(FBIG, 4, 4, 3, 2, seed=seed)
        sols, diag = solve_linearization(inst, 2)
        assert diag.kernel_dim >= 1
        # The reported rank is the Macaulay rank, whatever solutions were found.
        assert diag.rank == diag.cols - diag.kernel_dim == rank(FBIG, solver.macaulay(inst, 2).data)
        assert normalize_projective(FBIG, x) in {s.x for s in sols}
        for s in sols:
            assert s.achieved_rank <= 2


def test_b2_recovers_witness_that_b1_cannot():
    # (m, n, r, K) = (6, 7, 2, 12): the b = 1 kernel has dimension 42, far past
    # the extraction cap, and the 2520 x 1638 Mac_2 has a one-dimensional kernel.
    inst, x = gen_planted(FBIG, 6, 7, 12, 2, seed=0)
    sols, diag = solve_linearization(inst, 1)
    assert normalize_projective(FBIG, x) not in {s.x for s in sols} and not diag.complete
    sols, diag = solve_linearization(inst, 2)
    assert (diag.rows, diag.cols, diag.kernel_dim, diag.complete) == (2520, 1638, 1, True)
    assert [s.x for s in sols] == [normalize_projective(FBIG, x)]


def test_solve_rejects_bad_degree():
    inst = gen_random(F7, 3, 4, 2, seed=0, r=1)
    with pytest.raises(ValueError):
        solve_linearization(inst, 3)


def test_unsolvable_full_column_rank():
    for seed in range(3):
        inst = gen_random(FBIG, 3, 5, 4, seed=seed, r=1)
        sols, diag = solve_linearization(inst, 1)
        assert sols == [] and diag.kernel_dim == 0 and diag.method == "none"
        assert diag.rank == diag.cols == 20


def test_solve_matches_brute_small_fields():
    params = [(4, 4, 2, 2, 1), (2, 3, 1, 2, 1), (4, 4, 2, 3, 2)]
    for q in (2, 3, 7, 31):
        f = PrimeField(q)
        for m, n, r, K, b in params:
            for seed in range(3):
                inst, _ = gen_planted(f, m, n, K, r, seed=seed)
                sols, diag = solve_linearization(inst, b)
                assert diag.complete
                expected = brute_force_solve(inst)
                assert [s.x for s in sols] == [s.x for s in expected]


@pytest.mark.parametrize("q", [2, 3])
def test_low_rank_pencils_match_brute(q, monkeypatch):
    """Small random pencils at r = 1 and triples of rank-one matrices send
    extraction through the quadratic's roots (with a t^2 term) and through
    the combination sweep."""
    f = PrimeField(q)
    quadratic_terms = []

    def roots(field, c2, c1, c0):
        quadratic_terms.append(c2 % field.q)
        return _quadratic_roots(field, c2, c1, c0)

    monkeypatch.setattr(solver, "_quadratic_roots", roots)
    instances = []
    for seed in range(6):
        instances.append((gen_random(f, 2, 3, 2, seed=seed, r=1), 1))
        instances.append((gen_random(f, 2, 3, 2, seed=seed, r=1), 2))
        mats = tuple(rank_r_matrix(f, 4, 4, 1, seed=10 * seed + i) for i in range(3))
        instances.append((MinRankInstance(f, 4, 4, 3, 1, mats), 1))
    methods = set()
    for inst, b in instances:
        sols, diag = solve_linearization(inst, b)
        assert diag.complete
        assert [s.x for s in sols] == [s.x for s in brute_force_solve(inst)]
        methods.add(diag.method)
    assert {"pencil", "combo-enumeration"} <= methods
    assert any(quadratic_terms)


def test_two_solution_pencil_path():
    # Two planted directions e_1, e_2 force kernel dimension >= 2 at b = 1.
    M1 = rank_r_matrix(F31, 4, 4, 2, seed=21)
    M2 = rank_r_matrix(F31, 4, 4, 2, seed=22)
    inst = MinRankInstance(F31, 4, 4, 2, 2, (M1, M2))
    sols, diag = solve_linearization(inst, 1)
    assert diag.kernel_dim >= 2 and diag.complete
    found = {s.x for s in sols}
    assert {(1, 0), (0, 1)} <= found
    assert [s.x for s in sols] == [s.x for s in brute_force_solve(inst)]


def test_three_solution_combo_enumeration():
    mats = tuple(rank_r_matrix(F7, 4, 4, 2, seed=30 + i) for i in range(3))
    inst = MinRankInstance(F7, 4, 4, 3, 2, mats)
    sols, diag = solve_linearization(inst, 1)
    assert diag.kernel_dim >= 3 and diag.complete
    assert diag.method in ("combo-enumeration", "brute-fallback")
    assert [s.x for s in sols] == [s.x for s in brute_force_solve(inst)]
    assert {(1, 0, 0), (0, 1, 0), (0, 0, 1)} <= {s.x for s in sols}


def test_extraction_cap_partial_result(monkeypatch):
    inst, _ = gen_planted(F7, 4, 4, 3, 2, seed=0)
    monkeypatch.setattr(solver, "EXTRACTION_CAP", 0)
    sols, diag = solve_linearization(inst, 2, brute_cap=0)
    assert sols == [] and not diag.complete


def test_brute_fallback_above_extraction_cap():
    # Three rank-one 3x4 matrices over GF(2): the b = 1 kernel has dimension
    # 9 > EXTRACTION_CAP, while P^2(GF(2)) has only 7 points to scan.
    f = PrimeField(2)
    inst = MinRankInstance(f, 3, 4, 3, 1, tuple(rank_r_matrix(f, 3, 4, 1, seed=i) for i in range(3)))
    sols, diag = solve_linearization(inst, 1)
    assert diag.kernel_dim == 9 > solver.EXTRACTION_CAP
    assert diag.method == "brute-fallback" and diag.complete
    assert [s.x for s in sols] == [s.x for s in brute_force_solve(inst)]


def test_brute_fallback_on_degenerate_instance(monkeypatch):
    zero = MinRankInstance(F7, 3, 3, 2, 1, (np.zeros((3, 3), dtype=np.int64),) * 2)
    monkeypatch.setattr(solver, "EXTRACTION_CAP", 10)
    monkeypatch.setattr(solver, "COMBO_CAP", 100)
    sols, diag = solve_linearization(zero, 1)
    assert diag.kernel_dim == 6  # everything is in the kernel
    assert diag.method == "brute-fallback" and diag.complete
    assert sols == []


def test_fix_pluecker_mode():
    inst, x = gen_planted(FBIG, 4, 4, 3, 2, seed=7)
    want = normalize_projective(FBIG, x)
    hits = 0
    for T in subsets_colex(4, 2):
        sols, diag = solve_linearization(inst, 2, fix_pluecker=T)
        assert diag.fixed_plucker == T
        if want in {s.x for s in sols}:
            hits += 1
    assert hits >= 1  # the solution's support has at least one invertible minor
    with pytest.raises(ValueError):
        solve_linearization(inst, 2, fix_pluecker=(0, 9))


@pytest.mark.parametrize("T", [(0, 9), (1, 0), (1, 1), (-1, 2), (0, 1, 2), (0,)])
def test_fix_pluecker_rejected_before_elimination(monkeypatch, T):
    inst, _ = gen_planted(F31, 4, 4, 3, 2, seed=7)

    def refuse(*args, **kwargs):
        raise AssertionError("kernel computed before fix_pluecker was checked")

    monkeypatch.setattr(solver, "macaulay_kernel", refuse)
    with pytest.raises(ValueError) as err:
        solve_linearization(inst, 2, fix_pluecker=T)
    assert str(err.value) == f"{T} is not an r-subset of the column set"


def test_evaluation_vector_consistency_with_solver():
    from supportminors.modeling import macaulay

    inst, x = gen_planted(F31, 4, 4, 2, 2, seed=2)
    C = extend_to_rank(F31, evaluate_pencil(inst, x), 2)
    mac = macaulay(inst, 1)
    v = evaluation_vector(F31, mac, x, C)
    W = v.reshape(len(colex_monomials(inst.K, 1)), len(colex_subsets(inst.n, inst.r)))
    assert rank(F31, W) == 1


def test_solver_deterministic():
    inst, _ = gen_planted(F31, 4, 4, 3, 2, seed=9)
    a = solve_linearization(inst, 2)
    b = solve_linearization(inst, 2)
    assert [s.x for s in a[0]] == [s.x for s in b[0]]
    assert a[1] == b[1]


def _solve_grid():
    """(instance, b, keywords) covering every extraction method, both kinds
    of `none` (an empty kernel, and an incomplete sweep whose scan does not
    fit `brute_cap`), b = 1 and 2, `fix_pluecker`, and every matrix-cap
    refusal: Mac_1 at b = 1; Mac_2's nominal cells at b = 2, assembled by
    the generic rule or after a larger observed d1 re-prices the lift."""
    F2, F3 = PrimeField(2), PrimeField(3)
    for f in (F2, F3, F7):
        for seed in range(3):
            small = gen_random(f, 2, 3, 2, seed=seed, r=1)
            yield small, 1, {}
            yield small, 2, {}
            mats = tuple(rank_r_matrix(f, 4, 4, 1, seed=10 * seed + i) for i in range(3))
            yield MinRankInstance(f, 4, 4, 3, 1, mats), 1, {}
    for seed in range(2):
        yield gen_planted(FBIG, 4, 4, 2, 2, seed=seed)[0], 1, {}
        yield gen_planted(FBIG, 4, 4, 3, 2, seed=seed)[0], 2, {}
        yield gen_random(FBIG, 3, 5, 4, seed=seed, r=1), 1, {}
    mats = tuple(rank_r_matrix(F31, 4, 4, 2, seed=21 + i) for i in range(2))
    yield MinRankInstance(F31, 4, 4, 2, 2, mats), 1, {}
    mats = tuple(rank_r_matrix(F7, 4, 4, 2, seed=30 + i) for i in range(3))
    three = MinRankInstance(F7, 4, 4, 3, 2, mats)
    wide = MinRankInstance(F2, 3, 4, 3, 1, tuple(rank_r_matrix(F2, 3, 4, 1, seed=i) for i in range(3)))
    zero = MinRankInstance(F7, 3, 3, 2, 1, (np.zeros((3, 3), dtype=np.int64),) * 2)
    for inst in (three, wide, zero):
        yield inst, 1, {}
        yield inst, 2, {}
    for cap in (6, 7):  # P^2(GF(2)) has 7 points
        yield wide, 1, {"brute_cap": cap}
    mats = tuple(rank_r_matrix(FBIG, 4, 4, 1, seed=40 + i) for i in range(3))
    yield MinRankInstance(FBIG, 4, 4, 3, 1, mats), 1, {"brute_cap": 0}
    planted = gen_planted(FBIG, 4, 4, 3, 2, seed=7)[0]
    for T in ((0, 1), (1, 3)):
        yield planted, 2, {"fix_pluecker": T}
    yield gen_planted(F7, 4, 4, 3, 2, seed=0)[0], 1, {"fix_pluecker": (2, 3)}
    # d1 = 9: Mac_2 is 12 x 30 = 360 cells, G would be 18 x 36 = 648, so
    # Mac_2 is assembled and the cap applies to it alone.
    tiny = gen_random(FBIG, 1, 3, 4, seed=0, r=1)
    for cap in (359, 360):
        yield tiny, 2, {"matrix_cap": cap}
    yield tiny, 1, {"matrix_cap": 35}
    # Generic d1 = 10 picks the lift, but d1 = 18 here: G would be 18 x 54 =
    # 972 cells, Mac_2 is 24 x 36 = 864, so Mac_2 is assembled and the cap
    # applies to it alone.
    flat = MinRankInstance(F7, 2, 4, 3, 2, (np.zeros((2, 4), dtype=np.int64),) * 3)
    for cap in (863, 864):
        yield flat, 2, {"matrix_cap": cap}


# sha256 over the solutions and SolveDiagnostics (or refusal message) of
# every `_solve_grid` case, frozen before the solver was split into stages;
# refrozen when b = 2 kernels began to pick lift or assembly by cell count,
# which moved only the cap cases above (every other case's output is as before),
# and again when the lift was re-priced at the observed d1, which moved only
# the zero-pencil cap cases.
SOLVE_GRID_DIGEST = "08b0fa414fedffa47cca00f6af40b72705d4717c75cb2a1f88131851209cb5e9"


def test_solve_grid_golden_digest():
    h, methods, refusals = hashlib.sha256(), set(), 0
    for inst, b, kw in _solve_grid():
        try:
            sols, diag = solve_linearization(inst, b, **kw)
        except CapExceededError as err:
            out, refusals = ("refused", str(err)), refusals + 1
        else:
            out = ([(tuple(map(int, s.x)), s.achieved_rank) for s in sols], astuple(diag))
            methods.add((diag.method, diag.complete, diag.kernel_dim == 0))
        h.update(repr(out).encode())
    assert methods == {
        ("direct", True, False), ("direct", False, False), ("pencil", True, False),
        ("combo-enumeration", True, False), ("brute-fallback", True, False),
        ("none", True, True), ("none", False, False),
    }
    assert refusals == 3
    assert h.hexdigest() == SOLVE_GRID_DIGEST
