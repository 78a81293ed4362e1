import hashlib

import numpy as np
import pytest

from supportminors.errors import CapExceededError
from supportminors.field import PrimeField
from supportminors.instance import (
    MinRankInstance,
    SolutionCandidate,
    brute_force_solve,
    decoding_coefficients,
    decoding_to_minrank,
    elementary_instance,
    evaluate_pencil,
    gen_planted,
    gen_random,
    iter_projective,
    normalize_projective,
    verify_solution,
)
from supportminors.linalg import rank
from supportminors.serialization import write_instance, write_witness

from oracle import projective_points, ref_rank

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
FBIG = PrimeField(32003)


def test_pencil_basis_vectors():
    inst = gen_random(F7, 3, 4, 3, seed=0)
    for ell in range(3):
        e = [0] * 3
        e[ell] = 1
        assert np.array_equal(evaluate_pencil(inst, e), inst.matrices[ell])
    assert not evaluate_pencil(inst, [0, 0, 0]).any()


def test_pencil_direct_linearity_example():
    inst = MinRankInstance(F5, 1, 2, 2, 1, (np.array([[1, 0]]), np.array([[0, 1]])))
    assert evaluate_pencil(inst, (2, 3)).tolist() == [[2, 3]]


def test_pencil_is_linear():
    inst = gen_random(F7, 4, 4, 3, seed=2)
    xs = [(1, 2, 3), (4, 5, 6)]
    lhs = evaluate_pencil(inst, [(a + b) % 7 for a, b in zip(*xs)])
    rhs = (evaluate_pencil(inst, xs[0]) + evaluate_pencil(inst, xs[1])) % 7
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(
        evaluate_pencil(inst, [3 * v % 7 for v in xs[0]]),
        3 * evaluate_pencil(inst, xs[0]) % 7,
    )


def test_pencil_length_mismatch():
    inst = gen_random(F7, 2, 2, 3, seed=1)
    with pytest.raises(ValueError):
        evaluate_pencil(inst, [1, 2])


def test_instance_validation():
    with pytest.raises(ValueError):
        MinRankInstance(F5, 2, 2, 1, 3, (np.zeros((2, 2), dtype=np.int64),))  # r > n
    with pytest.raises(ValueError):
        MinRankInstance(F5, 2, 2, 2, 1, (np.zeros((2, 2), dtype=np.int64),))  # K mismatch
    with pytest.raises(ValueError):
        MinRankInstance(F5, 2, 2, 1, 1, (np.zeros((2, 3), dtype=np.int64),))  # shape


def test_instance_matrices_immutable():
    inst = gen_random(F7, 2, 2, 1, seed=0)
    with pytest.raises(ValueError):
        inst.matrices[0][0, 0] = 1


def test_instance_copies_and_reduces_only_out_of_range_entries():
    data = np.array([[[0, 6], [3, 1]]], dtype=np.int64)
    inst = MinRankInstance(F7, 2, 2, 1, 1, data)
    assert data.flags.writeable and not np.shares_memory(inst.stack, data)
    data[0, 0, 0] = 5  # the caller's array is still theirs to write
    assert inst.stack.tolist() == [[[0, 6], [3, 1]]]
    for entries, want in [([[[-1, 7], [3, 1]]], [[[6, 0], [3, 1]]]),
                          ([[[0, 6], [3, 15]]], [[[0, 6], [3, 1]]])]:
        data = np.array(entries, dtype=np.int64)
        inst = MinRankInstance(F7, 2, 2, 1, 1, data)
        assert inst.stack.tolist() == want and data.tolist() == entries


def test_gen_random_deterministic():
    a = gen_random(FBIG, 4, 5, 3, seed=99)
    b = gen_random(FBIG, 4, 5, 3, seed=99)
    c = gen_random(FBIG, 4, 5, 3, seed=100)
    assert a == b
    assert a != c


def test_gen_random_entry_histogram():
    # Deterministic seed, so the bound cannot flake: 10^4 draws over GF(5),
    # expectation 2000 per residue.
    inst = gen_random(F5, 50, 40, 5, seed=123)
    flat = np.concatenate([M.ravel() for M in inst.matrices])
    assert flat.size == 10_000
    counts = np.bincount(flat, minlength=5)
    assert abs(counts - 2000).max() < 250


def test_gen_random_no_spurious_solutions_small_K():
    for seed in range(5):
        inst = gen_random(PrimeField(31), 5, 5, 2, seed=seed, r=2)
        assert brute_force_solve(inst) == []


def test_gen_planted_rank_bounded_and_deterministic():
    for seed in range(10):
        inst, x = gen_planted(F7, 4, 4, 3, 2, seed=seed)
        P = evaluate_pencil(inst, x)
        assert P.any()
        assert rank(F7, P) <= 2
    a = gen_planted(FBIG, 4, 4, 3, 2, seed=4)
    b = gen_planted(FBIG, 4, 4, 3, 2, seed=4)
    assert a[0] == b[0] and a[1] == b[1]


def test_gen_planted_witness_verifies_at_large_parameters():
    for seed in range(20):
        inst, x = gen_planted(FBIG, 4, 4, 8, 2, seed=seed)
        assert verify_solution(inst, x)


def test_gen_planted_found_by_brute_force():
    for seed in range(20):
        inst, x = gen_planted(F7, 4, 4, 3, 2, seed=seed)
        sols = brute_force_solve(inst)
        assert normalize_projective(F7, x) in {s.x for s in sols}


def test_verify_solution():
    inst, x = gen_planted(F7, 3, 3, 2, 1, seed=0)
    assert not verify_solution(inst, [0, 0])
    assert verify_solution(inst, x)


def test_verify_scale_invariance():
    inst, x = gen_planted(F7, 4, 4, 3, 2, seed=3)
    for lam in range(1, 7):
        assert verify_solution(inst, [lam * v % 7 for v in x])


def test_verify_rejects_rank_above_target():
    # Scan for an x whose pencil has rank exactly r+1 and check it fails.
    inst = gen_random(F7, 3, 3, 2, seed=6, r=1)
    found = False
    for x in iter_projective(F7, 2):
        P = evaluate_pencil(inst, x)
        if P.any() and rank(F7, P) == 2:
            assert not verify_solution(inst, x)
            assert verify_solution(MinRankInstance(F7, 3, 3, 2, 2, inst.matrices), x)
            found = True
            break
    assert found


def test_projective_enumeration_p1_f2():
    assert list(iter_projective(PrimeField(2), 2)) == [(0, 1), (1, 0), (1, 1)]


def test_projective_enumeration_matches_reference():
    for q, K in [(2, 3), (3, 3), (5, 2)]:
        got = list(iter_projective(PrimeField(q), K))
        assert got == projective_points(q, K)
        assert got == sorted(got)


def test_brute_force_matches_independent_reenumeration():
    for seed in range(5):
        inst = gen_random(F3, 3, 3, 3, seed=seed, r=1)
        got = brute_force_solve(inst)
        expected = []
        for x in projective_points(3, 3):
            P = [[sum(c * int(M[i, j]) for c, M in zip(x, inst.matrices)) % 3
                  for j in range(3)] for i in range(3)]
            if any(any(row) for row in P) and ref_rank(P, 3) <= 1:
                expected.append(x)
        assert [s.x for s in got] == expected
        assert all(s.achieved_rank == 1 for s in got)


def test_brute_force_cap():
    inst = gen_random(F7, 2, 2, 9, seed=0)
    with pytest.raises(CapExceededError):
        brute_force_solve(inst, cap=1000)


def test_solution_candidate_normalization_enforced():
    with pytest.raises(ValueError):
        SolutionCandidate((0, 0), 1)
    with pytest.raises(ValueError):
        SolutionCandidate((0, 2, 1), 1)
    SolutionCandidate((0, 1, 4), 1)


def test_normalize_projective():
    assert normalize_projective(F7, (0, 3, 5)) == (0, 1, 4)  # 3^-1 = 5 mod 7
    with pytest.raises(ValueError):
        normalize_projective(F7, (0, 0))


def test_decoding_adapter_low_rank_received_word():
    basis = list(gen_random(F7, 3, 4, 2, seed=8).matrices)
    M0 = np.zeros((3, 4), dtype=np.int64)
    M0[0, 0] = 1  # rank-1 received word
    red = decoding_to_minrank(F7, M0, basis, 1)
    assert red.instance.K == 3
    assert verify_solution(red.instance, (0, 0, 1))


def test_decoding_adapter_code_plus_error():
    basis = list(gen_random(F7, 3, 4, 2, seed=10).matrices)
    E = np.zeros((3, 4), dtype=np.int64)
    E[1, 2] = 5  # rank-1 error
    M0 = (basis[0] + E) % 7
    red = decoding_to_minrank(F7, M0, basis, 1)
    assert verify_solution(red.instance, (1, 0, 6))  # M1 - M0 = -E
    assert decoding_coefficients(F7, (1, 0, 6)) == (1, 0)
    assert decoding_coefficients(F7, (1, 0, 0)) is None


def test_decoding_adapter_brute_force_recovery():
    for seed in range(5):
        basis = list(gen_random(F3, 3, 3, 2, seed=seed).matrices)
        s = np.zeros((3, 3), dtype=np.int64)
        s[0] = [1, 2, 1]  # rank-1 error row
        code_coeffs = (1, 2)
        M0 = (code_coeffs[0] * basis[0] + code_coeffs[1] * basis[1] + s) % 3
        red = decoding_to_minrank(F3, M0, basis, 1)
        hits = brute_force_solve(red.instance)
        decoded = {decoding_coefficients(F3, h.x) for h in hits}
        assert code_coeffs in decoded


def test_decoding_adapter_shape_mismatch():
    with pytest.raises(ValueError):
        decoding_to_minrank(
            F7, np.zeros((2, 2), dtype=np.int64), [np.zeros((2, 3), dtype=np.int64)], 1
        )


def test_elementary_instance_is_variable_renaming():
    inst = elementary_instance(F5, 2, 3, 1)
    assert inst.K == 6
    x = [0] * 6
    x[1 * 3 + 2] = 4  # variable for entry (1, 2)
    P = evaluate_pencil(inst, x)
    assert P[1, 2] == 4 and P.sum() == 4


GOLDEN_QS = (2, 3, 7, 32003, 2**31 - 1)
# (m, n, K, r); the first three are the benchmark shapes.
GOLDEN_SHAPES = ((6, 6, 8, 2), (5, 6, 6, 2), (20, 20, 60, 10), (3, 5, 7, 1), (1, 2, 2, 1))
GOLDEN_SEEDS = (0, 2**64 - 1)
# sha256 over the serialized output of every generator call below, frozen
# from the scalar keystream; it pins the draw order of the generators.  The
# two (20, 20, 60, 10) planted instances at q = 2^31 - 1 were re-frozen when
# the planted target became an exact product (their witnesses had not verified).
GOLDEN_DIGEST = "01fc1dc19300abaa12ce44936de184616b8b2819c98b258d9b9bbe77529652fb"


def test_generated_instances_golden_digest():
    h = hashlib.sha256()
    for q in GOLDEN_QS:
        F = PrimeField(q)
        for m, n, K, r in GOLDEN_SHAPES:
            for seed in GOLDEN_SEEDS:
                inst, x = gen_planted(F, m, n, K, r, seed)
                assert verify_solution(inst, x)
                h.update(write_instance(inst).encode("ascii"))
                h.update(write_witness(q, x).encode("ascii"))
                h.update(write_instance(gen_random(F, m, n, K, seed, r=r)).encode("ascii"))
    assert h.hexdigest() == GOLDEN_DIGEST
