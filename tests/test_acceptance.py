"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
All comparisons are exact (tolerance 0); randomized checks use fixed seed
batches at q = 32003 unless the criterion spans several fields.
"""

import random
import time
from math import comb


import supportminors as sm
from supportminors.linalg import rank as matrix_rank
from supportminors.modeling import build_equations, macaulay
from supportminors.syzygies import enumerate_sprime1, enumerate_sprime3

FBIG = sm.PrimeField(32003)


def _finish(label, ok, detail=""):
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"{label} failed{detail}"


def test_criterion_1_b1_rank_formula():
    params = [(4, 4, 2, 3), (3, 5, 1, 4), (5, 4, 2, 6)]  # (m, n, r, K)
    failures = []
    slow = 0.0
    for m, n, r, K in params:
        predicted = min(m * comb(n, r + 1), K * comb(n, r))
        for seed in range(50):
            t0 = time.time()
            inst = sm.gen_random(FBIG, m, n, K, seed=seed, r=r)
            rep = sm.rank_check(inst, 1)
            slow = max(slow, time.time() - t0)
            if rep.observed_rank != predicted or rep.predicted != predicted:
                failures.append((m, n, r, K, seed, rep.observed_rank))
    ok = not failures and slow < 1.0
    _finish("1 b1-rank-formula", ok,
            f" (150 seeds, max {slow:.3f}s/seed{', failures: ' + str(failures[:3]) if failures else ''})")


def test_criterion_2_b2_rank_formula():
    failures = []
    slow = 0.0
    for seed in range(50):
        t0 = time.time()
        inst = sm.gen_random(FBIG, 4, 4, 3, seed=seed, r=2)
        rep = sm.rank_check(inst, 2)
        slow = max(slow, time.time() - t0)
        if rep.observed_rank != 36 or rep.predicted != 36 or not rep.precondition_met:
            failures.append((seed, rep.observed_rank))
        # An independent witness: eliminate the assembled matrix itself.
        if matrix_rank(FBIG, macaulay(inst, 2).data) != 36:
            failures.append((seed, "direct"))
    ok = not failures and slow < 1.0
    _finish("2 b2-rank-formula", ok, f" (50 seeds, max {slow:.3f}s/seed)")


def test_criterion_3_syzygy_universality():
    rng = random.Random(20260808)
    qs = [2, 3, 7, 32003]
    checked = 0
    failures = 0
    for i in range(100):
        q = qs[i % 4]
        n = rng.randint(3, 6)
        r = rng.randint(1, n - 2)
        m = rng.randint(1, 5)
        K = rng.randint(1, 5)
        field = sm.PrimeField(q)
        inst = sm.gen_random(field, m, n, K, seed=i, r=r)
        eqs = build_equations(inst)
        spec = sm.specialize(sm.enumerate_sprime(m, n, r), inst)
        checked += len(spec)
        if not sm.check_annihilation(field, spec, eqs):
            failures += sum(not sm.check_annihilation(field, s, eqs) for s in spec)
    _finish("3 syzygy-universality", failures == 0 and checked > 0,
            f" (100 instances, {checked} syzygies, {failures} failures)")


def test_criterion_4_linear_syzygy_dimension():
    expected = comb(5, 2) * comb(4, 4)  # 10
    failures = []
    for seed in range(20):
        inst = sm.gen_random(FBIG, 4, 4, 8, seed=seed, r=2)
        dim = sm.xonly_syzygy_dim(inst, 1)
        mac = macaulay(inst, 2)
        vecs = sm.syzygy_row_vector(sm.specialize(sm.enumerate_sprime(4, 4, 2), inst), mac)
        span = matrix_rank(FBIG, vecs)
        direct = mac.n_rows - matrix_rank(FBIG, mac.data)  # eliminates the assembled matrix
        if dim != expected or direct != expected or len(vecs) != expected or span != expected:
            failures.append((seed, dim, direct, span))
    _finish("4 linear-syzygy-dimension", not failures,
            f" (20 seeds, dim = spanned rank = {expected})")


def test_criterion_5_submaximal_dimensions():
    expected = {3: 0, 4: 5, 5: 22}
    failures = []
    slow = 0.0
    for seed in range(20):
        t0 = time.time()
        inst = sm.gen_random(FBIG, 5, 3, 5, seed=seed, r=2)
        for b, want in expected.items():
            got = sm.xonly_syzygy_dim(inst, b - 1)
            if got != want or sm.submax_dim_formula(5, 3, 5, b) != want:
                failures.append((seed, b, got))
        slow = max(slow, time.time() - t0)
    ok = not failures and slow < 10.0
    _finish("5 submaximal-dimensions", ok, f" (20 seeds, max {slow:.3f}s/seed)")


def test_criterion_6_solver_vs_oracle():
    sets = [  # (m, n, r, K, b) with predicted solvability at that degree
        (4, 4, 2, 3, 2),
        (4, 4, 2, 2, 1),
        (2, 3, 1, 2, 1),
        (3, 5, 1, 4, 1),
    ]
    compared = 0
    failures = []
    for q in (7, 31):
        field = sm.PrimeField(q)
        for m, n, r, K, b in sets:
            for seed in range(4):
                inst, _ = sm.gen_planted(field, m, n, K, r, seed=seed)
                sols, diag = sm.solve_linearization(inst, b)
                if not diag.complete:
                    continue  # cap exceeded: no equality claim
                compared += 1
                expected = sm.brute_force_solve(inst)
                if [s.x for s in sols] != [s.x for s in expected]:
                    failures.append((q, m, n, r, K, b, seed))
    recovered = 0
    for m, n, r, K, b in [(4, 4, 2, 3, 2), (4, 4, 2, 2, 1)]:
        for seed in range(3):
            inst, x = sm.gen_planted(FBIG, m, n, K, r, seed=seed)
            sols, diag = sm.solve_linearization(inst, b)
            if sm.normalize_projective(FBIG, x) in {s.x for s in sols}:
                recovered += 1
    ok = compared >= 30 and not failures and recovered == 6
    _finish("6 solver-vs-oracle", ok,
            f" ({compared} oracle comparisons, {recovered}/6 witnesses at q=32003"
            f"{', failures: ' + str(failures[:3]) if failures else ''})")


def test_criterion_7_counting_identities():
    ok = True
    details = []
    # Family cardinalities: closed forms on the full grid, enumeration below.
    for m in range(1, 13):
        for n in range(3, 13):
            for r in range(1, n - 1):
                s1, s3 = sm.sprime_count(m, n, r)
                if s1 + s3 != comb(m + 1, 2) * comb(n, r + 2):
                    ok = False
                    details.append(f"count ({m},{n},{r})")
                if m <= 9 and n <= 9:
                    if (len(enumerate_sprime1(m, n, r)), len(enumerate_sprime3(m, n, r))) != (s1, s3):
                        ok = False
                        details.append(f"enum ({m},{n},{r})")
    # Rank-nullity on a mixed batch of instances.
    batch = []
    for q, seed in [(2, 0), (7, 1), (32003, 2)]:
        batch.append(sm.gen_random(sm.PrimeField(q), 3, 4, 3, seed=seed, r=1))
        batch.append(sm.gen_planted(sm.PrimeField(q), 4, 4, 3, 2, seed=seed)[0])
    for inst in batch:
        total = inst.K * inst.m * comb(inst.n, inst.r + 1)
        mac = macaulay(inst, 2)
        if matrix_rank(inst.field, mac.data) + sm.xonly_syzygy_dim(inst, 1) != total:
            ok = False
            details.append(f"rank-nullity q={inst.field.q}")
    # Estimator worked examples.
    p = sm.ParameterSet(4, 4, 3, 2)
    if sm.eqs(p, 1)[0] != 16 or sm.eqs(p, 2) != (36, True):
        ok = False
        details.append("estimator counts")
    if sm.solvable(p, 1) or not sm.solvable(p, 2):
        ok = False
        details.append("estimator solvability")
    _finish("7 counting-identities", ok, f" ({'; '.join(details) if details else 'all exact'})")


def test_criterion_8_roundtrip_and_determinism(tmp_path):
    from supportminors.cli import main

    ok = True
    details = []
    path = tmp_path / "inst.mr"
    args = ["gen", "--q", "32003", "--m", "4", "--n", "4", "--K", "3", "--r", "2",
            "--seed", "17", "--machine", "--out"]
    main(args + [str(path)])
    # gen -> parse -> gen byte-identical
    inst = sm.load_instance(path)
    again = tmp_path / "again.mr"
    sm.save_instance(again, inst)
    if again.read_bytes() != path.read_bytes():
        ok = False
        details.append("reserialization differs")
    # Same seed, fresh run: byte-identical file.
    other = tmp_path / "other.mr"
    main(args + [str(other)])
    if other.read_bytes() != path.read_bytes():
        ok = False
        details.append("second gen differs")
    # Identical seeds reproduce identical Macaulay matrices and ranks.
    a = macaulay(sm.gen_random(FBIG, 4, 4, 3, seed=17, r=2), 2)
    b = macaulay(sm.gen_random(FBIG, 4, 4, 3, seed=17, r=2), 2)
    if a.data != b.data:
        ok = False
        details.append("macaulay rebuild differs")
    if matrix_rank(FBIG, a.data) != matrix_rank(FBIG, b.data):
        ok = False
        details.append("rank differs")
    _finish("8 roundtrip-determinism", ok, f" ({'; '.join(details) if details else 'byte-exact'})")
