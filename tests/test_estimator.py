from math import comb

import pytest

from supportminors.estimator import (
    ComplexityReport,
    ParameterSet,
    complexity_report,
    cost_estimate,
    eqs,
    format_report,
    macaulay_dims,
    solvable,
    sprime_count,
    submax_dim_formula,
)
from oracle import ref_eqs_b1, ref_eqs_b2, ref_solvable


def test_eqs_b1_examples():
    assert eqs(ParameterSet(4, 4, 3, 2), 1) == (16, True)  # min(16, 18)
    assert eqs(ParameterSet(2, 3, 2, 1), 1) == (6, True)   # min(6, 6)
    assert eqs(ParameterSet(3, 3, 2, 3), 1) == (0, True)   # r = n


def test_eqs_b2_examples():
    value, pre = eqs(ParameterSet(4, 4, 3, 2), 2)
    assert (value, pre) == (36, True)  # min(48 - 10, 36)
    value, pre = eqs(ParameterSet(4, 4, 2, 2), 2)
    assert not pre  # 16 <= 12 fails
    assert value == min(2 * 16 - 10, comb(3, 2) * 6) == 18
    value, _ = eqs(ParameterSet(3, 4, 2, 3), 2)
    assert value == min(2 * 3 * comb(4, 4) - 0, comb(3, 2) * comb(4, 3))  # r+2 > n


def test_solvable_examples():
    p = ParameterSet(4, 4, 3, 2)
    assert not solvable(p, 1)  # 16 < 17
    assert solvable(p, 2)      # 38 >= 35
    assert solvable(ParameterSet(4, 4, 2, 2), 1)  # 16 >= 11
    assert solvable(ParameterSet(1, 3, 1, 1), 1)  # 3 >= 2
    with pytest.raises(ValueError):
        solvable(p, 0)


def test_macaulay_dims():
    p = ParameterSet(4, 4, 3, 2)
    assert macaulay_dims(p, 1) == (16, 18)
    assert macaulay_dims(p, 2) == (48, 36)
    assert macaulay_dims(ParameterSet(5, 3, 5, 2), 4) == (comb(7, 3) * 5, comb(8, 4) * 3)
    assert macaulay_dims(ParameterSet(5, 3, 5, 2), 4) == (175, 210)
    with pytest.raises(ValueError):
        macaulay_dims(p, 0)


def test_cost_model():
    p = ParameterSet(4, 4, 3, 2)
    assert cost_estimate(p, 2)["dense"] == 48 * 36 * 36 == 62208
    degenerate = ParameterSet(3, 3, 2, 3)  # r = n: zero rows
    assert cost_estimate(degenerate, 1) == {"dense": 0, "sparse": 0}
    costs = [cost_estimate(p, b)["dense"] for b in (1, 2, 3, 4)]
    assert costs == sorted(costs)


def test_exact_big_integers():
    p = ParameterSet(60, 60, 100, 30)
    rows, cols = macaulay_dims(p, 2)
    assert rows == comb(100, 1) * 60 * comb(60, 31)
    assert cols == comb(101, 2) * comb(60, 30)
    assert isinstance(eqs(p, 1)[0], int)
    value, _ = eqs(p, 2)
    assert value == min(
        100 * 60 * comb(60, 31) - comb(61, 2) * comb(60, 32),
        comb(101, 2) * comb(60, 30),
    )


def test_sprime_count_identity():
    for m in range(1, 13):
        for n in range(3, 13):
            for r in range(1, n - 1):
                s1, s3 = sprime_count(m, n, r)
                assert s1 + s3 == comb(m + 1, 2) * comb(n, r + 2)


def test_b2_count_plus_syzygies_equals_rows():
    # Whenever the row-branch of the min is active.
    for m, n, K, r in [(4, 4, 3, 2), (3, 5, 6, 2), (2, 4, 5, 1)]:
        p = ParameterSet(m, n, K, r)
        value, _ = eqs(p, 2)
        rows, _ = macaulay_dims(p, 2)
        syz = comb(m + 1, 2) * comb(n, r + 2)
        if value == rows - syz:  # row branch active
            assert value + syz == rows


def test_parameter_validation():
    with pytest.raises(ValueError):
        ParameterSet(0, 4, 3, 2)
    with pytest.raises(ValueError):
        ParameterSet(4, 4, 3, 5)


def test_report_structure_and_grammar():
    rep = complexity_report(ParameterSet(4, 4, 3, 2), extra_b=(4,))
    assert isinstance(rep, ComplexityReport)
    assert [e["b"] for e in rep.entries] == [1, 2, 4]
    for entry in rep.entries:
        assert entry["predicted"] <= min(entry["rows"], entry["cols"])
    text = format_report(rep)
    lines = text.strip().split("\n")
    parsed = [tuple(line.split("=", 1)) for line in lines]
    assert all(len(p) == 2 for p in parsed)
    keys = [k for k, _ in parsed]
    assert keys.count("b") == keys.count("predicted") == keys.count("solvable") == 3
    block1 = dict(parsed[: len(parsed) // 3])
    assert block1["b"] == "1"
    assert block1["predicted"] == "16"
    assert block1["solvable"] == "false"
    assert block1["precondition"] == "true"


def test_eqs_b2_clamped_at_zero_outside_its_regime():
    # K m C(n,r+1) - C(m+1,2) C(n,r+2) = 60 - 220 at (m,n,K,r) = (10,4,1,1).
    assert eqs(ParameterSet(10, 4, 1, 1), 2) == (0, False)
    entry = complexity_report(ParameterSet(10, 4, 1, 1)).entries[1]
    assert (entry["predicted"], entry["precondition"]) == (0, False)


# Every (m, n, K, r) with m, n <= 8, K <= 11 and r <= n: 3,168 sets.
GRID = [ParameterSet(m, n, K, r) for m in range(1, 9) for n in range(1, 9)
        for K in range(1, 12) for r in range(1, n + 1)]


def test_eqs_and_solvable_match_the_per_degree_forms():
    assert len(GRID) == 3168
    for p in GRID:
        assert eqs(p, 1) == (ref_eqs_b1(p), True), p
        assert eqs(p, 2) == ref_eqs_b2(p), p
        assert [solvable(p, b) for b in (1, 2)] == [ref_solvable(p, b) for b in (1, 2)], p


def test_eqs_past_b2():
    # r = n - 1: rows of Mac_b less the submaximal syzygy dimension, proven at K >= m.
    p = ParameterSet(5, 3, 5, 2)
    assert [eqs(p, b) for b in (3, 4, 5)] == [(75, True), (170, True), (328, True)]
    assert [macaulay_dims(p, b)[0] - submax_dim_formula(5, 3, 5, b) for b in (3, 4, 5)] == [
        75, 170, 328]
    assert eqs(ParameterSet(4, 3, 3, 2), 4) == (40 - 1, False)  # 40 rows, 1 syzygy; K < m
    # r + 2 <= n: the alternating sum, not proven past b = 2.
    value, pre = eqs(ParameterSet(3, 4, 4, 2), 3)
    assert not pre
    assert value == comb(4, 3) * 3 * comb(5, 2) - comb(4, 4) * comb(4, 2) * 4
    assert macaulay_dims(p, 4)[1] == 210 and not solvable(p, 4)  # 170 < 209
    with pytest.raises(ValueError):
        eqs(p, 0)
