from math import comb

import pytest

from supportminors.estimator import (
    ComplexityReport,
    ParameterSet,
    complexity_report,
    cost_estimate,
    eqs_b1,
    eqs_b2,
    format_report,
    macaulay_dims,
    solvable,
    sprime_count,
)


def test_eqs_b1_examples():
    assert eqs_b1(ParameterSet(4, 4, 3, 2)) == 16  # min(16, 18)
    assert eqs_b1(ParameterSet(2, 3, 2, 1)) == 6   # min(6, 6)
    assert eqs_b1(ParameterSet(3, 3, 2, 3)) == 0   # r = n


def test_eqs_b2_examples():
    value, pre = eqs_b2(ParameterSet(4, 4, 3, 2))
    assert (value, pre) == (36, True)  # min(48 - 10, 36)
    value, pre = eqs_b2(ParameterSet(4, 4, 2, 2))
    assert not pre  # 16 <= 12 fails
    assert value == min(2 * 16 - 10, comb(3, 2) * 6) == 18
    value, _ = eqs_b2(ParameterSet(3, 4, 2, 3))
    assert value == min(2 * 3 * comb(4, 4) - 0, comb(3, 2) * comb(4, 3))  # r+2 > n


def test_solvable_examples():
    p = ParameterSet(4, 4, 3, 2)
    assert not solvable(p, 1)  # 16 < 17
    assert solvable(p, 2)      # 38 >= 35
    assert solvable(ParameterSet(4, 4, 2, 2), 1)  # 16 >= 11
    assert solvable(ParameterSet(1, 3, 1, 1), 1)  # 3 >= 2
    with pytest.raises(ValueError):
        solvable(p, 3)


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
    assert isinstance(eqs_b1(p), int)
    value, _ = eqs_b2(p)
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
        value, _ = eqs_b2(p)
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
        if "predicted" in entry:
            assert entry["predicted"] <= min(entry["rows"], entry["cols"])
    text = format_report(rep)
    lines = text.strip().split("\n")
    parsed = [tuple(line.split("=", 1)) for line in lines]
    assert all(len(p) == 2 for p in parsed)
    keys = [k for k, _ in parsed]
    assert keys.count("b") == 3
    block1 = dict(parsed[: len(parsed) // 3])
    assert block1["b"] == "1"
    assert block1["predicted"] == "16"
    assert block1["solvable"] == "false"
    assert block1["precondition"] == "true"


def test_eqs_b2_clamped_at_zero_outside_its_regime():
    # K m C(n,r+1) - C(m+1,2) C(n,r+2) = 60 - 220 at (m,n,K,r) = (10,4,1,1).
    assert eqs_b2(ParameterSet(10, 4, 1, 1)) == (0, False)
    entry = complexity_report(ParameterSet(10, 4, 1, 1)).entries[1]
    assert (entry["predicted"], entry["precondition"]) == (0, False)
