import argparse
import hashlib
import ast
from pathlib import Path

import numpy as np
import pytest

from supportminors import cli
from supportminors.cli import main
from supportminors.field import PrimeField
from supportminors.instance import MinRankInstance
from supportminors.serialization import load_instance, save_instance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(stdout):
    pairs = {}
    for line in stdout.strip().split("\n"):
        k, _, v = line.partition("=")
        pairs.setdefault(k, []).append(v)
    return {k: v[0] if len(v) == 1 else v for k, v in pairs.items()}


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.mr", tmp_path / "b.mr"
    args = ["gen", "--q", "7", "--m", "3", "--n", "3", "--K", "2", "--r", "1",
            "--seed", "11", "--machine"]
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_parse_gen_byte_identical(tmp_path, capsys):
    path = tmp_path / "inst.mr"
    code, out, _ = run(capsys, "gen", "--q", "32003", "--m", "4", "--n", "4", "--K", "3",
                       "--r", "2", "--seed", "5", "--out", str(path), "--machine")
    assert code == 0
    reloaded = load_instance(path)
    again = tmp_path / "again.mr"
    save_instance(again, reloaded)
    assert again.read_bytes() == path.read_bytes()


def test_gen_planted_solve_recovers_witness(tmp_path, capsys):
    path = tmp_path / "planted.mr"
    code, out, _ = run(capsys, "gen", "--q", "32003", "--m", "4", "--n", "4", "--K", "3",
                       "--r", "2", "--seed", "3", "--planted", "--out", str(path),
                       "--machine")
    assert code == 0
    assert kv(out)["witness_file"] == str(path) + ".witness"
    code, out, _ = run(capsys, "solve", "--in", str(path), "--b", "2", "--machine")
    assert code == 0
    pairs = kv(out)
    assert pairs["witness_recovered"] == "true"
    assert pairs["solutions"] == "1"
    assert pairs["verified_0"] == "true"
    assert pairs["method"] == "direct"


def test_solve_witness_miss_exits_3(tmp_path, capsys):
    # K = 8 makes the b=1 kernel far larger than the extraction cap, so the
    # solver reports an incomplete sweep and cannot exhibit the witness.
    path = tmp_path / "wide.mr"
    assert run(capsys, "gen", "--q", "32003", "--m", "4", "--n", "4", "--K", "8",
               "--r", "2", "--seed", "1", "--planted", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "solve", "--in", str(path), "--b", "1", "--machine")
    assert code == 3
    pairs = kv(out)
    assert pairs["witness_recovered"] == "false"
    assert pairs["complete"] == "false"


def test_random_gen_removes_stale_witness(tmp_path, capsys):
    # The sidecar of an earlier planted instance at the same path would
    # otherwise be checked against the new, unrelated instance.
    path = tmp_path / "inst.mr"
    args = ["gen", "--q", "7", "--m", "3", "--n", "3", "--K", "3", "--r", "1", "--out", str(path)]
    assert run(capsys, *args, "--planted", "--seed", "1")[0] == 0
    assert (tmp_path / "inst.mr.witness").exists()
    assert run(capsys, *args, "--seed", "2")[0] == 0
    assert not (tmp_path / "inst.mr.witness").exists()
    code, out, _ = run(capsys, "solve", "--in", str(path), "--b", "1", "--machine")
    assert code == 0
    assert "witness_recovered" not in kv(out)


def test_solve_unusable_witness_exits_1(tmp_path, capsys):
    # A witness for another q or K, or the zero vector, is an input error
    # reported before the solve, not a witness the solver failed to recover.
    path = tmp_path / "planted.mr"
    assert run(capsys, "gen", "--q", "31", "--m", "4", "--n", "4", "--K", "3",
               "--r", "2", "--seed", "3", "--planted", "--out", str(path))[0] == 0
    witness = path.with_name("planted.mr.witness")
    for text in ["minrank-witness v1\nq 7\nK 3\nx 0 1 2\n",
                 "minrank-witness v1\nq 31\nK 2\nx 0 1\n",
                 "minrank-witness v1\nq 31\nK 3\nx 0 0 0\n"]:
        witness.write_text(text)
        code, out, _ = run(capsys, "solve", "--in", str(path), "--b", "1", "--machine")
        assert code == 1 and out == ""


def test_solve_non_ascii_witness_exits_1(tmp_path, capsys):
    path = tmp_path / "planted.mr"
    assert run(capsys, "gen", "--q", "7", "--m", "3", "--n", "3", "--K", "2",
               "--r", "1", "--seed", "0", "--planted", "--out", str(path))[0] == 0
    path.with_name("planted.mr.witness").write_text(
        "minrank-witness v1\nq 7\nK 2\nx 1 \u0663\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", "--in", str(path))
    assert (code, out, err) == (1, "", "error: non-ASCII byte 0xd9 at offset 31\n")


def test_solve_no_witness_no_solutions_exit_0(tmp_path, capsys):
    path = tmp_path / "rand.mr"
    assert run(capsys, "gen", "--q", "32003", "--m", "3", "--n", "5", "--K", "4",
               "--r", "1", "--seed", "2", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "solve", "--in", str(path), "--b", "1", "--machine")
    assert code == 0
    assert kv(out)["solutions"] == "0"


def test_solve_fix_pluecker_flag(tmp_path, capsys):
    path = tmp_path / "p.mr"
    assert run(capsys, "gen", "--q", "31", "--m", "4", "--n", "4", "--K", "2",
               "--r", "2", "--seed", "6", "--planted", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "solve", "--in", str(path), "--b", "1",
                       "--fix-pluecker", "0,1", "--machine")
    assert code in (0, 3)  # depends on whether the fixed minor is invertible
    assert kv(out)["fixed_plucker"] == "0,1"


@pytest.mark.parametrize("value", ["a,b", "1,,2"])
def test_solve_fix_pluecker_not_integers_is_a_usage_error(tmp_path, capsys, value):
    path = tmp_path / "p.mr"
    assert run(capsys, "gen", "--q", "31", "--m", "4", "--n", "4", "--K", "2",
               "--r", "2", "--seed", "6", "--out", str(path))[0] == 0
    code, out, err = run(capsys, "solve", "--in", str(path), "--fix-pluecker", value)
    assert code == 1 and out == ""
    assert err == ("usage error: --fix-pluecker expects comma-separated column indices, "
                   f"got '{value}'\n")


def test_check_match_and_assert(tmp_path, capsys):
    args = ["check", "--q", "32003", "--m", "4", "--n", "4", "--K", "3", "--r", "2",
            "--seed", "4", "--b", "1", "--machine"]
    code, out, _ = run(capsys, *args)
    assert code == 0
    pairs = kv(out)
    assert pairs["observed"] == "16" and pairs["predicted"] == "16"
    assert pairs["match"] == "true"
    assert run(capsys, *args, "--assert")[0] == 0


def test_check_submax_keys(capsys):
    code, out, _ = run(capsys, "check", "--q", "32003", "--m", "5", "--n", "3",
                       "--K", "5", "--r", "2", "--seed", "0", "--b", "4", "--machine", "--assert")
    assert code == 0
    pairs = kv(out)
    assert (pairs["rows"], pairs["observed"], pairs["predicted"]) == ("175", "170", "170")
    assert pairs["precondition"] == pairs["match"] == "true"
    assert pairs["submax_observed"] == "5"
    assert pairs["submax_predicted"] == "5"
    assert pairs["submax_match"] == "true"


def test_check_mismatch_assert_exits_3(tmp_path, capsys):
    zero = MinRankInstance(
        PrimeField(7), 4, 4, 3, 2, tuple(np.zeros((4, 4), dtype=np.int64) for _ in range(3))
    )
    path = tmp_path / "zero.mr"
    save_instance(path, zero)
    code, out, _ = run(capsys, "check", "--in", str(path), "--b", "1", "--machine")
    assert code == 0  # report-only without --assert
    assert kv(out)["match"] == "false"
    code, _, _ = run(capsys, "check", "--in", str(path), "--b", "1", "--machine", "--assert")
    assert code == 3


def test_estimate_machine_grammar(capsys):
    code, out, _ = run(capsys, "estimate", "--m", "4", "--n", "4", "--K", "3", "--r", "2",
                       "--machine")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "command=estimate"
    assert "b=1" in lines and "b=2" in lines
    assert "predicted=16" in lines and "predicted=36" in lines
    assert "solvable=false" in lines and "solvable=true" in lines


def test_estimate_degenerate_r_equals_n(capsys):
    code, out, _ = run(capsys, "estimate", "--m", "3", "--n", "3", "--K", "2", "--r", "3",
                       "--machine")
    assert code == 0
    assert "predicted=0" in out.split()


def test_estimate_large_parameters_instant(capsys):
    code, out, _ = run(capsys, "estimate", "--m", "60", "--n", "60", "--K", "100",
                       "--r", "30", "--machine")
    assert code == 0
    assert "rows=" in out


def test_brute_command(tmp_path, capsys):
    path = tmp_path / "small.mr"
    assert run(capsys, "gen", "--q", "7", "--m", "4", "--n", "4", "--K", "3", "--r", "2",
               "--seed", "7", "--planted", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "brute", "--in", str(path), "--machine")
    assert code == 0
    assert int(kv(out)["solutions"]) >= 1


def test_brute_cap_exit_2(tmp_path, capsys):
    path = tmp_path / "big.mr"
    assert run(capsys, "gen", "--q", "31", "--m", "2", "--n", "2", "--K", "4", "--r", "1",
               "--seed", "0", "--out", str(path))[0] == 0
    code, _, err = run(capsys, "brute", "--in", str(path), "--cap-enum", "100")
    assert code == 2
    assert "refused" in err


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "gen", "--q", "7")[0] == 1                       # missing flags
    assert run(capsys, "nonsense")[0] == 1                              # bad command
    assert run(capsys, "solve", "--b", "1")[0] == 1                     # missing --in
    assert run(capsys, "gen", "--q", "6", "--m", "2", "--n", "2", "--K", "1",
               "--r", "1", "--out", "/tmp/x.mr")[0] == 1                # q not prime


@pytest.mark.parametrize("command, b", [(c, b) for c in ("check", "estimate") for b in ("0", "-1")]
                         + [("solve", b) for b in ("0", "-1", "3")])
def test_check_b_below_1_is_a_usage_error(capsys, command, b):
    # solve rejects its degree before it reads --in, here a missing file.
    params = (["--in", "/nonexistent.mr"] if command == "solve"
              else ["--m", "3", "--n", "3", "--K", "4", "--r", "2"])
    code, out, err = run(capsys, command, *params, "--b", b, "--machine")
    assert (code, out) == (1, "")
    want = "be 1 or 2" if command == "solve" else "be at least 1"
    assert err == f"usage error: --b must {want}, got {b}\n"


def test_missing_flags_named_as_typed(capsys):
    code, out, err = run(capsys, "gen", "--q", "7")
    assert code == 1 and out == ""
    assert err == "usage error: missing required flag(s): --m, --n, --K, --r, --out\n"
    code, _, err = run(capsys, "gen", "--m", "2", "--n", "2", "--K", "1", "--r", "1")
    assert code == 1 and err == "usage error: missing required flag(s): --out\n"


def test_non_ascii_input_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "inst.mr"
    path.write_text("minrank v1\nq 7\nm 1 n 1 K 1 r 1\nmatrix 1\n\u0663\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", "--in", str(path))
    assert code == 1 and out == ""
    assert err == "error: non-ASCII byte 0xd9 at offset 40\n"


def test_matrix_cap_exit_2(tmp_path, capsys):
    path = tmp_path / "inst.mr"
    assert run(capsys, "gen", "--q", "7", "--m", "4", "--n", "6", "--K", "4", "--r", "2",
               "--seed", "0", "--out", str(path))[0] == 0
    code, _, err = run(capsys, "solve", "--in", str(path), "--b", "2",
                       "--cap-matrix", "10")
    assert code == 2
    assert "refused" in err


@pytest.mark.parametrize("gen, refusals, ok_cap, dims", [
    # The b = 2 matrix is 320 x 150 = 48000 cells; the cap applies to that
    # count although the matrix itself is never assembled.
    (("7", "4", "6", "4", "2"), [("47999", "320 x 150 = 48000")], "48000", ("320", "150")),
    # An underdetermined b = 1 system (kernel dimension 9 of 12 columns):
    # the lift's matrix would be 18 x 36 = 648 cells, more than the 12 x 30
    # b = 2 matrix, so that matrix is assembled and the cap applies to it alone.
    (("32003", "1", "3", "4", "1"), [("359", "12 x 30 = 360")], "360", ("12", "30")),
])
def test_matrix_cap_counts_b2_cells(tmp_path, capsys, gen, refusals, ok_cap, dims):
    path = tmp_path / "inst.mr"
    q, m, n, K, r = gen
    assert run(capsys, "gen", "--q", q, "--m", m, "--n", n, "--K", K, "--r", r,
               "--seed", "0", "--out", str(path))[0] == 0
    for command in ("solve", "check"):
        for cap, cells in refusals:
            code, _, err = run(capsys, command, "--in", str(path), "--b", "2",
                               "--cap-matrix", cap)
            assert (code, err) == (2, f"refused: matrix of {cells} cells exceeds cap {cap}\n")
        code, out, err = run(capsys, command, "--in", str(path), "--b", "2",
                             "--cap-matrix", ok_cap, "--machine")
        assert (code, err, kv(out)["rows"], kv(out)["cols"]) == (0, "") + dims


def test_check_refuses_mac2_before_any_output(capsys):
    # With r + 2 <= n, check at b = 1 also ranks Mac_2 (320 x 150 = 48000
    # cells) for the linear syzygies; a cap between Mac_1's cells and Mac_2's
    # refuses before the first line.
    args = ["check", "--q", "7", "--m", "4", "--n", "6", "--K", "4", "--r", "2", "--b", "1",
            "--cap-matrix", "10000"]
    err = "refused: matrix of 320 x 150 = 48000 cells exceeds cap 10000\n"
    for mode in (["--machine"], []):
        assert run(capsys, *args, *mode) == (2, "", err)


def test_check_b2_reads_syzygy_dim_off_its_rank(capsys, monkeypatch):
    # At b = 2 the linear-syzygy dimension (r + 2 <= n), and at every b >= 2
    # the submaximal one (r = n - 1), are rows - rank of the matrix that
    # rank_check has already ranked, so each run may eliminate only once.
    from supportminors import modeling, syzygies
    from supportminors.instance import gen_random
    from supportminors.syzygies import xonly_syzygy_dim

    calls = []
    for module in (modeling, syzygies):
        def counted(*a, _rank=module.matrix_rank, **k):
            calls.append(a)
            return _rank(*a, **k)
        monkeypatch.setattr(module, "matrix_rank", counted)

    for (m, n, K, r), seed, b, key, value in [
            ((4, 4, 8, 2), 3, 2, "syzdim_d1_observed", "10"),
            ((5, 3, 5, 2), 0, 2, "submax_observed", "0"),
            ((5, 3, 5, 2), 0, 3, "submax_observed", "0"),
            ((5, 3, 5, 2), 0, 4, "submax_observed", "5")]:
        args = ["check", "--q", "32003", "--m", str(m), "--n", str(n), "--K", str(K),
                "--r", str(r), "--seed", str(seed), "--b", str(b)]
        calls.clear()
        outs = [run(capsys, *args, *flag) for flag in ((), ("--machine",))]
        assert len(calls) == 2  # one rank per run
        inst = gen_random(PrimeField(32003), m, n, K, seed, r=r)
        dim = xonly_syzygy_dim(inst, 1 if key == "syzdim_d1_observed" else b - 1)
        assert kv(outs[1][1])[key] == str(dim) == value
        assert outs[0][0] == outs[1][0] == 0


def test_parser_built_once_gives_same_results(tmp_path, capsys, monkeypatch):
    """A run of `main` calls on the parser built once per process prints and
    returns what it does when each call builds its own parser."""
    path = tmp_path / "p.mr"
    calls = [["solve", "--b", "1"],
             ["gen", "--planted", "--q", "7", "--m", "3", "--n", "3", "--K", "3", "--r", "1",
              "--seed", "1", "--out", str(path), "--machine"],
             ["solve", "--in", str(path), "--b", "1", "--machine"],
             ["nonsense"],
             ["--help"],
             ["solve", "--in", str(path), "--b", "1"]]

    def outcomes():
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as e:  # --help
                code = ("exit", e.code)
            out = capsys.readouterr()
            results.append((code, out.out, out.err))
        return results

    main(["nonsense"])  # the parser exists before the run
    capsys.readouterr()
    once = outcomes()
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert outcomes() == once
    assert [r[0] for r in once] == [1, 0, 0, 1, ("exit", 0), 0]
    assert once[0][2] == "usage error: missing required flag(s): --in\n"
    assert once[4][1].startswith("usage: supportminors")


# Each command's flags before the flag table, 47 settable values; 12 of them
# were accepted and never read.
OLD_FLAGS = {
    "gen": {"--machine", "--assert", "--cap-enum", "--cap-matrix", "--q", "--m", "--n", "--K",
            "--r", "--seed", "--out", "--planted"},
    "solve": {"--machine", "--assert", "--cap-enum", "--cap-matrix", "--in", "--b",
              "--fix-pluecker"},
    "check": {"--machine", "--assert", "--cap-enum", "--cap-matrix", "--q", "--m", "--n", "--K",
              "--r", "--seed", "--in", "--b"},
    "estimate": {"--machine", "--assert", "--cap-enum", "--cap-matrix", "--q", "--m", "--n",
                 "--K", "--r", "--seed", "--b"},
    "brute": {"--machine", "--assert", "--cap-enum", "--cap-matrix", "--in"},
}
FLAGS = {
    "gen": {"--q", "--m", "--n", "--K", "--r", "--seed", "--planted", "--out", "--machine"},
    "solve": {"--in", "--b", "--fix-pluecker", "--machine", "--cap-enum", "--cap-matrix"},
    "check": {"--q", "--m", "--n", "--K", "--r", "--seed", "--in", "--b", "--machine",
              "--assert", "--cap-matrix"},
    "estimate": {"--m", "--n", "--K", "--r", "--b", "--machine"},
    "brute": {"--in", "--machine", "--cap-enum"},
}
DROPPED = sorted((c, f) for c in OLD_FLAGS for f in OLD_FLAGS[c] - FLAGS[c])


def _subparsers():
    (sub,) = [a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _args_read(funcs, name):
    """The attributes of `args` that function `name` of cli.py reads: its own
    `args.x`, and those of each cli.py function it passes `args` to, where a
    string passed along with `args` (as to `_require`) names one too."""
    read = set()
    for node in ast.walk(funcs[name]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in funcs
              and any(getattr(a, "id", None) == "args" for a in node.args)):
            read |= _args_read(funcs, node.func.id)
            read |= {a.value for a in node.args if isinstance(a, ast.Constant)}
    return read


def test_each_command_takes_only_the_flags_it_reads():
    parsers = _subparsers()
    flags = {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
             for name, sp in parsers.items()}
    assert flags == FLAGS == {name: set(f) for name, (_, _, f) in cli._COMMANDS.items()}
    assert all(FLAGS[c] <= OLD_FLAGS[c] for c in OLD_FLAGS)  # no flag added
    assert sum(map(len, OLD_FLAGS.values())) == 47
    assert sum(map(len, FLAGS.values())) == 35 and len(DROPPED) == 12

    tree = ast.parse(Path(cli.__file__).read_text())
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for name, (func, _, _) in cli._COMMANDS.items():
        dests = {a.dest for a in parsers[name]._actions} - {"help"}
        assert _args_read(funcs, func.__name__) == dests, name


@pytest.mark.parametrize("command, flag", DROPPED)
def test_dropped_flags_are_usage_errors(capsys, command, flag):
    value = [] if flag == "--assert" else ["1"]
    code, out, err = run(capsys, command, flag, *value)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: unrecognized arguments:")


# (m, n, K, r) for the estimate / check golden digest: both b = 2 regimes,
# a clamped count, r = n and r = n - 1 with K below and above m.
GOLDEN_PARAMS = [
    (4, 4, 3, 2), (4, 4, 2, 2), (2, 3, 2, 1), (3, 3, 2, 3), (2, 2, 2, 2), (3, 4, 2, 3),
    (4, 3, 3, 2), (5, 3, 5, 2), (6, 3, 6, 2), (2, 2, 3, 1), (3, 4, 4, 2), (4, 5, 5, 2),
    (3, 6, 6, 2), (2, 5, 6, 2), (3, 3, 4, 1), (2, 4, 5, 1), (10, 4, 1, 1), (4, 4, 8, 2),
    (1, 3, 4, 1), (3, 5, 4, 1),
]
# sha256 over (exit code, stdout, stderr) of `estimate` and `check --machine`
# at b = 1 and 2 on every GOLDEN_PARAMS set (check at q = 32003, seed 1),
# frozen while the counts were still one closed form per degree, and
# re-frozen when `check` at r = n stopped printing its header before failing.
ESTIMATE_CHECK_DIGEST = "8a4624bb8322aa4a135c87827fe6ce7d6ebf7218a312442cf375a77ac2e99b1a"


def test_estimate_check_golden_digest(capsys):
    h = hashlib.sha256()
    for m, n, K, r in GOLDEN_PARAMS:
        params = ["--m", str(m), "--n", str(n), "--K", str(K), "--r", str(r)]
        for b in ("1", "2"):
            for command in (["estimate"], ["check", "--q", "32003", "--seed", "1"]):
                h.update(repr(run(capsys, *command, *params, "--b", b, "--machine")).encode())
    assert h.hexdigest() == ESTIMATE_CHECK_DIGEST


@pytest.mark.parametrize("m,n,K,r", [p for p in GOLDEN_PARAMS if p[3] == p[1]])
@pytest.mark.parametrize("b", ["1", "2"])
def test_check_at_r_equal_n_fails_before_any_output(capsys, m, n, K, r, b):
    params = ["--m", str(m), "--n", str(n), "--K", str(K), "--r", str(r), "--b", b]
    error = f"error: r={r} must be below n={n}: no (r+1)-column subsets exist\n"
    for mode in (["--machine"], []):
        assert run(capsys, "check", "--q", "32003", "--seed", "1", *params, *mode) == (1, "", error)
    code, out, _ = run(capsys, "estimate", *params, "--machine")
    assert code == 0 and set(kv(out)["predicted"]) == {"0"}  # its b = 1 and b = 2 blocks
