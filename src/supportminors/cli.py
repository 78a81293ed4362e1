"""Command-line front end.

Commands: gen, solve, check, estimate, brute.  Every command is
deterministic given its flags and seed.  Machine mode (--machine) emits
line-oriented `key=value` pairs with stable keys; booleans are true/false
and vectors are comma-separated integers.

Exit codes: 0 success; 1 usage or input error, such as a witness file whose
q or K differs from the instance's; 2 computation refused by a cap; 3
verification mismatch where assertion was requested (--assert, or a witness
file that the solver failed to recover).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import CapExceededError
from .estimator import ParameterSet, complexity_report, format_report, submax_dim_formula
from .field import PrimeField
from .instance import (
    BRUTE_FORCE_CAP,
    brute_force_solve,
    gen_planted,
    gen_random,
    normalize_projective,
)
from .modeling import MATRIX_CELL_CAP, rank_check
from .serialization import (
    FormatError,
    load_instance,
    parse_witness,
    read_ascii,
    save_instance,
    witness_path,
    write_witness,
)
from .solver import solve_linearization
from .syzygies import linear_syzygy_dim_prediction, xonly_syzygy_dim


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


class _Out:
    """Uniform printer: key=value in machine mode, prose otherwise."""

    def __init__(self, machine: bool):
        self.machine = machine

    def kv(self, key, value, human=None):
        if self.machine:
            print(f"{key}={_fmt(value)}")
        else:
            print(human if human is not None else f"{key} = {_fmt(value)}")

    def data(self, key, value):
        """Machine-mode only; human mode gets its own summary lines."""
        if self.machine:
            print(f"{key}={_fmt(value)}")

    def say(self, text):
        if not self.machine:
            print(text)


# Each flag's argparse arguments; `_COMMANDS` lists the ones each command reads.
_FLAGS = {
    "--q": dict(type=int, default=32003),
    "--m": dict(type=int),
    "--n": dict(type=int),
    "--K": dict(type=int),
    "--r": dict(type=int),
    "--seed": dict(type=int, default=0),
    "--b": dict(type=int, default=1, help="x-degree of the Macaulay matrix"),
    "--planted": dict(action="store_true", help="plant a witness; writes <out>.witness"),
    "--fix-pluecker": dict(metavar="T",
                           help="comma-separated r-subset of columns normalized to 1"),
    "--in": dict(dest="infile", metavar="FILE"),
    "--out": dict(dest="outfile", metavar="FILE"),
    "--machine": dict(action="store_true", help="key=value output"),
    "--assert": dict(dest="assert_", action="store_true",
                     help="exit 3 on any observed/predicted mismatch"),
    "--cap-enum": dict(type=int, default=BRUTE_FORCE_CAP, metavar="N"),
    "--cap-matrix": dict(type=int, default=MATRIX_CELL_CAP, metavar="N"),
}
_PARAMS = ("--q", "--m", "--n", "--K", "--r", "--seed")


def _require(args, *names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = [{"outfile": "--out"}.get(n, f"--{n}") for n in missing]
        raise UsageError("missing required flag(s): " + ", ".join(flags))


def cmd_gen(args) -> int:
    _require(args, "m", "n", "K", "r", "outfile")
    field = PrimeField(args.q)
    out = _Out(args.machine)
    if args.planted:
        inst, witness = gen_planted(field, args.m, args.n, args.K, args.r, args.seed)
        witness_path(args.outfile).write_bytes(
            write_witness(args.q, witness).encode("ascii")
        )
    else:
        inst = gen_random(field, args.m, args.n, args.K, args.seed, r=args.r)
        witness = None
        # A sidecar left by an earlier planted run would describe another instance.
        witness_path(args.outfile).unlink(missing_ok=True)
    save_instance(args.outfile, inst)
    out.data("command", "gen")
    for key in ("q", "m", "n", "K", "r", "seed"):
        out.data(key, getattr(args, key))
    out.data("planted", args.planted)
    out.data("out", args.outfile)
    out.say(f"wrote {args.outfile} (q={args.q} m={args.m} n={args.n} "
            f"K={args.K} r={args.r} seed={args.seed})")
    if witness is not None:
        out.kv("witness_file", str(witness_path(args.outfile)),
               human=f"witness written to {witness_path(args.outfile)}")
    return 0


def _load(args):
    if not args.infile:
        raise UsageError("missing required flag(s): --in")
    return load_instance(args.infile)


def _print_solutions(out, sols, human=None, verified=False):
    out.kv("solutions", len(sols), human=human)
    for i, sol in enumerate(sols):
        out.kv(f"solution_{i}", sol.x, human=f"  x = {sol.x} rank = {sol.achieved_rank}")
        out.data(f"rank_{i}", sol.achieved_rank)
        if verified:
            out.data(f"verified_{i}", True)


def cmd_solve(args) -> int:
    if args.b not in (1, 2):
        raise UsageError(f"--b must be 1 or 2, got {args.b}")
    inst = _load(args)
    out = _Out(args.machine)
    fix = None
    if args.fix_pluecker is not None:
        try:
            fix = tuple(int(v) for v in args.fix_pluecker.split(","))
        except ValueError:
            raise UsageError("--fix-pluecker expects comma-separated column indices, "
                             f"got {args.fix_pluecker!r}") from None
    wpath = witness_path(args.infile)
    wx = None
    if wpath.exists():
        wq, wx = parse_witness(read_ascii(wpath))
        if (wq, len(wx)) != (inst.field.q, inst.K):
            raise FormatError(f"witness {wpath} is for q={wq} K={len(wx)}, but the "
                              f"instance has q={inst.field.q} K={inst.K}")
        wx = normalize_projective(inst.field, wx)  # the zero vector raises here
    sols, diag = solve_linearization(
        inst, args.b, brute_cap=args.cap_enum, matrix_cap=args.cap_matrix,
        fix_pluecker=fix,
    )
    out.data("command", "solve")
    out.data("b", args.b)
    for key in ("rows", "cols", "rank", "kernel_dim", "method", "complete"):
        out.data(key, getattr(diag, key))
    out.say(f"solve b={args.b}: macaulay {diag.rows}x{diag.cols} rank={diag.rank} "
            f"kernel_dim={diag.kernel_dim} method={diag.method}"
            f"{'' if diag.complete else ' (incomplete sweep)'}")
    if fix is not None:
        out.kv("fixed_plucker", fix, human=f"fixed Plucker coordinate: {fix}")
    _print_solutions(out, sols, verified=True,
                     human=f"{len(sols)} verified solution(s)" if sols
                     else f"no solution extracted at b={args.b}")
    if wx is not None:
        recovered = wx in {s.x for s in sols}
        out.kv("witness_recovered", recovered,
               human=f"witness: {'recovered' if recovered else 'NOT recovered'}")
        if not recovered:
            return 3
    return 0


def _instance_for_check(args):
    if args.infile:
        return load_instance(args.infile)
    _require(args, "m", "n", "K", "r")
    field = PrimeField(args.q)
    return gen_random(field, args.m, args.n, args.K, args.seed, r=args.r)


def _require_degree(args):
    if args.b < 1:
        raise UsageError(f"--b must be at least 1, got {args.b}")


def cmd_check(args) -> int:
    _require_degree(args)
    inst = _instance_for_check(args)
    rep = rank_check(inst, args.b, cap=args.cap_matrix)  # fails (r = n, cap) before any output
    left_kernel = rep.rows - rep.observed_rank  # the syzygies of x-degree b - 1
    if inst.r + 2 <= inst.n:  # Mac_2's cap, too, refuses before any output
        dim = left_kernel if args.b == 2 else xonly_syzygy_dim(inst, 1, cap=args.cap_matrix)
    out = _Out(args.machine)
    out.data("command", "check")
    out.say(f"check m={inst.m} n={inst.n} K={inst.K} r={inst.r} q={inst.field.q}")
    for key, value in [("b", rep.b), ("rows", rep.rows), ("cols", rep.cols),
                       ("observed", rep.observed_rank), ("predicted", rep.predicted),
                       ("precondition", rep.precondition_met)]:
        out.data(key, value)
    out.kv("match", rep.match,
           human=f"rank b={rep.b}: observed {rep.observed_rank} / predicted "
                 f"{rep.predicted} -> {'MATCH' if rep.match else 'MISMATCH'}")
    mismatch = rep.precondition_met and not rep.match

    if inst.r + 2 <= inst.n:
        out.data("syzdim_d1_observed", dim)
        if inst.K >= inst.m * (inst.n - inst.r):
            pred = linear_syzygy_dim_prediction(inst.m, inst.n, inst.r)
            out.data("syzdim_d1_predicted", pred)
            out.kv("syzdim_d1_match", dim == pred,
                   human=f"linear syzygies: observed {dim} / predicted {pred} -> "
                         f"{'MATCH' if dim == pred else 'MISMATCH'}")
            if dim != pred:
                mismatch = True
        else:
            out.say(f"linear syzygies: observed {dim} (no prediction: K below m(n-r))")

    if inst.r == inst.n - 1 and args.b >= 2:
        formula = submax_dim_formula(inst.m, inst.n, inst.K, args.b)
        out.data("submax_b", args.b)
        out.data("submax_observed", left_kernel)
        out.data("submax_predicted", formula)
        out.kv("submax_match", left_kernel == formula,
               human=f"submaximal b={args.b}: observed {left_kernel} / formula {formula} -> "
                     f"{'MATCH' if left_kernel == formula else 'MISMATCH'}")
        if inst.K >= inst.m and left_kernel != formula:
            mismatch = True

    if mismatch and args.assert_:
        return 3
    return 0


def cmd_estimate(args) -> int:
    _require_degree(args)
    _require(args, "m", "n", "K", "r")
    p = ParameterSet(args.m, args.n, args.K, args.r)
    out = _Out(args.machine)
    out.say(f"estimate m={p.m} n={p.n} K={p.K} r={p.r}")
    out.data("command", "estimate")
    sys.stdout.write(format_report(complexity_report(p, extra_b=(args.b,))))
    return 0


def cmd_brute(args) -> int:
    inst = _load(args)
    out = _Out(args.machine)
    sols = brute_force_solve(inst, cap=args.cap_enum)
    out.data("command", "brute")
    out.say(f"brute force on {args.infile}")
    _print_solutions(out, sols)
    return 0


_COMMANDS = {
    "gen": (cmd_gen, "generate an instance file",
            _PARAMS + ("--planted", "--out", "--machine")),
    "solve": (cmd_solve, "linearization solve of an instance file",
              ("--in", "--b", "--fix-pluecker", "--machine", "--cap-enum", "--cap-matrix")),
    "check": (cmd_check, "observed vs predicted ranks and syzygy dims",
              _PARAMS + ("--in", "--b", "--machine", "--assert", "--cap-matrix")),
    "estimate": (cmd_estimate, "closed-form counting and cost report",
                 ("--m", "--n", "--K", "--r", "--b", "--machine")),
    "brute": (cmd_brute, "exhaustive solution scan of an instance file",
              ("--in", "--machine", "--cap-enum")),
}


@functools.cache  # built on the first `main` call, not at import, then reused
def _build_parser() -> _Parser:
    p = _Parser(prog="supportminors", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, summary, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for flag in flags:
            sp.add_argument(flag, **_FLAGS[flag])
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except CapExceededError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except (FormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
