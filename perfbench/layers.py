"""Which `supportminors` functions the traced pass wraps, and the per-layer
metrics derived from their spans.

Layers are named after the package's modules.  `combinatorics` and `field`
stay unwrapped: they are called once per term from inside `modeling`,
`syzygies` and `solver`, so a wrapper would cost more than the call, and
their time counts toward the caller's self time.  No layer queues work, so
there is no waiting time to report.
"""

from __future__ import annotations

from collections import defaultdict

from supportminors import estimator


def _shape(M) -> tuple[int, int]:
    if hasattr(M, "shape"):
        return int(M.shape[0]), int(M.shape[1])
    return M.rows, M.cols


def _elim(args, result):
    rank = result[0] if isinstance(result, tuple) else result
    return (*_shape(args[1]), int(rank))


def _matrix_shape(args, result):
    return _shape(args[1])


def _densify(args, result):
    return result.shape[0], result.shape[1], result.nbytes


def _solve(args, result):
    diag = result[1]
    return diag.kernel_dim, diag.method, diag.complete


def _macaulay(args, result):
    inst, b = args[0], args[1]
    p = estimator.ParameterSet(inst.m, inst.n, inst.K, inst.r)
    return result.n_rows, result.n_cols, result.data.nnz, estimator.cost_estimate(p, b)["dense"]


def _arg_len(args, result):
    return (len(args[0]),)


def _result_len(args, result):
    return (len(result),)


# (span name, module, attribute, work extractor)
TARGETS = (
    ("linalg.rref", "linalg", "rref", _elim),
    ("linalg.rank", "linalg", "rank", _elim),
    ("linalg.kernel", "linalg", "right_kernel_basis", _matrix_shape),
    ("linalg.densify", "linalg", "SparseMatrix.to_dense", _densify),
    ("instance.pencil", "instance", "evaluate_pencil", None),
    ("instance.verify", "instance", "verify_solution", None),
    ("instance.gen", "instance", "gen_planted", None),
    ("instance.gen", "instance", "gen_random", None),
    ("solver.solve", "solver", "solve_linearization", _solve),
    ("modeling.equations", "modeling", "build_equations", None),
    ("modeling.macaulay", "modeling", "macaulay", _macaulay),
    ("modeling.rank_check", "modeling", "rank_check", None),
    ("syzygies.enumerate", "syzygies", "enumerate_sprime", None),
    ("syzygies.specialize", "syzygies", "specialize", None),
    ("syzygies.annihilation", "syzygies", "check_annihilation", None),
    ("syzygies.dim", "syzygies", "xonly_syzygy_dim", None),
    ("prng.block", "prng", "chacha20_block", None),
    ("serialization.write", "serialization", "write_instance", _result_len),
    ("serialization.parse", "serialization", "parse_instance", _arg_len),
    ("cli.main", "cli", "main", None),
)

# Bindings made by `from ... import` that the identity scan must reach, so
# that a renamed import cannot silently drop calls from the trace.
EXPECTED = (
    ("solver", "matrix_rank"), ("solver", "rref"), ("solver", "right_kernel_basis"),
    ("solver", "macaulay"), ("modeling", "matrix_rank"), ("syzygies", "matrix_rank"),
    ("syzygies", "macaulay"), ("instance", "rank"),
)

def metrics(tracer, n_ops: int, gemm_gmacs: float, overhead: float) -> tuple[dict, list]:
    """Per-layer metrics as {name: (value, unit)}, plus the calibration table.

    Counts and times are per operation of the traced pass (including the
    generation of that operation's instance); rates and ratios are over
    the whole pass.  Elimination work is computed as rows * cols * rank
    multiply-adds per rref or rank call, and the roofline fraction divides
    its rate by the float64 gemm rate (n^3 multiply-adds per product)
    measured in the same run.
    """
    own = tracer.self_times()
    names = {s[0]: s[2] for s in tracer.spans}
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    work: dict[str, list] = defaultdict(list)
    for s in tracer.spans:
        calls[s[2]] += 1
        busy[s[2]] += own[s[0]]
        if s[6] is not None:
            work[s[2]].append(s[6])

    m: dict[str, tuple[float, str]] = {}

    def per_op(name, total, unit):
        m[name] = (total / n_ops if n_ops else 0.0, unit)

    def rate(name, num, den, unit):
        m[name] = (num / den if den else 0.0, unit)

    for layer in ("linalg.rref", "linalg.rank"):
        per_op(f"{layer}.calls", calls[layer], "count/op")
        per_op(f"{layer}.self_s", busy[layer], "s/op")
        per_op(f"{layer}.cells", sum(r * c for r, c, _ in work[layer]), "count/op")
    per_op("linalg.kernel.self_s", busy["linalg.kernel"], "s/op")
    per_op("linalg.densify.self_s", busy["linalg.densify"], "s/op")
    per_op("linalg.densify.bytes", sum(w[2] for w in work["linalg.densify"]), "B/op")
    elim_ops = sum(r * c * k for layer in ("linalg.rref", "linalg.rank") for r, c, k in work[layer])
    per_op("linalg.elim_ops", elim_ops, "mac/op")
    rate("linalg.elim_gops_per_s", elim_ops / 1e9, busy["linalg.rref"] + busy["linalg.rank"], "Gmac/s")
    rate("linalg.roofline_frac", m["linalg.elim_gops_per_s"][0], gemm_gmacs, "ratio")

    for short in ("pencil", "verify"):
        per_op(f"instance.{short}.calls", calls[f"instance.{short}"], "count/op")
        per_op(f"instance.{short}.self_s", busy[f"instance.{short}"], "s/op")
    per_op("instance.gen.self_s", busy["instance.gen"], "s/op")

    solves = work["solver.solve"]
    per_op("solver.solve.calls", calls["solver.solve"], "count/op")
    per_op("solver.self_s", busy["solver.solve"], "s/op")
    per_op("solver.kernel_dim", sum(w[0] for w in solves), "count/op")
    per_op("solver.method.direct", sum(w[1] == "direct" for w in solves), "count/op")
    per_op("solver.incomplete", sum(not w[2] for w in solves), "count/op")

    macs = work["modeling.macaulay"]
    per_op("modeling.equations.self_s", busy["modeling.equations"], "s/op")
    per_op("modeling.macaulay.calls", calls["modeling.macaulay"], "count/op")
    per_op("modeling.macaulay.self_s", busy["modeling.macaulay"], "s/op")
    per_op("modeling.macaulay.cells", sum(w[0] * w[1] for w in macs), "count/op")
    per_op("modeling.macaulay.nnz", sum(w[2] for w in macs), "count/op")
    per_op("modeling.rank_check.self_s", busy["modeling.rank_check"], "s/op")

    per_op("syzygies.enumerate.self_s", busy["syzygies.enumerate"], "s/op")
    for short in ("specialize", "annihilation"):
        per_op(f"syzygies.{short}.calls", calls[f"syzygies.{short}"], "count/op")
        per_op(f"syzygies.{short}.self_s", busy[f"syzygies.{short}"], "s/op")
    per_op("syzygies.dim.self_s", busy["syzygies.dim"], "s/op")

    per_op("prng.blocks", calls["prng.block"], "count/op")
    per_op("prng.self_s", busy["prng.block"], "s/op")
    rate("prng.words_per_s", 16 * calls["prng.block"], busy["prng.block"], "word/s")

    for short in ("write", "parse"):
        per_op(f"serialization.{short}.bytes", sum(w[0] for w in work[f"serialization.{short}"]), "B/op")
        per_op(f"serialization.{short}.self_s", busy[f"serialization.{short}"], "s/op")
    per_op("cli.main.calls", calls["cli.main"], "count/op")
    per_op("cli.main.self_s", busy["cli.main"], "s/op")

    # Calibration: time of the outermost linalg spans on a matrix of a
    # Macaulay shape, against the estimator's cost_dense for that shape.
    shapes: dict[tuple[int, int], dict] = {}
    for rows, cols, _, cost in macs:
        entry = shapes.setdefault((rows, cols), {"builds": 0, "cost_dense": cost, "linalg_s": 0.0})
        entry["builds"] += 1
    for s in tracer.spans:
        outermost = s[2].startswith("linalg.") and not names.get(s[1], "").startswith("linalg.")
        if outermost and s[6] is not None and s[6][:2] in shapes:
            shapes[s[6][:2]]["linalg_s"] += s[4] - s[3]
    cost_total = sum(e["cost_dense"] * e["builds"] for e in shapes.values())
    per_op("estimator.cost_dense", cost_total, "mac/op")
    rate("estimator.model_s_per_gop", sum(e["linalg_s"] for e in shapes.values()),
         cost_total / 1e9, "s/Gmac")
    m["trace_overhead_ratio"] = (overhead, "ratio")
    calibration = [
        {"shape": f"{r}x{c}", "builds": e["builds"], "cost_dense": e["cost_dense"],
         "linalg_s_per_build": e["linalg_s"] / e["builds"],
         "s_per_gmac": e["linalg_s"] / (e["cost_dense"] * e["builds"] / 1e9) if e["cost_dense"] else None}
        for (r, c), e in sorted(shapes.items())
    ]
    return m, calibration
