"""Benchmark of the `supportminors` package: one workload per run.

    python3 perfbench/run.py --workload solve-b2 --seed 1 --seconds 22 --trace 0

Load comes from this one process in a closed loop: one operation at a
time, the next starting when the previous returns, each on its own
instance derived from --seed.  Every output is checked outside the timed
operation.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced and half with the span tracer installed, over the same instances,
and reports the per-layer metrics of the traced half plus the tracing
overhead.  The last stdout line is the JSON result; the full report, and
the spans of a traced run, go to .perfbench_out/ in the root of the
checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
GEMM_N = 1024


def pin_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(min(max(current, 1), nproc))
    return {var: os.environ[var] for var in THREAD_VARS}


def gemm_seconds(n: int = GEMM_N) -> float:
    """Median time of an n x n float64 matrix product (after one warm-up)."""
    import numpy as np

    rng = np.random.default_rng(0)
    A, B = rng.random((n, n)), rng.random((n, n))
    A @ B
    times = []
    for _ in range(5):
        t = perf_counter()
        A @ B
        times.append(perf_counter() - t)
    return statistics.median(times)


def machine_record(threads: dict) -> dict:
    """nproc, versions, BLAS build and thread settings, and the gemm probe:
    one thread in a fresh process, and the pinned count in this one."""
    import numpy as np

    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    code = f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); " \
           "import run; print(run.gemm_seconds())"
    one = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    gmacs = GEMM_N**3 / 1e9
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": threads,
        "gemm": {"n": GEMM_N, "gmacs_1_thread": gmacs / float(one.stdout),
                 "gmacs_nproc_threads": gmacs / gemm_seconds()},
    }


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile with
    at least ten samples beyond it.  Below 44 samples that percentile falls
    at or below p75 (or does not exist), so the highest percentile with a
    quarter of the samples beyond it is taken instead."""
    s = sorted(times)
    n = len(s)
    beyond = min(10, n // 4)
    k = n - 1 - beyond
    return s[k], 100.0 * (k + 1) / n, beyond


class Loop:
    """Closed loop over instances 0, 1, ...; records op times and checks."""

    def __init__(self, wl, seed: int):
        self.wl, self.seed = wl, seed
        self.times: list[float] = []
        self.gen_times: list[float] = []
        self.records: list = []
        self.failed = 0

    def run(self, seconds: float, tracer=None) -> None:
        """Start operations until `seconds` have passed and the instance
        cycle is complete.  Instance i is generated right before its
        operation, outside the timer (inside a `bench.gen` span when
        tracing, so the generation layers are measured too)."""
        span = tracer.span if tracer is not None else _no_span
        start = perf_counter()
        i = 0
        while perf_counter() - start < seconds or i % self.wl.cycle:
            t = perf_counter()
            with span("bench.gen", i):
                item = self.wl.instance(self.seed, i)
            t_op = perf_counter()
            with span("bench.op", i):
                result = self._call(item)
            self.times.append(perf_counter() - t_op)
            self.gen_times.append(t_op - t)
            if tracer is not None:
                tracer.paused = True
            ok, record = self._check(item, result)
            if tracer is not None:
                tracer.paused = False
            self.failed += not ok
            self.records.append(record)
            i += 1

    def _call(self, item):
        try:
            return self.wl.op(item)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return _RAISED

    def _check(self, item, result):
        if result is _RAISED:
            return False, "raised"
        try:
            return self.wl.check(item, result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False, "check raised"


_RAISED = object()


def _no_span(name: str, op) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


def import_seconds() -> list[float]:
    """Time `import numpy, supportminors` in SETUP_REPEATS fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import numpy, supportminors; print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                                 text=True, timeout=60, check=True).stdout)
            for _ in range(SETUP_REPEATS)]


def setup(wl, seed: int) -> dict:
    """Set-up time: the median import time plus the median of SETUP_REPEATS
    warm-ups, each generating the warm-up instance and running it once."""
    imports = import_seconds()
    reps = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        item = wl.instance(seed, -1)  # index -1: the warm-up instance
        result = wl.op(item)
        reps.append(perf_counter() - t)
    warmup_ok, _ = wl.check(item, result)
    setup_s = statistics.median(imports) + statistics.median(reps)
    return {"import_s": imports, "warmup_s": reps, "warmup_ok": warmup_ok, "setup_s": setup_s}


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


def end_to_end(loop, setup_info: dict, peak_rss_mb: float) -> tuple[dict, dict, list]:
    """End-to-end metrics of an untraced loop, extra report keys, notes."""
    value, pct, beyond = tail(loop.times)
    n = len(loop.times)
    metrics = {
        "ops_per_s": ((n - loop.failed) / sum(loop.times), "1/s"),
        "op_p50_s": (statistics.median(loop.times), "s"),
        "op_tail_s": (value, "s"),
        "setup_s": (setup_info["setup_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [f"op_tail_s is p{pct:.1f} of {n} samples, {beyond} beyond it",
             f"setup_s is the median of {SETUP_REPEATS} imports in fresh interpreters + the "
             f"median of {SETUP_REPEATS} warm-ups (generate one instance, run it)"]
    return metrics, {"op_tail": {"percentile": pct, "samples": n, "beyond": beyond}}, notes


def per_layer(plain, traced, tracer, machine: dict, spans_path: Path) -> tuple[dict, dict, list]:
    """Per-layer metrics of the traced loop, extra report keys, notes."""
    import layers

    k = min(len(plain.times), len(traced.times))
    overhead = sum(plain.times[:k]) / sum(traced.times[:k])
    gemm = machine["gemm"]
    roof = max(gemm["gmacs_1_thread"], gemm["gmacs_nproc_threads"])
    metrics, calibration = layers.metrics(tracer, len(traced.times), roof, overhead)
    tracer.write(spans_path)
    notes = [f"trace_overhead_ratio is traced / untraced ops_per_s over the first {k} ops",
             f"linalg.roofline_frac divides by the faster gemm probe, {roof:.2f} Gmac/s"]
    notes += [f"calibration {row['shape']}: cost_dense={row['cost_dense']} "
              f"linalg_s={row['linalg_s_per_build']:.6f} s_per_gmac={row['s_per_gmac']:.4f}"
              for row in calibration]
    extra = {"calibration": calibration, "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, extra, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    threads = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy  # noqa: F401
        import supportminors
    except ImportError as e:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    if Path(supportminors.__file__).resolve().parent != ROOT / "src" / "supportminors":
        print(f"perfbench: imported {supportminors.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.build(args.workload, workdir)
        setup_info = setup(wl, args.seed)
        if args.trace == 0:
            loops = [Loop(wl, args.seed)]
            loops[0].run(args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            loops = [Loop(wl, args.seed), Loop(wl, args.seed)]
            loops[0].run(args.seconds / 2)
            tracer = Tracer()
            tracer.install("supportminors", layers.TARGETS, layers.EXPECTED)
            try:
                loops[1].run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
        machine = machine_record(threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace == 0:
        metrics, extra, notes = end_to_end(loops[0], setup_info, peak_rss_mb)
    else:
        spans_path = OUT_DIR / f"{wl.name}-seed{args.seed}.spans.tsv.gz"
        metrics, extra, notes = per_layer(*loops, tracer, machine, spans_path)
    first = loops[0]
    attempted = sum(len(lp.times) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    report = {
        "workload": wl.name, "size": wl.size, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "load": "one process, closed loop", "machine": machine,
        "setup": setup_info, "ops": [len(lp.times) for lp in loops],
        "gen_s_per_op": [statistics.median(lp.gen_times) for lp in loops],
        "fail_ratio": failed / attempted,
        "digest_ops": min(wl.digest_ops, len(first.records)),
        "digest": digest(first.records[: wl.digest_ops]),
        "digest_all": digest(first.records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
        "op_times_s": [lp.times for lp in loops],
        "op_records": first.records,
    }
    report_path = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    lines = [f"perfbench {wl.name} ({wl.size}) seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}: {attempted} ops, {failed} failed"]
    lines += [f"  {note}" for note in notes]
    lines += [f"  {name:<32} {value:<14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  {'fail_ratio':<32} {report['fail_ratio']:<14.6g} ratio")
    lines.append(f"  output digest of the first {report['digest_ops']} ops: {report['digest']} "
                 f"(all {len(first.records)} ops: {report['digest_all']})")
    lines.append(f"  report: {report_path.relative_to(ROOT)}")
    print("\n".join(lines))
    correct = failed == 0 and setup_info["warmup_ok"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
