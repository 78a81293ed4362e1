"""The benchmark workloads: instance derivation, operation, and check.

Every operation gets its own instance, derived from the workload seed and
the operation index, so a run is reproducible from (workload, seed) alone
and the program only ever sees the generated instances.  Checks run
outside the timed operation and return (ok, record); the records feed the
output digest that later changes compare to show their outputs are
unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import supportminors as sm
from supportminors import cli

CHECK_FIELDS_QS = (2, 3, 7, 32003, 2**31 - 1)


def instance_seed(workload: str, seed: int, index) -> int:
    """64-bit ChaCha seed of one instance, derived from the workload seed."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    # The timed loop ends on a multiple of this, so every run sees the same
    # mix of instance kinds (check-fields cycles through five fields).
    cycle: int
    # Operations covered by the output digest; every run reaches this many.
    digest_ops: int
    make: Callable[[int, int], object]
    op: Callable[[object], object]
    check: Callable[[object, object], tuple[bool, object]]

    def instance(self, seed: int, index):
        return self.make(instance_seed(self.name, seed, index), index)


def _sols(sols) -> list:
    return [list(s.x) + [s.achieved_rank] for s in sols]


# solve-b2: planted q=32003, (m,n,r,K) = (6,6,2,8); one b=2 solve per op.
_F32003 = sm.PrimeField(32003)


def _solve_make(seed: int, index: int):
    return sm.gen_planted(_F32003, 6, 6, 8, 2, seed)


def _solve_op(item):
    return sm.solve_linearization(item[0], 2)


def _solve_check(item, result):
    inst, witness = item
    sols, diag = result
    xs = {s.x for s in sols}
    ok = (
        diag.complete
        and sm.normalize_projective(inst.field, witness) in xs
        and all(sm.verify_solution(inst, s.x) for s in sols)
    )
    return ok, [diag.rows, diag.cols, diag.rank, diag.kernel_dim, diag.method, _sols(sols)]


# check-fields: random (m,n,r,K) = (5,6,2,6), q cycling over five fields.
def _fields_make(seed: int, index: int):
    q = CHECK_FIELDS_QS[index % len(CHECK_FIELDS_QS)]
    return sm.gen_random(sm.PrimeField(q), 5, 6, 6, seed, r=2)


def _fields_op(inst):
    r1 = sm.rank_check(inst, 1)
    r2 = sm.rank_check(inst, 2)
    dim = sm.xonly_syzygy_dim(inst, 1)
    eqs = sm.build_equations(inst)
    syz = sm.enumerate_sprime(inst.m, inst.n, inst.r)
    held = sum(sm.check_annihilation(inst.field, sm.specialize(s, inst), eqs) for s in syz)
    return r1, r2, dim, held, len(syz)


def _fields_check(inst, result):
    r1, r2, dim, held, n_syz = result
    expected = sum(sm.sprime_count(inst.m, inst.n, inst.r))
    ok = n_syz == expected and held == n_syz
    if inst.field.q == 32003:
        ok = ok and r1.match and r2.match
    return ok, [inst.field.q, r1.observed_rank, r1.predicted, r2.observed_rank,
                r2.predicted, dim, held]


# gen-io: `gen --planted` through the CLI at (m,n,K,r) = (20,20,60,10), then
# parse and re-serialize; generation is the operation itself.
def _gen_io(workdir: Path) -> Workload:
    path = workdir / "instance.txt"

    def op(seed: int):
        argv = ["gen", "--planted", "--q", "32003", "--m", "20", "--n", "20",
                "--K", "60", "--r", "10", "--seed", str(seed), "--out", str(path)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        text = sm.write_instance(sm.load_instance(path))
        return rc, text

    def check(seed, result):
        rc, text = result
        data = path.read_bytes()
        witness = sm.witness_path(path).read_bytes()
        ok = rc == 0 and data == text.encode("ascii")
        return ok, [rc, len(data), hashlib.sha256(data + witness).hexdigest()]

    return Workload("gen-io", "q=32003 (m,n,K,r)=(20,20,60,10)", 1, 16,
                    lambda seed, index: seed, op, check)


def build(name: str, workdir: Path) -> Workload:
    if name == "solve-b2":
        return Workload(name, "q=32003 (m,n,r,K)=(6,6,2,8) b=2", 1, 8,
                        _solve_make, _solve_op, _solve_check)
    if name == "check-fields":
        return Workload(name, "q in {2,3,7,32003,2^31-1} (m,n,r,K)=(5,6,2,6)",
                        len(CHECK_FIELDS_QS), 10, _fields_make, _fields_op, _fields_check)
    if name == "gen-io":
        return _gen_io(workdir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("solve-b2", "check-fields", "gen-io")
