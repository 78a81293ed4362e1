"""Span tracer for the traced benchmark pass.

Wraps functions of a package from outside it.  Modules often import one
another's functions by name (`from .linalg import rank as matrix_rank`),
so patching a function in its home module alone would miss most calls:
`install` replaces every binding of the original function object in every
loaded module of the package, and `uninstall` restores them all.

Spans are kept in memory and written out when the benchmark ends.  Each
span is (id, parent id, name, start, end, operation id, work), where work
is what the target's extractor derived from the call's arguments and
result (shapes, bytes, diagnostics), or None.  Self time is a span's
duration minus the durations of its children; calls are strictly nested,
so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import sys
from pathlib import Path
from time import perf_counter

_MARK = "__perfbench_traced__"


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None       # operation id stamped on every span
        self.paused = False  # correctness checks run paused, so they leave no spans
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid, parent = tracer._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(sid, parent, name, start, perf_counter())
                raise
            end = perf_counter()
            tracer._exit(sid, parent, name, start, end,
                         None if work is None else work(args, result))
            return result

        setattr(traced, _MARK, True)
        return traced

    def _enter(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name, start, end, work=None) -> None:
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, self.op, work))

    @contextlib.contextmanager
    def span(self, name: str, op):
        """Root span for one benchmark step; every span inside carries `op`."""
        self.op = op
        sid, parent = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(sid, parent, name, start, perf_counter())
            self.op = None

    def install(self, package: str, targets, expected=()) -> None:
        """Wrap each (span name, module, attribute, work extractor) target.

        An attribute `Class.method` patches the class.  `expected` lists
        (module, attribute) bindings that must end up wrapped.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        try:
            for name, mod_name, attr, work in targets:
                owner = sys.modules[f"{package}.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, meth, self._wrap(name, vars(cls)[meth], work))
                    continue
                original = getattr(owner, attr)
                traced = self._wrap(name, original, work)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, traced)
            for mod_name, attr in expected:
                if not getattr(getattr(sys.modules[f"{package}.{mod_name}"], attr), _MARK, False):
                    raise RuntimeError(f"{package}.{mod_name}.{attr} was not wrapped")
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, key, traced) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time covered by its child spans."""
        own = {s[0]: s[4] - s[3] for s in self.spans}
        for s in self.spans:
            if s[1] in own:
                own[s[1]] -= s[4] - s[3]
        return own

    def write(self, path: Path) -> None:
        """Spans as gzipped tab-separated lines (the work column omitted)."""
        with gzip.open(path, "wt") as f:
            f.write("id\tparent\tname\tstart\tend\top\n")
            for sid, parent, name, start, end, op, _ in self.spans:
                f.write(f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{op}\n")
