"""Two scans of the `supportminors` syntax trees.

Every name a module imports is used in that module: a name bound by
`import` or `from ... import` must appear as a name elsewhere in the
module.  `__init__` re-exports by design and is skipped.  The only
exceptions are bindings that perfbench/layers.py `EXPECTED` names.

Every public module-level function, and every public method or property
of a class, is mentioned outside its own definition: elsewhere in its
module (the CLI's command table, another method of its class), in another
package module, in an `__init__` import or in a `perfbench/*.py` file
(which also names functions by string to wrap them).  Tests do not count,
so code that only tests reach fails the scan.  The scan matches names, not
bindings: a method shares its name with every other attribute of that name.
"""

import ast
from collections import Counter
from pathlib import Path

import supportminors

# The unused imports the scan accepts: bindings that perfbench/layers.py
# EXPECTED requires, since its traced run checks that each is still bound.
ALLOWED = {("solver", "rref"), ("solver", "right_kernel_basis"), ("solver", "macaulay"),
           ("syzygies", "macaulay"), ("syzygies", "matrix_rank")}
# argparse calls `error` on the parser it builds, a caller no scan of the
# package's own names can see.
HOOKS = {("cli", "_Parser.error")}
SRC = Path(supportminors.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_no_unused_imports():
    unused = {(path.stem, name) for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
              for name in _unused_imports(path)}
    # Equality, not a subset: finding the allowed imports shows the scan works.
    assert unused == ALLOWED


def _benchmark_expected() -> set[tuple[str, str]]:
    """The (module, name) pairs of perfbench/layers.py `EXPECTED`, read from
    its syntax tree, so that perfbench is not imported."""
    for node in ast.parse((PERFBENCH / "layers.py").read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["EXPECTED"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/layers.py defines no EXPECTED")


def test_allowed_unused_imports_are_benchmark_bindings():
    # An unused import is kept only while the benchmark's traced run needs it.
    assert ALLOWED <= _benchmark_expected()


def _names(tree: ast.AST) -> tuple[set[str], set[str]]:
    """(every identifier the tree mentions, the ones that can name a method).

    Names, attributes, imported names and string constants are mentions; a
    method is reached only through an attribute or a string (the tracer's
    "SparseMatrix.to_dense" names `to_dense`), never through a bare name,
    which is a local variable or a module-level binding.
    """
    bare, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.alias):
            bare.add(node.name)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.update((node.value, *node.value.split(".")))
    return bare | attrs, attrs


def _units(tree: ast.Module):
    """(class name or None, statement) for every top-level statement, with
    each class split into the statements of its body, so that a method's
    own body is the only unit its definition owns."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((node.name, stmt) for stmt in node.body)
        else:
            yield None, node


def _uncalled_functions(src: Path, perfbench: Path) -> set[tuple[str, str]]:
    """(module, name) of every public module-level function, and (module,
    "Class.name") of every public method or property, that nothing outside
    its own definition mentions (a method: as an attribute or a string)."""
    units = {path.stem: [(cls, node, _names(node)) for cls, node in _units(ast.parse(path.read_text()))]
             for path in sorted(src.glob("*.py"))}
    bench = [_names(ast.parse(p.read_text())) for p in perfbench.glob("*.py")]
    # How many units of the package mention each name: [0] in any way, [1]
    # as a method can be mentioned.
    counts = [Counter(), Counter()]
    for body in units.values():
        for *_, names in body:
            for kind in (0, 1):
                counts[kind].update(names[kind])
    out = set()
    for stem, body in units.items():
        for cls, node, names in body:
            kind, name = int(cls is not None), getattr(node, "name", "")
            if (isinstance(node, ast.FunctionDef) and not name.startswith("_")
                    and not any(name in b[kind] for b in bench)
                    and counts[kind][name] == (name in names[kind])):
                out.add((stem, f"{cls}.{name}" if cls else name))
    return out


def test_every_public_function_has_a_caller():
    assert _uncalled_functions(SRC, PERFBENCH) == HOOKS


def test_uncalled_function_scan_flags_dead_code(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    pass\n\n\ndef local():\n    pass\n\n\nTABLE = [local]\n\n\n"
        "def dead():\n    return dead()\n\n\n"
        "class C:\n    def run(self):\n        return self.helper()\n\n"
        "    def helper(self):\n        pass\n\n"
        "    @property\n    def idle(self):\n        return self.idle\n\n"
        "    def index(self):\n        pass\n")
    # A local variable named `index` is no caller of the method `index`.
    (tmp_path / "b.py").write_text("from .a import C, used\n\n\ndef _private(index):\n    used()\n"
                                   "    return C().run(), index\n")
    assert _uncalled_functions(tmp_path, tmp_path / "none") == {
        ("a", "dead"), ("a", "C.idle"), ("a", "C.index")}
