"""Two scans of the `supportminors` syntax trees.

Every name a module imports is used in that module: a name bound by
`import` or `from ... import` must appear as a name elsewhere in the
module.  `__init__` re-exports by design and is skipped.

Every public module-level function is mentioned outside its own
definition: elsewhere in its module (the CLI's command table), in another
package module, in an `__init__` import or in a `perfbench/*.py` file
(which also names functions by string to wrap them).  Tests do not count,
so code that only tests reach fails the scan.
"""

import ast
from collections import Counter
from pathlib import Path

import supportminors

# perfbench/layers.py EXPECTED requires `solver` to bind `rref`, which it no
# longer calls; this is the one unused import the scan accepts.
ALLOWED = {("solver", "rref")}
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
    # Equality, not a subset: finding the allowed import shows the scan works.
    assert unused == ALLOWED


def _names(tree: ast.AST) -> set[str]:
    """Every identifier the tree mentions: names, attributes, imported names
    and string constants."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _uncalled_functions(src: Path, perfbench: Path) -> set[tuple[str, str]]:
    """(module, name) of every public module-level function that nothing
    outside its own definition mentions."""
    bodies = {path.stem: [(node, _names(node)) for node in ast.parse(path.read_text()).body]
              for path in sorted(src.glob("*.py"))}
    seen = set().union(*(_names(ast.parse(p.read_text())) for p in perfbench.glob("*.py")))
    # How many top-level statements of the package mention each name.
    counts = Counter(name for body in bodies.values() for _, names in body for name in names)
    return {(stem, node.name) for stem, body in bodies.items() for node, names in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name not in seen and counts[node.name] == (node.name in names)}


def test_every_public_function_has_a_caller():
    assert _uncalled_functions(SRC, PERFBENCH) == set()


def test_uncalled_function_scan_flags_dead_code(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    pass\n\n\ndef local():\n    pass\n\n\nTABLE = [local]\n\n\n"
        "def dead():\n    return dead()\n")
    (tmp_path / "b.py").write_text("from .a import used\n\n\ndef _private():\n    used()\n")
    assert _uncalled_functions(tmp_path, tmp_path / "none") == {("a", "dead")}
