"""Every name a `supportminors` module imports is used in that module.

The scan reads each module's syntax tree: a name bound by `import` or
`from ... import` must appear as a name elsewhere in the module.
`__init__` re-exports by design and is skipped.
"""

import ast
from pathlib import Path

import supportminors

# perfbench/layers.py EXPECTED requires `solver` to bind `rref`, which it no
# longer calls; this is the one unused import the scan accepts.
ALLOWED = {("solver", "rref")}


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
    src = Path(supportminors.__file__).parent
    unused = {(path.stem, name) for path in sorted(src.glob("*.py")) if path.stem != "__init__"
              for name in _unused_imports(path)}
    # Equality, not a subset: finding the allowed import shows the scan works.
    assert unused == ALLOWED
