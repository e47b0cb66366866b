"""Every top-level name the package defines is used by the package or the
benchmark. A name that only tests reach (or only ``__init__.py`` re-exports)
belongs in ``tests/``, not in ``src/``."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lagattn"
# a wrapped target of bench/tracing.py, such as "lagattn.numerics:roll"
TARGET = re.compile(r"lagattn\.\w+:(\w+)")


def _defined(tree):
    """Names of the module's top-level functions, classes and constants."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _uses(tree, skip_imports: bool):
    """Every name a module reads: loaded names, attributes, imported names
    (unless ``skip_imports``) and wrapped targets named in strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and not skip_imports:
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from TARGET.findall(node.value)


def test_no_name_only_tests_reach():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    used = set()
    for path, tree in trees.items():
        # __init__.py's re-exports are not uses
        used.update(_uses(tree, skip_imports=path.name == "__init__.py"))
    unused = [f"{path.name}:{name}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for name in _defined(tree)
              if name not in used and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, unused
