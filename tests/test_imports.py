"""Module-level third-party imports of the package stay within one set.

Every CLI run pays for the imports of the whole package before any work
(about 0.9 s of a 0.7-1.1 s run). This test parses src/stillwave/*.py and
fails when a module-level import reaches a third-party module outside the
set below, so an added import cost shows here, not first in a benchmark.
Removing an import still passes. Imports inside functions are not
counted: they are paid only by the calls that reach them.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "stillwave"
ALLOWED = {"numpy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg",
           "scipy.integrate", "scipy.optimize", "scipy.special"}


def _module_level_imports(tree):
    """(module, imported name or None) of every import outside a function
    or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield from ((node.module, alias.name) for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_third_party_imports_stay_in_the_set(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for module, name in _module_level_imports(tree):
        if module.partition(".")[0] in sys.stdlib_module_names:
            continue
        # "from scipy import sparse" imports scipy.sparse
        full = module if name is None else f"{module}.{name}"
        assert module in ALLOWED or full in ALLOWED, (
            f"{path.name} imports {full} at module level")


def test_the_check_sees_a_new_import():
    tree = ast.parse("import numpy as np\nif True:\n    import matplotlib\n"
                     "def f():\n    import pandas\n")
    assert sorted(_module_level_imports(tree)) == [("matplotlib", None),
                                                   ("numpy", None)]
