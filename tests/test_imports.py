"""Module-level third-party imports of the package stay within one set.

Every CLI run pays for the imports of the whole package before any work.
The first test parses src/stillwave/*.py and fails when a module-level
import reaches a third-party module outside the set below, so an added
import cost shows here, not first in a benchmark. Removing an import
still passes. Imports inside functions are not counted: they are paid
only by the calls that reach them. The last test runs the shear-flow
path (the dispersion CLI and a continuation) in a fresh interpreter and
checks that none of scipy.integrate, scipy.optimize and scipy.special
was imported on the way.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stillwave"
ALLOWED = {"numpy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg"}


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


SHEAR_FLOW_PATH = """
import contextlib, io, os, sys, tempfile
import stillwave as sw
from stillwave import cli
out = os.path.join(tempfile.mkdtemp(), "report.json")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["dispersion", "--config", sys.argv[1], "--out", out,
                    "--manifest", out + ".manifest"])
assert code == 0, code
dist = sw.ConstantVorticity(b=-1.0)
sol = sw.shear_solution(dist, 0.0)
(k,) = sw.find_bifurcation_points(sol, dist, 0.0, 5.0)
res = sw.bifurcation_branch(sol, dist, k, amplitude=0.02, nx=64, ny=32)
assert res.norms.max() < 1e-9
print(" ".join(m for m in ("scipy.integrate", "scipy.optimize",
                           "scipy.special") if m in sys.modules))
"""


def test_shear_flow_path_loads_no_integrate_optimize_or_special():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", SHEAR_FLOW_PATH,
         str(ROOT / "configs" / "constant_bm1_dispersion.json")],
        capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ""
