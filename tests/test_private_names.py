"""Every private module-level name of the package has a use in the package.

A private function, class or constant that only its definition (or only
a test) mentions is dead code. This test parses src/stillwave/*.py and
fails on any module-level name starting with one underscore that no
other statement of the package reads, by name or as an attribute.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stillwave"


def _defined(stmt):
    """Private names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            stmt.target]
        names = [n.id for t in targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    else:
        names = []
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _read(stmt):
    """Names a statement reads, bare or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def unused_private_names(sources):
    """(module, name) of each private module-level name that no statement
    but its own definition reads, over sources {module: source}."""
    stmts = [(module, stmt) for module, text in sources.items()
             for stmt in ast.parse(text).body]
    reads = [_read(stmt) for _, stmt in stmts]
    return sorted((module, name)
                  for i, (module, stmt) in enumerate(stmts)
                  for name in _defined(stmt)
                  if not any(name in r for j, r in enumerate(reads) if j != i))


def test_every_private_name_is_used():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_the_check_sees_an_unused_name():
    sources = {"a.py": "_K = 1\n_M, _N = 2, 3\ndef _f():\n    return _f()\n"
                       "class _C:\n    pass\n__all__ = []\n",
               "b.py": "from a import _M\nprint(_M, x._C)\n"}
    assert unused_private_names(sources) == [("a.py", "_K"), ("a.py", "_N"),
                                             ("a.py", "_f")]
