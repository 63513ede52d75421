"""Every name a liecap module imports from a sibling module is used there.

A deletion or a move can leave an import behind that nothing reads, which
keeps the old name alive and hides that it has no caller.  The check reads
the source with ``ast`` alone, so it imports nothing and runs anywhere.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "liecap"
MODULES = sorted(SRC.glob("*.py"))


def unused_relative_imports(source):
    """The names bound by ``from .x import ...`` (or ``from . import ...``)
    that the module never reads: no Name node carries them and ``__all__``
    does not list them."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in ast.walk(node.value)
                        if isinstance(e, ast.Constant) and isinstance(e.value, str))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"linalg.py", "algebra.py", "recognize.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_relative_import(path):
    assert unused_relative_imports(path.read_text()) == [], path.name


def test_checker_finds_a_stale_import():
    source = ("from .linalg import Subspace, subspace_sum as ssum, kernel\n"
              "from . import catalog, tables\n"
              "__all__ = ['tables']\n"
              "def f(u: Subspace):\n"
              "    return ssum(u, u), catalog.build\n")
    assert unused_relative_imports(source) == [(1, "kernel")]
