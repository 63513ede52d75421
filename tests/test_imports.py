"""Every name a liecap module imports from a sibling module is used there,
and every function, class, public method and module constant has a caller
in liecap.

A deletion or a move can leave an import behind that nothing reads, which
keeps the old name alive and hides that it has no caller.  A wrapper that
only tests call is library surface nothing uses, and so is a module
constant that nothing reads.  The checks read the source with ``ast``
alone, so they import nothing and run anywhere.
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


def unreferenced_definitions(sources):
    """The top-level functions, classes and UPPER_CASE constants, and the
    public methods, of the modules in ``sources`` (module name -> source)
    that nothing reads outside their own definition, as ``module.name`` or
    ``module.Class.method``.  A function, class or constant is read by a
    ``Name`` or an ``Attribute`` node of its name; a method only by an
    ``Attribute`` node, since a local variable of the same name is no
    caller of it.  A docstring that mentions a name is no caller of it, and
    neither is a recursive call."""
    defs = []
    names, attrs = {}, {}
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node.name, module, node, False))
            if isinstance(node, ast.Assign):
                defs.extend((f"{module}.{t.id}", t.id, module, node, False) for t in node.targets
                            if isinstance(t, ast.Name) and t.id.isupper()
                            and not t.id.startswith("_"))
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{module}.{node.name}.{sub.name}", sub.name, module, sub, True)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((module, node.lineno))
    return sorted(qual for qual, name, module, node, method in defs
                  if all(m == module and node.lineno <= line <= node.end_lineno
                         for m, line in attrs.get(name, []) + ([] if method else names.get(name, []))))


# names with no caller in liecap that stay, each for a reason outside it
NO_CALLER = {
    # bound by bench/tracer.py or bench/workloads.py (tests/test_bench_bindings.py)
    "homology.ExteriorBasis.for_dim": "bench/workloads.py builds the dense d3 with it",
    "homology.ce_d2": "bench/tracer.py times the dense d2",
    "homology.MultiplierResult.image": "bench/tracer.py reads result.image.dim",
    "homology.ce_d3": "bench/workloads.py reads the dense d3 of its cocycle items",
    "homology.kunneth_exterior_dim": "bench/workloads.py oracle of the sum items",
    "homology.kunneth_tensor_dim": "bench/workloads.py oracle of the sum items",
    "linalg.Matrix.column": "bench/workloads.py reads the dense d3 by column",
    "linalg.kernel": "bench/tracer.py times the dense kernel",
    "linalg.Subspace.basis_vectors": "bench/tracer.py times it",
    "covers.tensor_square": "bench/tracer.py times the cover route's tensor square",
    # a hook that a library calls
    "cli._Parser.error": "argparse calls it on every usage error",
    # references the tests compare the user paths against
    "algebra.LieAlgebra.table_key": "bench/tests/test_bench.py and the oracle tests compare tables by it",
    "capability.dagger_test": "capability through multiplier dimensions",
    "capability.central_test_lines": "the lines dagger_test is checked on",
    "homology.induced_map_injective": "capability through the induced multiplier map",
    "covers.Cover.multiplier_part": "M(L) as a subspace of the cover",
    "homology.MultiplierResult.tensor_square": "L x L as an algebra, against the cover's",
    # published values the acceptance tests check (the DIM4_* are bench oracles too)
    "tables.DIM4_MULTIPLIER": "test_acceptance.py checks the dim-4 table",
    "tables.DIM4_EXTERIOR": "test_acceptance.py checks the dim-4 table",
    "tables.DIM4_TENSOR": "test_acceptance.py checks the dim-4 table",
    "tables.DIM4_DIAGONAL": "test_acceptance.py checks the dim-4 table",
    "tables.EXTERIOR_6_ERRATA": "test_acceptance.py and TestL614ExteriorSquare check the erratum",
}


def test_every_definition_has_a_caller():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert unreferenced_definitions(sources) == sorted(NO_CALLER)


def test_checker_finds_a_dead_definition():
    sources = {
        "a": ("LIVE = 1\nDEAD_CONSTANT = 2\n_PRIVATE = 3\n"
              "def used():\n    return LIVE\n"
              "def dead(n):\n    return dead(n - 1) if n else used()\n"
              "class K:\n    def m(self):\n        return K()\n"
              "    def _private(self):\n        pass\n"
              "    def live(self):\n        pass\n"
              "    def sub(self):\n        pass\n"),
        "b": ("\"\"\"dead is mentioned here only.\"\"\"\n"
              "from .a import K\n"
              "def caller():\n    DEAD_CONSTANT = sub = K()\n    sub.live()\n"),
    }
    # sub is read in b only as a local variable, which calls no method, and
    # DEAD_CONSTANT is only assigned there, which reads nothing
    assert unreferenced_definitions(sources) == [
        "a.DEAD_CONSTANT", "a.K.m", "a.K.sub", "a.dead", "b.caller"]
