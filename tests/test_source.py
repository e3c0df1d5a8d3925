"""Rules about the package source itself."""

import ast
import sys
from pathlib import Path

import dslice

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_package_has_no_assert_statement():
    # `python -O` strips asserts, so none may guard a certified statement
    root = Path(dslice.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _unused_imports(source: str, filename: str) -> list:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source, filename)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [
        f"{filename}:{line} {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in read
    ]


def test_package_imports_are_used():
    # an import nothing reads is dead code, and it blurs which module
    # owns a computation
    root = Path(dslice.__file__).parent
    found = [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in _unused_imports(path.read_text(), str(path.relative_to(root)))
    ]
    assert found == []


def test_unused_import_rule_sees_a_dead_import():
    source = "import os\nfrom .a import b, c as d\n__all__ = ['b']\n"
    assert _unused_imports(source, "m.py") == ["m.py:1 os", "m.py:2 d"]
    assert _unused_imports("import os\nos.sep\n", "m.py") == []


def test_benchmark_spans_resolve(monkeypatch):
    # `perfbench/run.py --trace 1` wraps each span's function by name and
    # skips names that no longer exist; a renamed hot path must fail here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers

    root = Path(dslice.__file__).parent
    unresolved = []
    for name, module, path, _, _ in layers.targets():
        assert Path(module.__file__).parent == root, name
        obj = module
        for attr in path.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            unresolved.append(name)
    assert unresolved == []


_FOX_NAMES = {"fox_derivative", "FoxPolynomial"}
_RETIRED_FOX = {"fox_matrix", "push_fox", "_eval_fox"}


def _fox_owners(source: str, filename: str) -> list:
    """Fox calculus outside ``fox_row``: a module other than words.py that
    imports the free-word derivative, or a retired second implementation."""
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom) and filename != "words.py":
            hits += [
                f"{filename}:{node.lineno} imports {alias.name}"
                for alias in node.names if alias.name in _FOX_NAMES
            ]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in _RETIRED_FOX:
                hits.append(f"{filename}:{node.lineno} defines {node.name}")
    return hits


def test_fox_calculus_has_one_owner():
    # every Fox row is one pass of words.fox_row; a second evaluator of
    # free derivatives would drift from it
    root = Path(dslice.__file__).parent
    found = [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in _fox_owners(path.read_text(), str(path.relative_to(root)))
    ]
    assert found == []


def test_fox_owner_rule_sees_a_second_implementation():
    source = (
        "from .words import Word, fox_derivative\n"
        "class P:\n    def fox_matrix(self):\n        pass\n"
        "def push_fox(poly):\n    pass\n"
    )
    assert sorted(_fox_owners(source, "m.py")) == [
        "m.py:1 imports fox_derivative",
        "m.py:3 defines fox_matrix",
        "m.py:5 defines push_fox",
    ]
    assert _fox_owners(source.splitlines()[0], "words.py") == []


_RETIRED_STAGE_B = {
    "_ring_right_inverse",
    "verify_stage_b",
    "_shadow_obstructed",
    "unit_inverse",
    "GeneralAttempt",
}


def _stage_b_search(source: str, filename: str) -> list:
    """Pieces of the retired stage-B right-inverse search: a definition, an
    import, or the evidence kind its witnesses carried."""
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            hits += [
                f"{filename}:{node.lineno} imports {alias.name}"
                for alias in node.names if alias.name in _RETIRED_STAGE_B
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in _RETIRED_STAGE_B:
                hits.append(f"{filename}:{node.lineno} defines {node.name}")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id in _RETIRED_STAGE_B:
                hits.append(f"{filename}:{node.lineno} defines {node.id}")
        elif isinstance(node, ast.Constant) and node.value in _RETIRED_STAGE_B:
            hits.append(f"{filename}:{node.lineno} names {node.value}")
    return hits


def test_stage_b_search_stays_retired():
    # a certified splitting caps every candidate matrix's rank below its
    # row count, so a right-inverse search can never succeed; stage B is
    # the rank certificate alone
    root = Path(dslice.__file__).parent
    found = [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in _stage_b_search(path.read_text(), str(path.relative_to(root)))
    ]
    assert found == []


def test_stage_b_rule_sees_the_search_come_back():
    source = (
        "from .bs12 import ring_mul, unit_inverse\n"
        "def _ring_right_inverse(rows, ncols):\n    pass\n"
        "verify_stage_b = None\n"
        "kind = {'kind': 'GeneralAttempt'}\n"
    )
    assert sorted(_stage_b_search(source, "m.py")) == [
        "m.py:1 imports unit_inverse",
        "m.py:2 defines _ring_right_inverse",
        "m.py:4 defines verify_stage_b",
        "m.py:5 names GeneralAttempt",
    ]


_BASIS_BUILDERS = {"groebner.py", "modules.py", "diagrams.py"}


def _basis_builders(source: str, filename: str) -> list:
    """Calls constructing a GroebnerBasis outside the modules that own the
    bases: the engine, the module stage and the surgery presentation."""
    if filename in _BASIS_BUILDERS:
        return []
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "GroebnerBasis":
                hits.append(f"{filename}:{node.lineno} builds GroebnerBasis")
    return hits


def test_groebner_bases_have_three_builders():
    # each module's basis is built once per request and shared; a stage
    # that builds its own basis would repeat a completion
    root = Path(dslice.__file__).parent
    found = [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in _basis_builders(path.read_text(), str(path.relative_to(root)))
    ]
    assert found == []


def test_basis_rule_sees_a_construction_come_back():
    source = (
        "from .groebner import GroebnerBasis\n"
        "from . import groebner\n"
        "gb = GroebnerBasis(rows, 9, budget=300000)\n"
        "def f(rows):\n    return groebner.GroebnerBasis(rows, 8).contains\n"
    )
    assert _basis_builders(source, "groups.py") == [
        "groups.py:3 builds GroebnerBasis",
        "groups.py:5 builds GroebnerBasis",
    ]
    assert _basis_builders(source, "modules.py") == []


# Reference implementations that no stage reads: tests check the
# package's own paths against them.
_REFERENCE_DEFS = {
    # the free Fox derivative: test_acceptance.py::test_01_fox_fundamental_identity
    # and the fox_derivative tests of test_words.py
    "fox_derivative",
    # group-ring product: test_words.py::test_fox_row_is_the_pushed_free_derivative,
    # test_bs12.py::test_group_ring_ops and test_certify.py's relator_lift tests
    "ring_mul",
}


def _unread_definitions(sources: dict) -> list:
    """``(module, name, line)`` for each module-level def or class of
    ``sources`` (module name -> text) that no other top-level statement
    of any module reads, as a name or as an attribute."""
    defs = []
    readers: dict = {}  # name -> {(module, statement index)}
    for module, source in sources.items():
        for i, stmt in enumerate(ast.parse(source, module).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((module, i, stmt))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add((module, i))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.attr, set()).add((module, i))
    return [
        (module, stmt.name, stmt.lineno)
        for module, i, stmt in defs
        if not readers.get(stmt.name, set()) - {(module, i)}
    ]


def test_every_definition_is_read(monkeypatch):
    # a definition that no code reads is dead, unless it is public API, a
    # benchmark span, or a reference the tests compare against
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import layers

    traced = {
        (module.__name__.rpartition(".")[2], path.partition(".")[0])
        for _, module, path, _, _ in layers.targets()
    }
    root = Path(dslice.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(root.glob("*.py"))}
    found = [
        f"{module}.py:{line} {name}"
        for module, name, line in _unread_definitions(sources)
        if name not in dslice.__all__
        and name not in _REFERENCE_DEFS
        and (module, name) not in traced
    ]
    assert found == []


def test_unread_definition_rule_sees_a_dead_def():
    sources = {
        "a": (
            "def used():\n    pass\n"
            "def dead():\n    return dead()\n"
            "class C:\n    pass\n"
            "x = used\n"
        ),
        "b": "from .a import dead\nimport a\ny = a.C\n",
    }
    assert _unread_definitions(sources) == [("a", "dead", 3)]
