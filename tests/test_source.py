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
