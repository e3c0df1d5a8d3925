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
