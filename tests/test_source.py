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


_FOX_NAMES = {"fox_derivative"}
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


# second implementations of an exact primitive, each merged into the one
# that stays: Z[1/2] is fractions.Fraction, a free Fox derivative is the
# {Word: int} entry of words.fox_row, a rank mod p is a nullspace_mod
# count, and every determinant is a laurent._gauss_jordan pass
_RETIRED_DUPLICATES = {"DyadicRational", "FoxPolynomial", "rank_mod_p", "_int_det"}

# the Groebner engine's coordinate tracking: a basis decides membership
# only, and the summand maps read their translations off the module's
# rows at t = 2 and t = 1/2
_RETIRED_TRACKING = {"scalar_from_tu", "_coords_add", "_coords_scale"}


def _retired_names(source: str, filename: str, retired: set) -> list:
    """A definition or an import of a name in ``retired``."""
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            hits += [
                f"{filename}:{node.lineno} imports {alias.name}"
                for alias in node.names if alias.name in retired
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in retired:
                hits.append(f"{filename}:{node.lineno} defines {node.name}")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id in retired:
                hits.append(f"{filename}:{node.lineno} defines {node.id}")
    return hits


def _package_hits(rule, *args) -> list:
    root = Path(dslice.__file__).parent
    return [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in rule(path.read_text(), str(path.relative_to(root)), *args)
    ]


def test_exact_primitives_have_one_implementation():
    # two implementations of one exact primitive can drift apart, and
    # each is a second thing to trust
    assert _package_hits(_retired_names, _RETIRED_DUPLICATES) == []


def test_duplicate_rule_sees_each_retired_primitive_come_back():
    source = (
        "from .laurent import DyadicRational\n"
        "from .snf import nullspace_mod, rank_mod_p as rank\n"
        "class FoxPolynomial:\n    pass\n"
        "def _int_det(rows):\n    pass\n"
        "rank_mod_p = None\n"
    )
    assert sorted(_retired_names(source, "m.py", _RETIRED_DUPLICATES)) == [
        "m.py:1 imports DyadicRational",
        "m.py:2 imports rank_mod_p",
        "m.py:3 defines FoxPolynomial",
        "m.py:5 defines _int_det",
        "m.py:7 defines rank_mod_p",
    ]


def test_coordinate_tracking_stays_retired():
    # bookkeeping carried through every S-pair, G-pair and reduction step
    # only to be evaluated at one point
    assert _package_hits(_retired_names, _RETIRED_TRACKING) == []


def test_tracking_rule_sees_a_helper_come_back():
    source = (
        "from .groebner import GroebnerBasis, scalar_from_tu\n"
        "def _coords_add(c1, c2):\n    pass\n"
        "_coords_scale = None\n"
    )
    assert sorted(_retired_names(source, "m.py", _RETIRED_TRACKING)) == [
        "m.py:1 imports scalar_from_tu",
        "m.py:2 defines _coords_add",
        "m.py:4 defines _coords_scale",
    ]



# Word._reduced takes letters unchecked; the word algebra and the Tietze
# pass build them from words the constructor has already checked
_UNCHECKED_WORD_OWNERS = {"words.py", "groups.py"}


def _unchecked_words(source: str, filename: str) -> list:
    """Reads of ``Word._reduced`` outside ``_UNCHECKED_WORD_OWNERS``."""
    if filename in _UNCHECKED_WORD_OWNERS:
        return []
    return [
        f"{filename}:{node.lineno} reads _reduced"
        for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Attribute) and node.attr == "_reduced"
    ]


def test_unchecked_words_stay_in_the_word_algebra():
    # a word built elsewhere from raw letters must pass the constructor's
    # exponent check and free reduction
    assert _package_hits(_unchecked_words) == []


def test_unchecked_word_rule_sees_a_new_caller():
    source = (
        "from .words import Word\n"
        "w = Word._reduced(((0, 2),))\n"
        "make = Word._reduced\n"
        "v = Word(((0, 1),))\n"
    )
    assert sorted(_unchecked_words(source, "diagrams.py")) == [
        "diagrams.py:2 reads _reduced",
        "diagrams.py:3 reads _reduced",
    ]
    assert _unchecked_words(source, "groups.py") == []

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


# the only completions over raw rows: a module's own basis, and the
# one-off membership test
_COMPLETION_OWNERS = {"groebner.py module_contains", "modules.py LambdaModule.basis"}


def _fresh_completions(source: str, filename: str) -> list:
    """Calls constructing a GroebnerBasis outside ``_COMPLETION_OWNERS``
    that extend no module's basis by ``base=<module>.basis``: a completion
    over a module's raw rows that the module's basis has already done."""
    hits = []

    def visit(node, owner):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            base = {k.arg: k.value for k in node.keywords}.get("base")
            extends = isinstance(base, ast.Attribute) and base.attr == "basis"
            where = f"{filename} {'.'.join(owner)}"
            if name == "GroebnerBasis" and not extends and where not in _COMPLETION_OWNERS:
                hits.append(f"{filename}:{node.lineno} completes a basis afresh")
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = owner + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source, filename), ())
    return hits


def test_tracked_bases_extend_the_module_basis():
    # the judge's basis extends the module's complete basis by the
    # witnesses; completing one afresh over the rows repeats that work
    assert _package_hits(_fresh_completions) == []


def test_tracked_basis_rule_sees_a_fresh_completion_come_back():
    source = (
        "def _verify_split(module, v1, v2):\n"
        "    stacked = GroebnerBasis(\n"
        "        [v1, v2] + list(module.rows), k, budget=SPLIT_BUDGET\n"
        "    )\n"
        "    ext = GroebnerBasis([v1, v2], k, base=module.basis)\n"
        "    off = GroebnerBasis([v1, v2], k, base=None)\n"
        "class LambdaModule:\n"
        "    def basis(self):\n"
        "        return GroebnerBasis(list(self.rows), self.ncols)\n"
    )
    assert _fresh_completions(source, "modules.py") == [
        "modules.py:2 completes a basis afresh",
        "modules.py:6 completes a basis afresh",
    ]


_TIETZE_NAMES = {"simplify_presentation": "simplifies", "check_tietze": "checks"}


def _simplifier_calls(source: str, filename: str) -> list:
    """Calls of ``simplify_presentation`` or ``check_tietze`` anywhere but
    in diagrams.py's ``SurgeryPresentation.simplified``, which owns the
    one simplification and the one check of its isomorphism."""
    hits = []

    def visit(node, owner):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            allowed = (filename, owner) == (
                "diagrams.py", ("SurgeryPresentation", "simplified")
            )
            if name in _TIETZE_NAMES and not allowed:
                hits.append(f"{filename}:{node.lineno} {_TIETZE_NAMES[name]}")
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = owner + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source, filename), ())
    return hits


def test_surgery_presentations_are_simplified_once():
    # each stage reads the simplified group off its SurgeryPresentation;
    # a stage that simplifies again repeats the Tietze pass, and one that
    # checks again repeats the isomorphism check
    root = Path(dslice.__file__).parent
    found = [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in _simplifier_calls(path.read_text(), str(path.relative_to(root)))
    ]
    assert found == []


def test_simplifier_rule_sees_a_second_caller():
    source = (
        "from .groups import check_tietze, simplify_presentation\n"
        "from . import groups\n"
        "small = simplify_presentation(pres, keep={0})\n"
        "def f(pres):\n    return groups.simplify_presentation(pres)[0]\n"
        "class SurgeryPresentation:\n"
        "    def simplified(self):\n"
        "        small, words, kept, record = simplify_presentation(self.group)\n"
        "        check_tietze(self.group, (small, words, kept), record)\n"
        "    def again(self):\n"
        "        groups.check_tietze(self.group, self.simplified, ())\n"
    )
    assert _simplifier_calls(source, "cli.py") == [
        "cli.py:3 simplifies",
        "cli.py:5 simplifies",
        "cli.py:8 simplifies",
        "cli.py:9 checks",
        "cli.py:11 checks",
    ]
    assert _simplifier_calls(source, "diagrams.py") == [
        "diagrams.py:3 simplifies",
        "diagrams.py:5 simplifies",
        "diagrams.py:11 checks",
    ]


# the two elimination passes over Z/m: the surgery presentation's kernel
# of its Jacobian at t = 2, one per modulus, which the quotient maps and
# stage B's rank share, and the F_3 dimension of the 2-column simplified
# module that refutes a splitting
_NULLSPACE_CALLERS = [
    "diagrams.py SurgeryPresentation.kernel_mod",
    "modules.py detect_splitting",
]


def _nullspace_callers(source: str, filename: str) -> list:
    """``file owner`` for each call of ``nullspace_mod``, the owner being
    the dotted classes and functions around the call."""
    hits = []

    def visit(node, owner):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "nullspace_mod":
                hits.append(f"{filename} {'.'.join(owner)}")
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = owner + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source, filename), ())
    return hits


def test_nullspace_mod_has_two_callers():
    # a stage that eliminates the Jacobian mod m itself repeats the
    # kernel its presentation keeps
    root = Path(dslice.__file__).parent
    found = [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in _nullspace_callers(path.read_text(), str(path.relative_to(root)))
    ]
    assert found == _NULLSPACE_CALLERS


def test_nullspace_rule_sees_a_third_caller():
    source = (
        "from .snf import nullspace_mod\n"
        "from . import snf\n"
        "class SurgeryPresentation:\n"
        "    def kernel_mod(self, m):\n"
        "        return nullspace_mod(rows, m, ncols=n)\n"
        "def stage_b_certificate(plain):\n"
        "    return len(snf.nullspace_mod(rows, 3, n))\n"
    )
    assert _nullspace_callers(source, "diagrams.py") == [
        "diagrams.py SurgeryPresentation.kernel_mod",
        "diagrams.py stage_b_certificate",
    ]


# the builders of weights, Fox Jacobians and Alexander modules: the
# surgery presentation builds its own on the Tietze-simplified
# presentation; ``alexander_module`` reads its presentation's whole
# Jacobian, for a companion's Alexander polynomial and for ``analyze``,
# whose witness lines are coordinates over the diagram's arcs
_ABELIAN_CALLERS = [
    "cli.py _analyze_report alexander_module",
    "diagrams.py SurgeryPresentation.small_jacobian fox_jacobian",
    "diagrams.py SurgeryPresentation.small_weights infinite_cyclic_weights",
    "modules.py alexander_module fox_jacobian",
    "modules.py alexander_module infinite_cyclic_weights",
    "modules.py alexander_polynomial alexander_module",
]
_ABELIAN_BUILDERS = {"infinite_cyclic_weights", "fox_jacobian", "alexander_module"}


def _abelian_callers(source: str, filename: str) -> list:
    """``file owner name`` for each call of an ``_ABELIAN_BUILDERS`` name,
    the owner being the dotted classes and functions around the call."""
    hits = []

    def visit(node, owner):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in _ABELIAN_BUILDERS:
                hits.append(f"{filename} {'.'.join(owner)} {name}")
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = owner + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source, filename), ())
    return hits


def test_full_size_abelian_data_has_listed_builders():
    # a stage that builds weights, a Jacobian or a module on the full
    # presentation itself repeats, at the diagram's size, what the
    # surgery presentation keeps at the group's
    root = Path(dslice.__file__).parent
    found = [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in _abelian_callers(path.read_text(), str(path.relative_to(root)))
    ]
    assert sorted(found) == _ABELIAN_CALLERS


def test_abelian_rule_sees_a_new_caller():
    source = (
        "from .modules import fox_jacobian, infinite_cyclic_weights\n"
        "from . import modules\n"
        "class SurgeryPresentation:\n"
        "    def weights(self):\n"
        "        return infinite_cyclic_weights(self.group, self.meridian)\n"
        "    def small_jacobian(self):\n"
        "        return fox_jacobian(self.simplified[0], self.small_weights)\n"
        "def summand_homs(plain):\n"
        "    return modules.alexander_module(plain.group, plain.meridian)\n"
    )
    assert _abelian_callers(source, "diagrams.py") == [
        "diagrams.py SurgeryPresentation.weights infinite_cyclic_weights",
        "diagrams.py SurgeryPresentation.small_jacobian fox_jacobian",
        "diagrams.py summand_homs alexander_module",
    ]


# Reference implementations that no stage reads: tests check the
# package's own paths against them.
_REFERENCE_DEFS = {
    # the free Fox derivative: test_acceptance.py::test_01_fox_fundamental_identity
    # and the fox_derivative tests of test_words.py
    "fox_derivative",
    # words.py's group-ring product: test_words.py's Fox derivative tests,
    # test_acceptance.py::test_01_fox_fundamental_identity,
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


_CAP_OWNERS = {"groups.py", "twisted.py"}
_CAP_NAMES = {"_REGULAR_CAP", "_check_regular_budget"}


def _cap_readers(source: str, filename: str) -> list:
    """Imports or reads of the regular-representation cap outside the two
    modules that enforce it."""
    if filename in _CAP_OWNERS:
        return []
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.ImportFrom):
            hits += [
                f"{filename}:{node.lineno} imports {alias.name}"
                for alias in node.names if alias.name in _CAP_NAMES
            ]
        elif isinstance(node, ast.Name) and node.id in _CAP_NAMES:
            hits.append(f"{filename}:{node.lineno} reads {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in _CAP_NAMES:
            hits.append(f"{filename}:{node.lineno} reads {node.attr}")
    return hits


def test_regular_cap_is_read_where_it_is_enforced():
    # metabelian_quotient_homs refuses an oversized target and the cover
    # paths re-check their own; a caller checking up front would be a
    # second place to keep in step
    root = Path(dslice.__file__).parent
    found = [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in _cap_readers(path.read_text(), str(path.relative_to(root)))
    ]
    assert found == []


def test_cap_rule_sees_a_caller_check_come_back():
    source = (
        "from .twisted import _check_regular_budget\n"
        "from . import groups\n"
        "_check_regular_budget(target)\n"
        "if order > groups._REGULAR_CAP:\n    pass\n"
    )
    assert _cap_readers(source, "cli.py") == [
        "cli.py:1 imports _check_regular_budget",
        "cli.py:3 reads _check_regular_budget",
        "cli.py:4 reads _REGULAR_CAP",
    ]
    assert _cap_readers(source, "twisted.py") == []


# the CLI and replay build every certificate through certify.py's request
# builders, which derive curve words from the pattern document's marks;
# replay once restored the stored curve words instead
_BUILDER_INTERNALS = {
    "certify_doubly_slice", "_base_certificate", "certify_satellite",
    "certify_family", "marked_presentation",
}


def _second_builders(source: str, filename: str) -> list:
    """Calls in cli.py of what the request builders call, and any
    definition of the retired ``_restore_curves``."""
    hits = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Call) and filename == "cli.py":
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in _BUILDER_INTERNALS:
                hits.append(f"{filename}:{node.lineno} calls {name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "_restore_curves":
                hits.append(f"{filename}:{node.lineno} defines _restore_curves")
    return hits


def test_certificates_have_one_builder_per_request():
    # a second assembly path beside the builders can drift from them, and
    # replay would check a certificate against the wrong path
    root = Path(dslice.__file__).parent
    found = [
        hit
        for path in sorted(root.rglob("*.py"))
        for hit in _second_builders(path.read_text(), str(path.relative_to(root)))
    ]
    assert found == []


def test_builder_rule_sees_a_second_path_come_back():
    source = (
        "from .certify import certify_doubly_slice\n"
        "from . import certify, documents\n"
        "base = certify_doubly_slice(diagram, registry=registry)\n"
        "def family(doc):\n"
        "    d, plain, name = documents.marked_presentation(doc)\n"
        "    return certify.certify_family(plain, h, base, [])\n"
        "def _restore_curves(plain, curves):\n    pass\n"
    )
    assert sorted(_second_builders(source, "cli.py")) == [
        "cli.py:3 calls certify_doubly_slice",
        "cli.py:5 calls marked_presentation",
        "cli.py:6 calls certify_family",
        "cli.py:7 defines _restore_curves",
    ]
    assert _second_builders(source, "certify.py") == [
        "certify.py:7 defines _restore_curves",
    ]


# certify.py writes each certificate decision once: the not-applicable
# exit in ``_not_applicable`` and the P1/P2 verdict pair in ``_both``
_DECISION_OWNERS = {"NotApplicable": "_not_applicable", "P1 and P2": "_both"}


def _second_decisions(source: str, filename: str) -> list:
    """In certify.py, a ``Certificate`` call passing ``NOT_APPLICABLE``
    outside ``_not_applicable``, and a dict literal keyed by both "P1"
    and "P2" outside ``_both``."""
    if filename != "certify.py":
        return []
    hits = []

    def visit(node, owner):
        decision = None
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            args = node.args + [k.value for k in node.keywords]
            if name == "Certificate" and any(
                getattr(a, "id", None) == "NOT_APPLICABLE"
                or getattr(a, "value", None) == "NotApplicable"
                for a in args
            ):
                decision = "NotApplicable"
        elif isinstance(node, ast.Dict):
            keys = {getattr(k, "value", None) for k in node.keys}
            if {"P1", "P2"} <= keys:
                decision = "P1 and P2"
        if decision and _DECISION_OWNERS[decision] != owner:
            hits.append(f"{filename}:{node.lineno} builds {decision}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source, filename), None)
    return hits


def test_certificate_decisions_have_one_owner():
    # a second hand-built exit or verdict pair can drift from the first:
    # the pairs once shared one evidence dict between the summands
    assert _package_hits(_second_decisions) == []


def test_decision_rule_sees_a_second_builder_come_back():
    source = (
        "def _not_applicable(subject, hyps, inputs):\n"
        "    return Certificate(subject, hyps, _both(N), NOT_APPLICABLE, [], inputs)\n"
        "def _both(status, evidence=None):\n"
        "    return {'P1': _verdict(status), 'P2': _verdict(status)}\n"
        "def certify_satellite(base):\n"
        "    verdicts = {'P1': v, 'P2': v}\n"
        "    return Certificate(s, h, verdicts, conclusion='NotApplicable')\n"
        "one = {'P1': v}\n"
        "ok = Certificate(s, h, verdicts, CERTIFIED, [], i)\n"
    )
    assert _second_decisions(source, "certify.py") == [
        "certify.py:6 builds P1 and P2",
        "certify.py:7 builds NotApplicable",
    ]
    assert _second_decisions(source, "cli.py") == []


# "stage A, else stage B" is decided once, in ``_staged_verdicts``, which
# the verdict core of every certificate and ``ext_condition`` both read
_STAGE_CALLERS = [
    "certify.py _staged_verdicts calls _stage_a",
    "certify.py _staged_verdicts calls stage_b_certificate",
]


def _stage_callers(source: str, filename: str) -> list:
    """``file owner calls name`` for each call of ``_stage_a`` or
    ``stage_b_certificate``, the owner being the enclosing function."""
    hits = []

    def visit(node, owner):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("_stage_a", "stage_b_certificate"):
                hits.append(f"{filename} {owner} calls {name}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source, filename), None)
    return hits


def test_staged_verdicts_have_one_owner():
    # a second "stage A, else stage B" can drift from the first: the knot
    # certificate and ext_condition once wrote it each
    assert _package_hits(_stage_callers) == _STAGE_CALLERS


def test_stage_rule_sees_a_second_path_come_back():
    source = (
        "def _staged_verdicts(plain, h, registry):\n"
        "    v = {t: _stage_a(registry, h, t) for t in ('P1', 'P2')}\n"
        "    return v if all(v.values()) else stage_b_certificate(plain)\n"
        "def ext_condition(plain, which, h=None, registry=None):\n"
        "    return _stage_a(registry, h, which) or certify.stage_b_certificate(plain)\n"
    )
    assert _stage_callers(source, "certify.py") == [
        *_STAGE_CALLERS,
        "certify.py ext_condition calls _stage_a",
        "certify.py ext_condition calls stage_b_certificate",
    ]
    assert _stage_callers("x = stage_b_certificate(p)\n", "cli.py") == [
        "cli.py None calls stage_b_certificate",
    ]


# the cover comparison: ``_quotient_maps`` alone enumerates the maps at
# (n, m) and reads each on the simplified presentation's kept generators;
# ``first_cover_check`` hands the first to ``crowell_check`` and
# ``cover_compares`` every one to ``crowell_compares``, which
# ``crowell_check`` runs on its single map.  The CLI and the knot
# certificate once enumerated and restricted the maps each
_COVER_CALLERS = [
    "twisted.py crowell_check calls crowell_compares",
    "twisted.py _quotient_maps calls metabelian_quotient_homs",
    "twisted.py first_cover_check calls crowell_check",
    "twisted.py cover_compares calls crowell_compares",
]
_COVER_NAMES = {"metabelian_quotient_homs", "crowell_check", "crowell_compares"}


def _cover_callers(source: str, filename: str, names=_COVER_NAMES) -> list:
    """``file owner calls name`` for each call of a name in ``names``,
    the owner being the enclosing function."""
    hits = []

    def visit(node, owner):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in names:
                hits.append(f"{filename} {owner} calls {name}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source, filename), None)
    return hits


def test_cover_comparison_has_one_owner():
    assert _package_hits(_cover_callers) == _COVER_CALLERS


def test_cover_rule_sees_a_second_caller_come_back():
    source = (
        "def _analyze_report(plain, n, m):\n"
        "    target, homs = groups.metabelian_quotient_homs(plain, n, m)\n"
        "    small = plain.simplified\n"
        "    return crowell_check(small[0], homs[0], target)\n"
        "def cmd_oracle(plain, n, m):\n"
        "    return list(twisted.crowell_compares(plain.group, [], None))\n"
    )
    assert _cover_callers(source, "cli.py") == [
        "cli.py _analyze_report calls metabelian_quotient_homs",
        "cli.py _analyze_report calls crowell_check",
        "cli.py cmd_oracle calls crowell_compares",
    ]


# the relator check of the maps onto Z/n x| Z/m: the enumeration runs it
# on the zero map and the kernel's generators, whose span is every map
# it returns, so a second caller would check maps already proved
_METABELIAN_CHECK_CALLERS = [
    "groups.py metabelian_quotient_homs calls check_metabelian_relators",
]


def test_metabelian_relator_check_has_one_caller():
    assert _package_hits(
        _cover_callers, {"check_metabelian_relators"}
    ) == _METABELIAN_CHECK_CALLERS


def test_metabelian_check_rule_sees_a_second_caller_come_back():
    source = (
        "def metabelian_quotient_homs(plain, n, m):\n"
        "    check_metabelian_relators(plain.group, [zero, *basis], target)\n"
        "def cover_compares(plain, n, m):\n"
        "    bs12.check_metabelian_relators(plain.group, homs, target)\n"
    )
    assert _cover_callers(source, "groups.py", {"check_metabelian_relators"}) == [
        *_METABELIAN_CHECK_CALLERS,
        "groups.py cover_compares calls check_metabelian_relators",
    ]
