"""Acceptance suite: the package's headline guarantees, one test each.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion.  Every check is exact (integer or word arithmetic throughout)
and each test enforces its own wall-clock budget.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from dslice.bs12 import BS12, BS12_A, BS12_C
from dslice.certify import (
    certify_doubly_slice,
    certify_satellite,
    family_946,
    replay_certificate,
)
from dslice.cli import main
from dslice.corpus import bundled_document, default_registry, resolve_hash
from dslice.diagrams import zero_surgery
from dslice.documents import (
    diagram_from_document,
    dump_document,
    marked_presentation,
)
from dslice.groebner import module_contains
from dslice.groups import (
    finite_cover_homology,
    metabelian_quotient_homs,
    second_derived_certificate,
)
from dslice.laurent import ONE, T, ZERO, LaurentPoly
from dslice.modules import alexander_module, alexander_polynomial, detect_splitting
from dslice.twisted import crowell_check, twisted_invariants
from dslice.words import FreeGroup, Word, fox_derivative, ring_add, ring_mul

from synthpres import as_surgery

pytestmark = pytest.mark.acceptance

KNOTS = ("unknot", "trefoil", "figure8", "946")

# every (n, m) with n <= 4, odd m <= 15 and 2^n = 1 mod m
QUOTIENTS = ((1, 1), (2, 1), (2, 3), (3, 1), (3, 7), (4, 1), (4, 3), (4, 5), (4, 15))


@pytest.fixture(scope="module")
def surgery():
    out = {}
    for name in KNOTS:
        diagram, _ = diagram_from_document(bundled_document(name))
        out[name] = (diagram, zero_surgery(diagram, 0))
    return out


@pytest.fixture(scope="module")
def marked946():
    return marked_presentation(bundled_document("946"))


def test_01_fox_fundamental_identity():
    """sum_i (dw/dx_i)(x_i - 1) = w - 1 for 1000 random free words."""
    start = time.monotonic()
    rng = random.Random(0xF0C5)
    rank = 5
    one = {Word.identity(): 1}
    steps = [ring_add({Word.gen(i): 1}, one, -1) for i in range(rank)]
    for _ in range(1000):
        w = Word(
            tuple(
                (rng.randrange(rank), rng.choice((1, -1)))
                for _ in range(rng.randrange(41))
            )
        )
        total = {}
        for i in range(rank):
            total = ring_add(total, ring_mul(fox_derivative(w, i), steps[i], FreeGroup))
        assert total == ring_add({w: 1}, one, -1)
    assert time.monotonic() - start < 5.0


def test_02_classical_alexander_polynomials(surgery):
    start = time.monotonic()
    expected = {
        "unknot": LaurentPoly({0: 1}),
        "trefoil": LaurentPoly({0: 1, 1: -1, 2: 1}),
        "figure8": LaurentPoly({0: 1, 1: -3, 2: 1}),
        "946": LaurentPoly({0: 2, 1: -5, 2: 2}),
    }
    for name in KNOTS:
        _, plain = surgery[name]
        delta = alexander_polynomial(plain.group, plain.meridian)
        assert delta.is_associate(expected[name]), name
        assert delta.is_symmetric(), name
        assert delta.canonical().evaluate_int(1) in (1, -1), name
    assert time.monotonic() - start < 10.0


def test_03_splitting_detection(surgery):
    start = time.monotonic()
    _, plain = surgery["946"]
    module = alexander_module(plain.group, plain.meridian)
    report = detect_splitting(module)
    assert report.verdict == "split"
    k = module.ncols
    assert k == 8
    v1 = tuple(ONE if i == 6 else ZERO for i in range(k))
    v2 = tuple(
        ONE if i == 3 else (-2 * ONE if i == 6 else ZERO) for i in range(k)
    )
    assert report.v1 == v1
    assert report.v2 == v2
    # re-check the three witness identities against the raw presentation
    rows = [tuple(r) for r in module.rows]
    t_minus_2 = T - 2 * ONE
    two_t_minus_1 = 2 * T - ONE
    assert module_contains(rows, k, tuple(t_minus_2 * p for p in v1))
    assert module_contains(rows, k, tuple(two_t_minus_1 * p for p in v2))
    stacked = rows + [v1, v2]
    for i in range(k):
        unit = tuple(ONE if j == i else ZERO for j in range(k))
        assert module_contains(stacked, k, unit)
    assert report.order.is_associate(t_minus_2 * two_t_minus_1)
    for name in ("trefoil", "unknot"):
        _, other = surgery[name]
        other_report = detect_splitting(
            alexander_module(other.group, other.meridian)
        )
        assert other_report.verdict == "no_split", name
    assert time.monotonic() - start < 30.0


def test_04_bs12_group_algebra():
    start = time.monotonic()
    identity = BS12(0, 0)
    assert BS12_A * BS12_C * BS12_A.inverse() == BS12_C * BS12_C
    rng = random.Random(0xB512)

    def element():
        return BS12(
            rng.randrange(-6, 7),
            Fraction(rng.randrange(-4096, 4097), 1 << rng.randrange(13)),
        )

    for _ in range(10000):
        x, y, z = element(), element(), element()
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == identity
        assert x.inverse().inverse() == x
    assert time.monotonic() - start < 5.0


def _conjugate(images, target, g):
    gi = target.inv(g)
    return tuple(target.mul(target.mul(g, x), gi) for x in images)


def _orbit_representatives(homs, target):
    """One hom per conjugacy orbit; invariants are constant on orbits."""
    hom_set = set(homs)
    seen = set()
    reps = []
    for h in homs:
        if h in seen:
            continue
        orbit = {_conjugate(h, target, g) for g in target.elements()}
        assert orbit <= hom_set
        seen |= orbit
        reps.append(h)
    return reps


def test_05_dual_path_cover_oracle(surgery):
    start = time.monotonic()
    for name in KNOTS:
        _, plain = surgery[name]
        for n, m in QUOTIENTS:
            target, homs = metabelian_quotient_homs(plain, n, m)
            assert homs, (name, n, m)
            if m == 1:
                assert len(homs) == 1, (name, n, m)
            sample = (
                homs if len(homs) <= 100 else _orbit_representatives(homs, target)
            )
            for h in sample:
                assert crowell_check(plain.group, h, target), (name, n, m)
    # anchor value: double branched-free cover of the trefoil
    _, plain = surgery["trefoil"]
    target, homs = metabelian_quotient_homs(plain, 2, 1)
    free, torsion = finite_cover_homology(plain.group, homs[0], target)
    assert (free, list(torsion)) == (1, [3])
    assert time.monotonic() - start < 300.0


def _invariant_multiset(pres, meridian, n, m):
    target, homs = metabelian_quotient_homs(as_surgery(pres, meridian), n, m)
    out = []
    for h in homs:
        free, tors = finite_cover_homology(pres, h, target)
        tfree, ttors = twisted_invariants(pres, h, target)
        out.append((free, tuple(tors), tfree, tuple(ttors)))
    return sorted(out)


def test_06_meridian_and_conjugation_invariance(surgery):
    start = time.monotonic()
    # every Wirtinger generator is a legitimate meridian choice
    for name in ("trefoil", "figure8", "946"):
        _, plain = surgery[name]
        ng = plain.group.num_generators
        choices = sorted({plain.meridian, 0, ng // 2})
        for n, m in ((2, 3), (3, 7)):
            reference = _invariant_multiset(plain.group, choices[0], n, m)
            for meridian in choices[1:]:
                assert (
                    _invariant_multiset(plain.group, meridian, n, m) == reference
                ), (name, n, m, meridian)
    # conjugating a representation never moves the invariants
    rng = random.Random(0xC0417)
    for name in ("trefoil", "figure8", "946"):
        _, plain = surgery[name]
        for n, m in ((2, 3), (3, 7)):
            target, homs = metabelian_quotient_homs(plain, n, m)
            nontrivial = [h for h in homs if any(q for _, q in h)] or homs
            for h in nontrivial[:3]:
                base = (
                    finite_cover_homology(plain.group, h, target),
                    twisted_invariants(plain.group, h, target),
                )
                for g in rng.sample(target.elements(), min(4, target.order())):
                    hc = _conjugate(h, target, g)
                    assert (
                        finite_cover_homology(plain.group, hc, target),
                        twisted_invariants(plain.group, hc, target),
                    ) == base, (name, n, m, g)
    # spot check at the largest quotient size
    _, plain = surgery["946"]
    target, homs = metabelian_quotient_homs(plain, 4, 15)
    h = next(h for h in homs if any(q for _, q in h))
    base = (
        finite_cover_homology(plain.group, h, target),
        twisted_invariants(plain.group, h, target),
    )
    for g in ((1, 7), (3, 11)):
        hc = _conjugate(h, target, g)
        assert (
            finite_cover_homology(plain.group, hc, target),
            twisted_invariants(plain.group, hc, target),
        ) == base
    assert time.monotonic() - start < 300.0


def _splice(delta_pattern, delta_companion, winding):
    """Alexander polynomial of a satellite from its pattern and companion."""
    if winding == 0:
        unit = delta_companion.canonical().evaluate_int(1)
        companion_part = LaurentPoly({0: unit})
    else:
        companion_part = LaurentPoly(
            {winding * d: c for d, c in delta_companion.coeffs.items()}
        )
    return (delta_pattern * companion_part).canonical()


@pytest.mark.curated
def test_07_satellite_transport_at_abelian_level(surgery, marked946):
    start = time.monotonic()
    _, plain, _ = marked946
    delta_r = alexander_polynomial(plain.group, plain.meridian).canonical()
    _, tre = surgery["trefoil"]
    delta_k = alexander_polynomial(tre.group, tre.meridian).canonical()
    for curve in ("eta1", "eta2", "gamma1", "gamma2"):
        assert plain.curve_linking[curve] == 0, curve
        assert _splice(delta_r, delta_k, 0).is_associate(delta_r), curve
    # nonzero winding moves the polynomial, so the zero case is not vacuous
    assert plain.curve_linking["meridian"] == 1
    spliced = _splice(delta_r, delta_k, 1)
    assert spliced.is_associate(delta_r * delta_k)
    assert not spliced.is_associate(delta_r)
    assert time.monotonic() - start < 60.0


@pytest.mark.curated
def test_08_end_to_end_certificates(surgery, marked946, tmp_path, capsys):
    start = time.monotonic()
    registry = default_registry()
    diagram, plain, name = marked946

    cert = certify_doubly_slice(diagram, name=name, registry=registry).as_dict()
    assert cert["conclusion"] == "DoublySliceCertified"
    assert cert["verdicts"]["P1"]["status"] == "holds"
    assert cert["verdicts"]["P2"]["status"] == "holds"
    assert replay_certificate(cert, resolve_hash, registry=registry)

    # the curated satellite of the pattern along both homology curves
    # is doubly slice yet fails the criterion: exit code 1, both fails
    rrr = tmp_path / "r-rr.json"
    dump_document(bundled_document("r-rr"), str(rrr))
    code = main(["certify", str(rrr), "--format", "json", "--no-cache"])
    family = json.loads(capsys.readouterr().out)
    assert code == 1
    assert family["conclusion"] == "CriterionFailsButInconclusive"
    assert family["verdicts"]["P1"]["status"] == "fails"
    assert family["verdicts"]["P2"]["status"] == "fails"
    assert replay_certificate(family, resolve_hash, registry=registry)

    base = certify_doubly_slice(diagram, name=name, registry=registry)
    sat = certify_satellite(base, plain, "eta1", None, companion_kind="any").as_dict()
    assert sat["conclusion"] == "DoublySliceCertified"
    assert sat["subject"]["companion"] == "AnyKnot"
    assert replay_certificate(sat, resolve_hash, registry=registry)

    symbolic = family_946(registry=registry).as_dict()
    assert symbolic["conclusion"] == "DoublySliceCertified"
    assert replay_certificate(symbolic, resolve_hash, registry=registry)

    tre_diagram, _ = surgery["trefoil"]
    concrete = family_946(
        k1=tre_diagram,
        k2=tre_diagram,
        registry=registry,
        names=("", "", "trefoil", "trefoil"),
    ).as_dict()
    assert concrete["conclusion"] == "DoublySliceCertified"
    assert replay_certificate(concrete, resolve_hash, registry=registry)
    assert time.monotonic() - start < 120.0


@pytest.mark.curated
def test_09_second_derived_membership_gates(marked946):
    start = time.monotonic()
    _, plain, _ = marked946
    for curve in ("eta1", "eta2"):
        assert second_derived_certificate(plain, plain.curve_words[curve]), curve
    assert not second_derived_certificate(plain, Word.gen(plain.meridian))
    assert time.monotonic() - start < 60.0
