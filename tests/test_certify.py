"""Certificate assembly, the staged lifting verdicts, and replay.

The synthetic presentations here exercise stage B away from diagram
input: stage B's contract is that dropping any single relator keeps the
group, which the caller owns, so the fixtures are chosen with that in
mind (the interesting part is the search, not the topology).
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dslice.bs12 import BS12, BS12_A, BS12_C, Bs12Group, ring_mul
from dslice.bs12 import ring_add as _ring_add, shadow as _shadow
from dslice.certify import (
    CERT_VERSION,
    CERTIFIED,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    NOT_EVALUATED,
    RHO,
    RULE_ATTEMPT,
    RULE_BASE_EXT,
    RULE_DERIVED,
    RULE_FAMILY_FAILS,
    RULE_FAMILY_HOLDS,
    RULE_SPLIT,
    UNDECIDED,
    UNDETERMINED,
    _check_lift,
    _relative_rows,
    _ring_right_inverse,
    _shadow_obstructed,
    _shadow_witness,
    _verify_right_inverse,
    certify_doubly_slice,
    certify_family,
    certify_satellite,
    ext_condition,
    family_946,
    relator_lift,
    replay_certificate,
    stage_b_certificate,
    verify_stage_b,
)
from dslice.cli import cmd_certify
from dslice.corpus import (
    bundled_diagram,
    bundled_document,
    bundled_pattern,
    default_registry,
    resolve_hash,
)
from dslice.diagrams import Diagram, diagram_hash, zero_surgery
from dslice.errors import BudgetExceeded, NoSplitting, RelatorViolation
from dslice.groebner import GroebnerBasis
from dslice.laurent import (
    ONE,
    ZERO,
    DyadicRational,
    LaurentPoly,
    det,
    maximal_minors,
    poly_gcd,
)
from dslice.twisted import MetabelianHom
from dslice.words import GroupPresentation, Word

ID = Bs12Group.identity()

TREFOIL = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
FIG8 = [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)]


def _hom(images, exponent=1):
    return MetabelianHom(tuple(images), exponent, "t-2", True)


def _mat_mul(rows, cols_of):
    out = []
    for row in rows:
        new = []
        for k in range(len(cols_of[0])):
            acc = {}
            for j, e in enumerate(row):
                if e and cols_of[j][k]:
                    acc = _ring_add(acc, ring_mul(e, cols_of[j][k], Bs12Group))
            new.append(acc)
        out.append(new)
    return out


# ------------------------------------------------------- relation lifting


def test_lift_of_defining_relator_is_one():
    assert relator_lift(RHO) == {ID: 1}


def test_lift_of_inverse_is_minus_one():
    assert relator_lift(RHO.inverse()) == {ID: -1}


def test_lift_of_conjugate_is_the_conjugator():
    u = Word(((0, 1), (1, 1)))
    got = relator_lift(u * RHO * u.inverse())
    assert got == {BS12_A * BS12_C: 1}


def test_lift_of_product_sums_conjugators():
    u = Word(((0, 1), (1, 1)))
    w = RHO * (u * RHO * u.inverse())
    assert relator_lift(w) == {ID: 1, BS12_A * BS12_C: 1}


def test_lift_rejects_nontrivial_words():
    for letters in (((0, 1),), ((1, 1),), ((0, 1), (1, 1))):
        with pytest.raises(RelatorViolation):
            relator_lift(Word(letters))


def test_lift_budget_is_enforced():
    u = Word(((0, 1), (1, 1)))
    with pytest.raises(BudgetExceeded):
        relator_lift(u * RHO * u.inverse(), budget=1)


@st.composite
def _rho_products(draw):
    nfac = draw(st.integers(1, 3))
    w = Word.identity()
    for _ in range(nfac):
        conj = draw(st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from((-1, 1))),
            max_size=3,
        ))
        u = Word(tuple(conj))
        eps = draw(st.sampled_from((-1, 1)))
        core = RHO if eps == 1 else RHO.inverse()
        w = w * (u * core * u.inverse())
    return w


@settings(max_examples=25, deadline=None)
@given(_rho_products())
def test_lift_satisfies_fox_chain_identity(word):
    delta = relator_lift(word, budget=200000)
    _check_lift(word, delta)


# ---------------------------------------------------- right inverse search


def test_right_inverse_identity_matrix():
    rows = [[{ID: 1}, {}], [{}, {ID: 1}]]
    y = _ring_right_inverse(rows, 2)
    assert y is not None and _verify_right_inverse(rows, y)


def test_right_inverse_unit_entries():
    rows = [[{}, {BS12_A: 1}], [{BS12_C.inverse(): -1}, {}]]
    y = _ring_right_inverse(rows, 2)
    assert y is not None and _verify_right_inverse(rows, y)


def test_right_inverse_after_elementary_ops():
    # E1 = I + a*e01, E2 = diag(c, 1): the product is right invertible
    e1 = [[{ID: 1}, {BS12_A: 1}], [{}, {ID: 1}]]
    e2 = [[{BS12_C: 1}, {}], [{}, {ID: 1}]]
    rows = _mat_mul(e1, e2)
    y = _ring_right_inverse(rows, 2)
    assert y is not None and _verify_right_inverse(rows, y)


def test_right_inverse_wide_matrix():
    rows = [[{ID: 1}, {BS12_A: 3}, {BS12_C: 1}]]
    y = _ring_right_inverse(rows, 3)
    assert y is not None and _verify_right_inverse(rows, y)


def test_right_inverse_stuck_without_unit_pivot():
    # 2 - c has an invertible shadow but is not a ring unit
    rows = [[{ID: 2, BS12_C: -1}]]
    assert _ring_right_inverse(rows, 1) is None


def test_right_inverse_budget():
    rows = [[{ID: 1}, {}], [{}, {ID: 1}]]
    with pytest.raises(BudgetExceeded):
        _ring_right_inverse(rows, 2, budget=0)


def test_verify_rejects_wrong_witness():
    rows = [[{ID: 1}, {}]]
    assert not _verify_right_inverse(rows, [[{ID: 2}], [{}]])
    assert not _verify_right_inverse(rows, [[{BS12_A: 1}], [{}]])
    assert _verify_right_inverse(rows, [[{ID: 1}], [{BS12_C: 5}]])


# ------------------------------------------------------- commutative shadow


def _naive_det(mat):
    k = len(mat)
    total = LaurentPoly({})
    for perm in itertools.permutations(range(k)):
        sign = 1
        seen = list(perm)
        for i in range(k):
            for j in range(i + 1, k):
                if seen[i] > seen[j]:
                    sign = -sign
        term = LaurentPoly({0: sign})
        for i in range(k):
            term = term * mat[i][perm[i]]
        total = total + term
    return total


def test_shadow_forgets_the_dyadic_part():
    x = {BS12_A: 2, BS12_A * BS12_C: 1, BS12_C: -3, ID: 1}
    assert _shadow(x) == LaurentPoly({1: 3, 0: -2})


def test_shadow_det_matches_naive_expansion():
    import random

    rng = random.Random(7)
    for _ in range(20):
        k = rng.choice((2, 3))
        mat = [
            [
                LaurentPoly({
                    d: rng.randint(-2, 2) for d in range(rng.randint(0, 3))
                })
                for _ in range(k)
            ]
            for _ in range(k)
        ]
        assert det(mat) == _naive_det(mat)


def test_shadow_obstruction_tall_matrix():
    assert _shadow_obstructed([[{ID: 1}], [{ID: 1}]], 1)


def test_shadow_obstruction_square():
    assert not _shadow_obstructed([[{BS12_A: 1}]], 1)
    assert _shadow_obstructed([[{ID: 2, BS12_C: 1}]], 1)


def test_shadow_obstruction_wide():
    # minors 2 and 3 generate the unit ideal in Z, so no obstruction
    assert not _shadow_obstructed([[{ID: 2}, {ID: 3}]], 2)
    assert _shadow_obstructed([[{ID: 2}, {ID: 4}]], 2)
    assert _shadow_obstructed([[{}, {}]], 2)


def _lift(poly: LaurentPoly) -> dict:
    """A group-ring entry with shadow ``poly``; its dyadic parts die."""
    return {BS12(k, DyadicRational(k)): c for k, c in poly.coeffs.items()}


def _lifted(image):
    return [[_lift(p) for p in row] for row in image]


def _poly(*coeffs) -> LaurentPoly:
    return LaurentPoly(dict(enumerate(coeffs)))


def _gcd_obstructed(image, ncols: int) -> bool:
    """Reference: the maximal minors of the shadow share a nonunit factor."""
    g = ZERO
    for d in maximal_minors(image, itertools.combinations(range(ncols), len(image))):
        g = poly_gcd(g, d)
    return not g.is_unit()


def test_shadow_gate_sees_minors_with_unit_gcd():
    # minors 2 and 1 + t have gcd 1 but lie in the maximal ideal (2, t - 1)
    rows = _lifted([[_poly(2), _poly(1, 1)]])
    assert not _gcd_obstructed([[_poly(2), _poly(1, 1)]], 2)
    assert _shadow_witness(rows) == (2, 1)
    assert _shadow_obstructed(rows, 2)
    # (2, t^2 + t + 1) is maximal with residue field F_4: no point of a
    # prime field is a witness, and the exact membership test decides
    rows = _lifted([[_poly(2), _poly(1, 1, 1)]])
    assert _shadow_witness(rows) is None
    assert _shadow_obstructed(rows, 2)


def test_shadow_gate_decides_many_column_subsets():
    # 3 x 10 has 120 column subsets; the first row vanishes at t = 2
    rng = random.Random(5)
    image = [
        [_poly(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(10)]
        for _ in range(3)
    ]
    image[0] = [p * _poly(-2, 1) for p in image[0]]
    assert _shadow_witness(_lifted(image)) == (3, 2)
    assert _shadow_obstructed(_lifted(image), 10)


def test_shadow_gate_passes_right_invertible_shadows():
    assert _shadow_witness([[{ID: 2}, {ID: 3}]]) is None
    assert not _shadow_obstructed([[{ID: 2}, {ID: 3}]], 2)
    # (1 - t)(1 + t) + t^2 = 1, and minors 2, 3 and 3t generate Lambda
    for image in (
        [[_poly(1, -1), _poly(0, 0, 1)]],
        [[ONE, _poly(0, 1), ZERO], [ZERO, _poly(2), _poly(3)]],
    ):
        assert not _shadow_obstructed(_lifted(image), len(image[0]))


def _random_shadows(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 3)
        ncols = m + rng.randint(0, 2)
        yield [
            [
                LaurentPoly({
                    rng.randint(-1, 1): rng.randint(-2, 2)
                    for _ in range(rng.randint(0, 2))
                })
                for _ in range(ncols)
            ]
            for _ in range(m)
        ], ncols


def test_shadow_gate_is_exact_on_random_shadows():
    passed = 0
    for image, ncols in _random_shadows(11, 150):
        m = len(image)
        obstructed = _shadow_obstructed(_lifted(image), ncols)
        if _gcd_obstructed(image, ncols):
            assert obstructed
        if obstructed:
            continue
        # rebuild a right inverse Y from the coordinates of each unit vector
        # in the column module, and check image * Y = identity
        passed += 1
        columns = list(zip(*image))
        basis = GroebnerBasis(columns, m, track=True)
        y = [[ZERO] * m for _ in range(ncols)]
        for i in range(m):
            normal_form, coords = basis.reduce(
                [ONE if r == i else ZERO for r in range(m)]
            )
            assert not normal_form
            for j, c in coords.items():
                y[j][i] = c
        for i in range(m):
            for k in range(m):
                acc = ZERO
                for j in range(ncols):
                    acc = acc + image[i][j] * y[j][k]
                assert acc == (ONE if i == k else ZERO)
    assert passed > 20


# ----------------------------------------------------------------- stage B


def test_stage_b_holds_on_killable_generator():
    pres = GroupPresentation(("m", "y"), (Word(((1, 1),)),))
    v = stage_b_certificate(pres, 0, _hom((BS12_A, ID)))
    assert v["status"] == HOLDS
    assert v["evidence"]["kind"] == "GeneralAttempt"
    assert v["evidence"]["log"]["method"] == "deleted"


def test_stage_b_stuck_reports_no_witness():
    r1 = Word(((0, 1), (1, 1), (0, -1), (1, -1), (1, -1)))
    r2 = Word(((0, 1), (0, 1), (1, 1), (0, -1), (1, -1), (0, -1), (1, -1)))
    pres = GroupPresentation(("m", "y"), (r1, r2))
    v = stage_b_certificate(pres, 0, _hom((BS12_C, ID), exponent=0))
    assert v["status"] == UNDETERMINED
    assert v["reason"] == "no unit-pivot witness found"


def test_stage_b_budget_is_monotone():
    r1 = Word(((1, 1),))
    r2 = Word(((0, 1), (1, 1), (0, -1)))
    pres = GroupPresentation(("m", "y"), (r1, r2))
    hom = _hom((BS12_A, ID))
    seen = []
    for budget in (0, 1, 10, 1000):
        v = stage_b_certificate(pres, 0, hom, solve_budget=budget)
        seen.append(v["status"])
    assert seen[0] == UNDETERMINED and seen[-1] == HOLDS
    # once the search succeeds, more budget never loses the witness
    first_hold = seen.index(HOLDS)
    assert all(s == HOLDS for s in seen[first_hold:])
    low = stage_b_certificate(pres, 0, hom, solve_budget=0)
    assert low["reason"] == "budget"


def test_stage_b_relative_rows_satisfy_chain_identity():
    pres = GroupPresentation(("m", "y"), (RHO,))
    hom = _hom((BS12_A, BS12_C))
    rows = _relative_rows(pres, hom, [[
        {ID: 1, BS12_C: -2},
        {BS12_A: 1, BS12_C: -1, ID: -1},
    ]], 20000)
    assert len(rows) == 1 and len(rows[0]) == 3
    assert rows[0][2] == {ID: 1}


def test_stage_b_relative_method_finds_unit_lift_column():
    # deleted candidates all have nonunit shadows; the lift column does it
    u = Word(((0, 1),))
    pres = GroupPresentation(
        ("m", "y"), (RHO, u * RHO * u.inverse())
    )
    hom = _hom((BS12_A, BS12_C))
    v = stage_b_certificate(pres, 0, hom)
    assert v["status"] == HOLDS
    assert v["evidence"]["log"]["method"] == "relative"


def test_stage_b_relative_lift_budget_surfaces_as_budget():
    u = Word(((0, 1),))
    pres = GroupPresentation(
        ("m", "y"), (RHO, u * RHO * u.inverse())
    )
    hom = _hom((BS12_A, BS12_C))
    v = stage_b_certificate(pres, 0, hom, lift_budget=0)
    assert v["status"] == UNDETERMINED
    assert v["reason"] == "budget"


def test_stage_b_empty_presentation_holds():
    pres = GroupPresentation(("m",), ())
    v = stage_b_certificate(pres, 0, _hom((BS12_A,)))
    assert v["status"] == HOLDS


def test_verify_stage_b_rejects_foreign_evidence():
    d, plain, _ = bundled_pattern("946")
    assert not verify_stage_b(plain, "P1", {
        "status": HOLDS, "evidence": {"kind": "ClosedFormFamily"},
    })
    assert not verify_stage_b(plain, "P1", {
        "status": UNDETERMINED, "evidence": {"kind": "GeneralAttempt"},
    })
    assert not verify_stage_b(plain, "P1", {
        "status": HOLDS,
        "evidence": {"kind": "GeneralAttempt",
                     "log": {"method": "deleted", "dropped": None,
                             "witness": []}},
    })


# ----------------------------------------------------- staged ext verdicts


def test_ext_condition_validates_summand_tag():
    _, plain, _ = bundled_pattern("946")
    with pytest.raises(ValueError):
        ext_condition(plain, "P3")


def test_ext_condition_requires_certified_splitting():
    plain = zero_surgery(Diagram(TREFOIL), 0)
    with pytest.raises(NoSplitting):
        ext_condition(plain, "P1")


def test_ext_condition_stage_a_registry_hit():
    d, plain, _ = bundled_pattern("946")
    h = diagram_hash(d)
    v = ext_condition(plain, "P1", subject_hash=h, registry=default_registry())
    assert v["status"] == HOLDS
    assert v["evidence"]["kind"] == "ClosedFormFamily"
    assert v["evidence"]["rule"] == RULE_BASE_EXT


def test_ext_condition_registry_keys_on_hash_not_name():
    # a registry row for a different diagram must not fire
    d, plain, _ = bundled_pattern("946")
    wrong = {"ext": {diagram_hash(Diagram(TREFOIL)): {
        "P1": {"status": HOLDS, "rule": RULE_BASE_EXT},
        "P2": {"status": HOLDS, "rule": RULE_BASE_EXT},
    }}}
    v = ext_condition(
        plain, "P1", subject_hash=diagram_hash(d), registry=wrong
    )
    assert v["status"] == UNDETERMINED


def test_ext_condition_stage_b_shadow_reason_on_bundled_pattern():
    _, plain, _ = bundled_pattern("946")
    for tag in ("P1", "P2"):
        v = ext_condition(plain, tag)
        assert v["status"] == UNDETERMINED
        assert v["reason"] == "commutative shadow obstructs every candidate matrix"


def test_ext_condition_meridian_arc_invariance():
    # every arc generator is a conjugate meridian, so the verdict cannot
    # depend on which one anchors the computation
    from dataclasses import replace

    d, plain, _ = bundled_pattern("946")
    h = diagram_hash(d)
    got_a = set()
    got_b = set()
    for arc in (plain.meridian, 3, 7):
        variant = replace(plain, meridian=arc)
        v = ext_condition(variant, "P2", subject_hash=h,
                          registry=default_registry())
        got_a.add((v["status"], v["evidence"]["kind"]))
        w = ext_condition(variant, "P2")
        got_b.add((w["status"], w["reason"]))
    assert got_a == {(HOLDS, "ClosedFormFamily")}
    assert got_b == {
        (UNDETERMINED, "commutative shadow obstructs every candidate matrix")
    }


# ------------------------------------------------------- knot certificates


def test_certify_builds_the_abelian_data_once(monkeypatch):
    # every stage reads the weights and the Lambda-Jacobian from the one
    # surgery presentation; count the calls through every module binding
    import sys

    from dslice import modules

    calls = []

    def counting(fname):
        inner = getattr(modules, fname)

        def wrapper(*args, **kwargs):
            calls.append(fname)
            return inner(*args, **kwargs)
        return inner, wrapper

    for fname in ("infinite_cyclic_weights", "fox_jacobian"):
        inner, wrapper = counting(fname)
        for name, module in list(sys.modules.items()):
            if name.startswith("dslice") and getattr(module, fname, None) is inner:
                monkeypatch.setattr(module, fname, wrapper)
    # the mirror of 9_46 is unregistered, so stage B runs on both summands
    pd = bundled_document("946")["pd"]
    mirror = Diagram([(a, d, c, b) for a, b, c, d in pd])
    cert = certify_doubly_slice(mirror, registry=None)
    assert [v["status"] for v in cert.verdicts.values()] == [UNDETERMINED] * 2
    assert sorted(calls) == ["fox_jacobian", "infinite_cyclic_weights"]


def test_certify_bundled_pattern_is_certified():
    cert = certify_doubly_slice(
        bundled_diagram("946"), name="9_46", registry=default_registry()
    )
    assert cert.conclusion == CERTIFIED
    assert cert.version == CERT_VERSION
    assert {v["status"] for v in cert.verdicts.values()} == {HOLDS}
    assert RULE_SPLIT in cert.citations
    assert RULE_BASE_EXT in cert.citations
    assert cert.subject["hash"] == diagram_hash(bundled_diagram("946"))


def test_certify_without_registry_is_undetermined():
    cert = certify_doubly_slice(bundled_diagram("946"))
    assert cert.conclusion == UNDECIDED
    assert {v["status"] for v in cert.verdicts.values()} == {UNDETERMINED}


def test_certify_non_split_knots_not_applicable():
    for code in (TREFOIL, FIG8, [(1, 2, 2, 1)]):
        cert = certify_doubly_slice(Diagram(code), registry=default_registry())
        assert cert.conclusion == NOT_APPLICABLE
        assert {v["status"] for v in cert.verdicts.values()} == {NOT_EVALUATED}


def test_certify_records_hypotheses():
    cert = certify_doubly_slice(
        bundled_diagram("946"), registry=default_registry()
    )
    text = "\n".join(cert.hypotheses)
    assert "order matches (t-2)(2t-1) up to units: True" in text
    assert "P1 True, P2 True" in text
    assert "cover homology cross-check" in text


def test_certificate_serialization_round_trip():
    import json

    cert = certify_doubly_slice(
        bundled_diagram("946"), registry=default_registry()
    )
    blob = cert.to_json()
    assert json.loads(blob) == cert.as_dict()
    assert blob == cert.to_json()


def test_certify_relabeled_diagram_same_outcome():
    d = bundled_diagram("946")
    shift = max(max(c) for c in d.crossings)
    relabeled = Diagram(
        [tuple(e % shift + 1 for e in c) for c in d.crossings],
        signs=list(d.signs),
    )
    assert diagram_hash(relabeled) == diagram_hash(d)
    cert = certify_doubly_slice(relabeled, registry=default_registry())
    assert cert.conclusion == CERTIFIED


# -------------------------------------------------- satellite certificates


@pytest.fixture(scope="module")
def base_and_plain():
    d, plain, name = bundled_pattern("946")
    base = certify_doubly_slice(d, name=name, registry=default_registry())
    return base, plain


def test_satellite_any_companion_on_derived_curve(base_and_plain):
    base, plain = base_and_plain
    cert = certify_satellite(base, plain, "eta1")
    assert cert.conclusion == CERTIFIED
    assert cert.subject["companion"] == "AnyKnot"
    assert RULE_DERIVED in cert.citations
    recs = cert.verdicts["P1"]["evidence"]["records"]
    assert recs[0]["second_derived"] is True


def test_satellite_concrete_companion_on_derived_curve(base_and_plain):
    base, plain = base_and_plain
    cert = certify_satellite(
        base, plain, "eta2", Diagram(TREFOIL), companion_name="trefoil"
    )
    assert cert.conclusion == CERTIFIED
    assert cert.subject["companion"]["name"] == "trefoil"


def test_satellite_doubled_companion_on_homology_curve(base_and_plain):
    base, plain = base_and_plain
    cert = certify_satellite(
        base, plain, "gamma1", companion_kind="doubled"
    )
    assert cert.conclusion == CERTIFIED
    assert cert.subject["companion"] == "DoubledAnyKnot"
    assert RULE_TRIVIAL_CITED(cert)


def RULE_TRIVIAL_CITED(cert):
    from dslice.certify import RULE_TRIVIAL

    return RULE_TRIVIAL in cert.citations


def test_satellite_any_companion_needs_derived_curve(base_and_plain):
    base, plain = base_and_plain
    cert = certify_satellite(base, plain, "gamma1")
    assert cert.conclusion == NOT_APPLICABLE


def test_satellite_meridian_curve_rejected(base_and_plain):
    base, plain = base_and_plain
    cert = certify_satellite(base, plain, "meridian")
    assert cert.conclusion == NOT_APPLICABLE
    assert any("winding" in h for h in cert.hypotheses)


def test_satellite_requires_certified_base(base_and_plain):
    _, plain = base_and_plain
    weak_base = certify_doubly_slice(bundled_diagram("946"))
    cert = certify_satellite(weak_base, plain, "eta1")
    assert cert.conclusion == NOT_APPLICABLE


# ----------------------------------------------------- family certificates


def test_family_all_symbolic(base_and_plain):
    cert = family_946()
    assert cert.conclusion == CERTIFIED
    assert {v["status"] for v in cert.verdicts.values()} == {HOLDS}
    assert RULE_FAMILY_HOLDS in cert.citations
    kinds = [i["kind"] for i in cert.subject["infections"]]
    assert kinds == ["doubled", "doubled", "any", "any"]


def test_family_concrete_slots():
    cert = family_946(
        k1=Diagram(TREFOIL), k2=Diagram(FIG8),
        names=("", "", "trefoil", "figure8"),
    )
    assert cert.conclusion == CERTIFIED
    names = [i["name"] for i in cert.subject["infections"]]
    assert names[2:] == ["trefoil", "figure8"]


def test_family_curated_failure_rule(base_and_plain):
    base, plain = base_and_plain
    d946 = bundled_diagram("946")
    cert = certify_family(
        plain, base.subject["hash"], base,
        [
            {"curve": "gamma1", "companion": d946, "name": "9_46",
             "kind": "concrete"},
            {"curve": "gamma2", "companion": d946, "name": "9_46",
             "kind": "concrete"},
        ],
        registry=default_registry(),
    )
    assert cert.conclusion == INCONCLUSIVE
    assert {v["status"] for v in cert.verdicts.values()} == {FAILS}
    assert cert.citations == [RULE_FAMILY_FAILS]
    text = "\n".join(cert.hypotheses)
    assert "sufficient, not necessary" in text


def test_family_single_homology_curve_is_not_decided(base_and_plain):
    base, plain = base_and_plain
    cert = certify_family(
        plain, base.subject["hash"], base,
        [{"curve": "gamma1", "companion": Diagram(TREFOIL),
          "name": "trefoil", "kind": "concrete"}],
        registry=default_registry(),
    )
    assert cert.conclusion == NOT_APPLICABLE


def test_family_trivial_order_companion_on_homology_curve(base_and_plain):
    base, plain = base_and_plain
    kink = Diagram([(1, 2, 2, 1)])
    cert = certify_family(
        plain, base.subject["hash"], base,
        [{"curve": "gamma1", "companion": kink, "name": "unknot",
          "kind": "concrete"}],
        registry=default_registry(),
    )
    assert cert.conclusion == CERTIFIED


# ------------------------------------------------------------------ replay


def test_replay_knot_certificate():
    cert = certify_doubly_slice(
        bundled_diagram("946"), name="9_46", registry=default_registry()
    )
    assert replay_certificate(
        cert.as_dict(), resolve_hash, registry=default_registry()
    )


def test_replay_detects_conclusion_tampering():
    cert = certify_doubly_slice(
        bundled_diagram("946"), name="9_46", registry=default_registry()
    ).as_dict()
    bad = dict(cert)
    bad["conclusion"] = UNDECIDED
    assert not replay_certificate(bad, resolve_hash, registry=default_registry())


def test_replay_detects_verdict_tampering():
    import copy

    cert = certify_doubly_slice(
        bundled_diagram("946"), registry=default_registry()
    ).as_dict()
    bad = copy.deepcopy(cert)
    bad["verdicts"]["P1"]["status"] = UNDETERMINED
    bad["conclusion"] = UNDECIDED
    assert not replay_certificate(bad, resolve_hash, registry=default_registry())


def test_replay_rejects_unknown_version():
    cert = certify_doubly_slice(
        bundled_diagram("946"), registry=default_registry()
    ).as_dict()
    cert["version"] = "dslice-certificate/0"
    assert not replay_certificate(cert, resolve_hash, registry=default_registry())


def test_replay_rejects_unresolvable_subject():
    cert = certify_doubly_slice(
        bundled_diagram("946"), registry=default_registry()
    ).as_dict()
    assert not replay_certificate(cert, lambda h: None, registry=default_registry())


def test_replay_satellite_and_family(base_and_plain):
    base, plain = base_and_plain
    reg = default_registry()
    sat = certify_satellite(base, plain, "eta1")
    assert replay_certificate(sat.as_dict(), resolve_hash, registry=reg)
    fam = family_946(k1=bundled_diagram("trefoil"), names=("", "", "3_1", ""))
    assert replay_certificate(fam.as_dict(), resolve_hash, registry=reg)


def test_replay_family_detects_companion_swap(base_and_plain):
    base, plain = base_and_plain
    reg = default_registry()
    d946 = bundled_diagram("946")
    cert = certify_family(
        plain, base.subject["hash"], base,
        [
            {"curve": "gamma1", "companion": d946, "kind": "concrete"},
            {"curve": "gamma2", "companion": d946, "kind": "concrete"},
        ],
        registry=reg,
    ).as_dict()
    # swapping the curated companions for ones with trivial order must
    # flip the replayed conclusion, so validation fails
    kink_hash = diagram_hash(Diagram([(1, 2, 2, 1)]))
    for inf in cert["subject"]["infections"]:
        inf["hash"] = kink_hash

    def resolve(h):
        if h == kink_hash:
            return Diagram([(1, 2, 2, 1)])
        return resolve_hash(h)

    assert not replay_certificate(cert, resolve, registry=reg)


# ------------------------------------------------------- replay: tampering


def _stored(cert):
    """A certificate as it is read back from its JSON."""
    return json.loads(cert.to_json())


def _mirror_946():
    pd = bundled_document("946")["pd"]
    return Diagram([(a, d, c, b) for a, b, c, d in pd])


@pytest.fixture(scope="module")
def stored(base_and_plain):
    base, plain = base_and_plain
    trefoil = bundled_diagram("trefoil")
    rrr, _ = cmd_certify(bundled_document("r-rr"), (2, 3), 300000, "json")
    return {
        "knot": _stored(base),
        "satellite": _stored(certify_satellite(
            base, plain, "eta1", trefoil, companion_name="trefoil",
        )),
        "family": _stored(family_946(k1=trefoil, names=("", "", "3_1", ""))),
        "family r-rr": json.loads(rrr),
    }


def _set(*path_and_value):
    """An edit that sets the value at a path of keys and indices."""
    *path, value = path_and_value

    def edit(cert):
        node = cert
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _forge_hypothesis(cert):
    cert["hypotheses"].append("curve gamma3: winding 0")


TREFOIL_HASH = diagram_hash(bundled_diagram("trefoil"))
FIGURE8_HASH = diagram_hash(bundled_diagram("figure8"))

TAMPERS = {
    "knot": {
        "subject hash": _set("subject", "hash", TREFOIL_HASH),
        "subject kind": _set("subject", "kind", "satellite"),
        "hypothesis line": _set("hypotheses", 0, "module order: 1"),
        "citations": _set("citations", []),
        "evidence rule": _set(
            "verdicts", "P1", "evidence", "rule", RULE_FAMILY_HOLDS),
        "inputs": _set("inputs", "diagram", TREFOIL_HASH),
        "added key": _set("note", "checked by hand"),
        "added nested key": _set("verdicts", "P2", "reason", "none"),
    },
    "satellite": {
        "subject hash": _set("subject", "pattern", TREFOIL_HASH),
        "subject kind": _set("subject", "kind", "knot"),
        "hypothesis line": _set(
            "hypotheses", 1, "infection curve winding number: 1"),
        "citations": _set("citations", []),
        "transport record": _set(
            "verdicts", "P1", "evidence", "records", 0, "second_derived",
            False),
        "inputs": _set("inputs", "companion", FIGURE8_HASH),
        "added key": _set("note", "checked by hand"),
    },
    "family": {
        "subject hash": _set("subject", "pattern", "hash", TREFOIL_HASH),
        "subject kind": _set("subject", "kind", "satellite"),
        "hypothesis line": _set(
            "hypotheses", 0, "base pattern verdicts both hold: False"),
        "citations": _set("citations", []),
        "transport record": _set(
            "verdicts", "P2", "evidence", "records", 2, "winding", 1),
        "inputs": _set("inputs", "companions", 2, None),
        "added key": _set("note", "checked by hand"),
    },
    "family r-rr": {
        "forged hypothesis": _forge_hypothesis,
        "evidence rule": _set(
            "verdicts", "P1", "evidence", "rule", RULE_FAMILY_HOLDS),
        "citations": _set("citations", []),
        "subject hash": _set(
            "subject", "infections", 1, "hash", FIGURE8_HASH),
    },
}


@pytest.mark.parametrize("kind", sorted(TAMPERS))
def test_replay_accepts_each_genuine_certificate(stored, kind):
    assert replay_certificate(
        stored[kind], resolve_hash, registry=default_registry()
    )


@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind in sorted(TAMPERS) for field in TAMPERS[kind]
])
def test_replay_rejects_each_tampered_field(stored, kind, field):
    import copy

    cert = copy.deepcopy(stored[kind])
    TAMPERS[kind][field](cert)
    assert cert != stored[kind]
    assert not replay_certificate(cert, resolve_hash, registry=default_registry())


@pytest.mark.parametrize("kind, edit", [
    ("knot", _set("subject", "name", "renamed")),
    ("satellite", _set("subject", "companion", "name", "renamed")),
    ("family", _set("subject", "pattern", "name", "renamed")),
    ("family", _set("subject", "infections", 2, "name", "renamed")),
], ids=["knot", "satellite companion", "family pattern", "family slot"])
def test_replay_accepts_renamed_labels(stored, kind, edit):
    # names are labels: the renamed certificate is the one the CLI prints
    # for the same diagrams under the new names
    import copy

    cert = copy.deepcopy(stored[kind])
    edit(cert)
    assert replay_certificate(cert, resolve_hash, registry=default_registry())


def test_replay_accepts_a_certificate_at_another_quotient():
    text, _ = cmd_certify(bundled_document("946"), (3, 7), 300000, "json")
    cert = json.loads(text)
    assert "metabelian quotient maps at (3,7): 49" in cert["hypotheses"]
    assert replay_certificate(cert, resolve_hash, registry=default_registry())


def _without_pattern(stored):
    cert = json.loads(json.dumps(stored["satellite"]))
    del cert["inputs"]["pattern"]
    return cert


def _forged_quotient(stored):
    cert = json.loads(json.dumps(stored["knot"]))
    cert["hypotheses"] = [
        "metabelian quotient maps at (0,0): 27"
        if h.startswith("metabelian quotient maps") else h
        for h in cert["hypotheses"]
    ]
    return cert


def _null_subject(stored):
    cert = json.loads(json.dumps(stored["knot"]))
    cert["subject"] = None
    return cert


@pytest.mark.parametrize("make", [
    lambda stored: {"version": CERT_VERSION},
    _without_pattern,
    _null_subject,
    _forged_quotient,
    lambda stored: None,
], ids=["version only", "satellite without pattern", "null subject",
        "quotient (0,0)", "not a dict"])
def test_replay_returns_false_instead_of_raising(stored, make):
    replayed = replay_certificate(
        make(stored), resolve_hash, registry=default_registry()
    )
    assert replayed is False


# a stage-B verdict carrying a witness; no bundled knot reaches one, so
# stage B is stubbed to return it
_STUB_WITNESS = {
    "status": HOLDS,
    "evidence": {"kind": "GeneralAttempt", "log": {
        "method": "deleted", "dropped": None, "witness": [[[[0, 1, 0, 1]]]],
    }},
}


@pytest.fixture
def stubbed_stage_b(monkeypatch):
    """The 9_46 mirror's certificate, with stage B stubbed, and a resolver."""
    import copy

    from dslice import certify

    monkeypatch.setattr(
        certify, "stage_b_certificate",
        lambda *args, **kwargs: copy.deepcopy(_STUB_WITNESS),
    )
    mirror = _mirror_946()
    cert = _stored(certify_doubly_slice(mirror, registry=default_registry()))
    assert cert["conclusion"] == CERTIFIED

    def resolve(h):
        return mirror if h == diagram_hash(mirror) else resolve_hash(h)
    return cert, resolve


def test_replay_rejects_an_edited_witness_entry(stubbed_stage_b, monkeypatch):
    from dslice import certify

    cert, resolve = stubbed_stage_b
    checked = []
    monkeypatch.setattr(
        certify, "verify_stage_b",
        lambda plain, tag, verdict: checked.append(tag) or True,
    )
    assert replay_certificate(cert, resolve, registry=default_registry())
    assert checked == ["P1", "P2"]
    cert["verdicts"]["P2"]["evidence"]["log"]["witness"][0][0][0][3] = -1
    assert not replay_certificate(cert, resolve, registry=default_registry())


def test_replay_remultiplies_stage_b_witnesses(stubbed_stage_b):
    # the rebuilt certificate matches, but the witness is no right inverse
    cert, resolve = stubbed_stage_b
    assert not replay_certificate(cert, resolve, registry=default_registry())


def test_certify_builds_one_stage_b_presentation(monkeypatch):
    import importlib

    import dslice.words as words

    inner = words.fox_row
    calls = []

    def counting(word, n, images, target):
        calls.append((word, n, target))
        return inner(word, n, images, target)

    # count passes through every module-level binding of fox_row
    for name in ("words", "modules", "groups", "twisted", "certify"):
        module = importlib.import_module(f"dslice.{name}")
        if getattr(module, "fox_row", None) is inner:
            monkeypatch.setattr(module, "fox_row", counting)
    mirror = _mirror_946()
    cert = certify_doubly_slice(mirror, registry=None)
    assert cert.conclusion == UNDECIDED
    plain = zero_surgery(mirror, 0)
    relators = plain.group.relators
    stage_b = plain.stage_b_group.relators
    assert (len(relators), len(stage_b)) == (10, 9)
    # One pass per relator and map.  The surgery presentation (10
    # relators on 9 generators) is pushed into Lambda once (10), into
    # BS(1,2) once per summand by the specialization check (2 x 10), and
    # into Z/2 x| Z/3 for the one cross-checked quotient map (10).  Stage
    # B pushes the one stage-B presentation, the framing relator dropped
    # (9 relators), into BS(1,2) once per summand (2 x 9), and checks one
    # relation lift per stage-B relator and summand, each a 2-generator
    # pass over a word in a and c (2 x 9).  10 + 20 + 10 + 18 + 18 = 76.
    assert len(calls) == 76
    wide = [w for w, n, _ in calls if n == 9]
    assert sorted(map(repr, wide)) == sorted(
        map(repr, 4 * relators + 2 * stage_b)
    )
    lifts = [t for _, n, t in calls if n == 2]
    assert len(lifts) == 18 and set(lifts) == {Bs12Group}
