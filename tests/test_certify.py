"""Certificate assembly, the staged lifting verdicts, and replay."""

import hashlib
import itertools
import json
from dataclasses import replace
from random import Random

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from dslice import certify, diagrams
from dslice.bs12 import BS12_A, BS12_C, Bs12Group
from dslice.certify import (
    CERT_VERSION,
    CERTIFIED,
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    NOT_EVALUATED,
    RHO,
    RULE_BASE_EXT,
    RULE_DERIVED,
    RULE_FAMILY_FAILS,
    RULE_FAMILY_HOLDS,
    RULE_SPLIT,
    UNDECIDED,
    UNDETERMINED,
    certify_doubly_slice,
    certify_family,
    certify_satellite,
    ext_condition,
    family_946,
    relator_lift,
    replay_certificate,
    satellite_request,
    stage_b_certificate,
)
from dslice.cli import cmd_analyze, cmd_certify, cmd_satellite
from dslice.corpus import (
    bundled_diagram,
    bundled_document,
    bundled_pattern,
    default_registry,
    resolve_hash,
)
from dslice.diagrams import Diagram, diagram_hash, zero_surgery
from dslice.documents import diagram_from_document
from dslice.errors import (
    BudgetExceeded,
    MalformedInput,
    NoSplitting,
    RelatorViolation,
    VerificationFailed,
)
from dslice.laurent import LaurentPoly, maximal_minors
from dslice.modules import _Degree, fox_jacobian
from dslice.twisted import summand_specialization_check
from dslice.words import GroupPresentation, Word, fox_row, fox_rows, ring_mul

ID = Bs12Group.identity()

TREFOIL = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
FIG8 = [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)]


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
    # the lift reproduces the word's Fox vector: a chain-map identity
    delta = relator_lift(word, budget=200000)
    images = (BS12_A, BS12_C)
    rho_fox = fox_row(RHO, 2, images, Bs12Group)
    assert fox_row(word, 2, images, Bs12Group) == tuple(
        ring_mul(delta, f, Bs12Group) for f in rho_fox
    )


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


def _shadow(x):
    """Image of a Z[BS(1,2)] element in Lambda under (k, q) -> t^k."""
    out = {}
    for g, c in x.items():
        out[g.k] = out.get(g.k, 0) + c
    return LaurentPoly(out)


def test_shadow_forgets_the_dyadic_part():
    x = {BS12_A: 2, BS12_A * BS12_C: 1, BS12_C: -3, ID: 1}
    assert _shadow(x) == LaurentPoly({1: 3, 0: -2})


def _shadowed_check(plain, hom):
    # the specialisation check as it was stated: Fox rows in Z[BS(1,2)],
    # each entry shadowed, against the full Jacobian or its mirror
    want = tuple(fox_jacobian(plain.group, plain.weights))
    if hom.merid_exponent == -1:
        want = tuple(tuple(p.mirror() for p in row) for row in want)
    rows = fox_rows(plain.group, hom.images, Bs12Group)
    return tuple(tuple(_shadow(e) for e in row) for row in rows) == want


def test_specialization_through_t_k_matches_the_shadowed_rows():
    for diagram in (bundled_diagram("946"), _mirror_946()):
        plain = zero_surgery(diagram, 0)
        for hom in plain.summands:
            assert summand_specialization_check(plain, hom)
            assert _shadowed_check(plain, hom)
            # the wrong meridian exponent, and images whose exponents are
            # not the weights, fail both ways
            flipped = replace(hom, merid_exponent=-hom.merid_exponent)
            shifted = replace(hom, images=(BS12_A * hom.images[0],) + hom.images[1:])
            for bad in (flipped, shifted):
                assert not summand_specialization_check(plain, bad)
                assert not _shadowed_check(plain, bad)


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
        assert next(maximal_minors(mat, [range(k)])) == _naive_det(mat)


# ----------------------------------------------------------------- stage B

SHADOW_REASON = "commutative shadow obstructs every candidate matrix"


def _rank_at_two_mod_three(rows) -> int:
    # sympy's elimination over GF(3), apart from the package's own
    f3 = sympy.GF(3)
    mat = [[f3(p.evaluate_mod(2, 3)) for p in row] for row in rows]
    return DomainMatrix(mat, (len(mat), len(mat[0])), f3).rank()


@pytest.mark.parametrize("seed", [None, 1, 2, 3],
                         ids=["9_46", "seed 1", "seed 2", "seed 3"])
def test_stage_b_rank_bound_on_split_knots(workloads, seed):
    # 9_46 itself, or the mirror and seeded kinks the benchmark certifies
    if seed is None:
        inputs = [("9_46", bundled_diagram("946"))]
    else:
        docs = workloads.unregistered_documents(
            seed, bundled_document("946"), diagram_from_document,
            diagram_hash, default_registry()["ext"],
        )
        inputs = [(tag, diagram_from_document(doc)[0]) for tag, doc in docs]
    for tag, d in inputs:
        plain = zero_surgery(d, 0)
        n = plain.group.num_generators
        framing = plain.group.relators.count(plain.longitude)
        assert len(plain.group.relators) - framing >= n, tag
        # M (x) F_3 = F_3^2 at t = 2 leaves the module's matrix rank n - 3;
        # Fox's fundamental formula keeps the meridian column in the span
        jacobian = fox_jacobian(plain.group, plain.weights)
        deleted = [
            [p for j, p in enumerate(row) if j != plain.meridian]
            for row in jacobian
        ]
        assert _rank_at_two_mod_three(deleted) == n - 3, tag
        assert _rank_at_two_mod_three(jacobian) == n - 3, tag
        want = {"status": UNDETERMINED, "evidence": {"kind": "None"},
                "reason": SHADOW_REASON}
        assert stage_b_certificate(plain) == want, tag
        cert = certify_doubly_slice(d, registry=None)
        assert cert.verdicts == {"P1": want, "P2": want}, tag


def test_certify_runs_stage_b_once_for_both_summands(monkeypatch):
    # stage B does not depend on the summand: one call serves every
    # summand without a registry row, each with its own equal copy
    d = bundled_diagram("946")
    h = diagram_hash(d)
    calls = []
    inner = certify.stage_b_certificate

    def counting(plain):
        calls.append(plain)
        return inner(plain)

    monkeypatch.setattr(certify, "stage_b_certificate", counting)
    row = default_registry()["ext"][h]
    for registry, want_calls in (
        (None, 1), ({"ext": {h: {"P1": row["P1"]}}}, 1), (default_registry(), 0)
    ):
        calls.clear()
        plain = zero_surgery(d, 0)
        cert = certify_doubly_slice(d, registry=registry, plain=plain)
        assert len(calls) == want_calls
        for tag in ("P1", "P2"):
            assert cert.verdicts[tag] == ext_condition(
                plain, tag, subject_hash=h, registry=registry
            )
    cert = certify_doubly_slice(d, registry=None)
    p1, p2 = cert.verdicts["P1"], cert.verdicts["P2"]
    assert p1 == p2 and p1 is not p2 and p1["evidence"] is not p2["evidence"]


# The witness pair ``analyze`` reports, as {column: coefficient} over the
# full module's columns, for the mirror of 9_46 and for a Reidemeister-I
# kink of either sign on each of its 18 edges.  The pair is the first of
# the pool, in its order, to pass, so a change to the pool or to the
# search order fails here.
MIRROR_WITNESSES = ({3: 1, 6: -2}, {6: 1})
KINK_WITNESSES = {
    **dict.fromkeys(range(1, 5), ({7: 1}, {4: 1, 7: -2})),
    5: ({1: 1, 4: -1}, {1: -2, 4: 1}),
    6: ({7: 1}, {2: 1, 7: -1}),
    **dict.fromkeys(range(7, 13), ({7: 1}, {3: 1, 7: -2})),
    **dict.fromkeys((13, 14), ({6: 1}, {6: 1, 8: -1})),
    **dict.fromkeys(range(15, 19), ({6: 1}, {3: 1, 6: -2})),
}


def test_splitting_witnesses_of_the_mirror_and_every_kink(workloads):
    base = bundled_document("946")
    d946 = bundled_diagram("946")
    pds = {"mirror": (workloads.mirror_pd(base["pd"]), MIRROR_WITNESSES)}
    for edge, pair in KINK_WITNESSES.items():
        for positive in (False, True):
            pd = workloads.kink_pd(base["pd"], d946.signs, edge, positive)
            pds[f"kink{edge:02d}{'+' if positive else '-'}"] = (pd, pair)
    assert len(pds) == 37
    for tag, (pd, pair) in pds.items():
        text, _ = cmd_analyze({"pd": pd}, (2, 3), "json")
        report = json.loads(text)["splitting"]
        assert report["verdict"] == "Split", tag
        got = tuple(
            {i: c for i, c in enumerate(v) if c != "0"}
            for v in report["witnesses"]
        )
        want = tuple({i: str(c) for i, c in w.items()} for w in pair)
        assert got == want, tag


# SHA-256 of the BS(1,2) images, meridian exponents, factors and
# surjectivity flags of both summand maps of 9_46, its mirror and its 36
# Reidemeister-I kinks, in that order.  The translation parts are read
# off the judge's witness coordinates, which are defined only modulo the
# summands' annihilators; the images evaluate them at t = 2 and t = 1/2
# and must not move when the judge's basis is built differently.  The
# maps are read on the Tietze-simplified presentation and extended through
# the Tietze words, whose witnesses differ from the full module's by units
# of Z[1/2], so some translations are those of the full module's maps
# times 1/2, -1/2, -1 or 2.
# each image is hashed as (k, numerator, denominator) of its translation
SUMMAND_IMAGES_DIGEST = (
    "ff712182fb04a204881bc7b9d8a2efedff24b039b45bcbaf6f1505818326fb87"
)


def test_summand_images_of_9_46_its_mirror_and_every_kink(workloads):
    base = bundled_document("946")
    d946 = bundled_diagram("946")
    mirror, _ = diagram_from_document({"pd": workloads.mirror_pd(base["pd"])})
    diagrams = [d946, mirror]
    for edge in range(1, len(d946.edges) + 1):
        for positive in (True, False):
            pd = workloads.kink_pd(base["pd"], d946.signs, edge, positive)
            diagrams.append(diagram_from_document({"pd": pd})[0])
    assert len(diagrams) == 38
    h = hashlib.sha256()
    for diagram in diagrams:
        for hom in zero_surgery(diagram, 0).summands:
            images = tuple(
                (x.k, x.q.numerator, x.q.denominator) for x in hom.images
            )
            h.update(repr((images, hom.merid_exponent, hom.factor,
                           hom.surjective)).encode())
    assert h.hexdigest() == SUMMAND_IMAGES_DIGEST


def test_stage_b_rejects_a_forged_rank(monkeypatch):
    _, plain, _ = bundled_pattern("946")
    n = plain.group.num_generators
    # two kernel vectors on n columns: rank n - 2 instead of n - 3; the
    # presentation's kernel accessor computes the rank's kernel
    monkeypatch.setattr(
        diagrams, "nullspace_mod", lambda rows, m, ncols: [(0,) * ncols] * 2
    )
    with pytest.raises(VerificationFailed, match="rank"):
        stage_b_certificate(plain)
    with pytest.raises(VerificationFailed):
        certify_doubly_slice(bundled_diagram("946"), registry=None)


def test_certify_splits_9_46_with_100_seeded_kinks(workloads):
    # 109 crossings that Tietze-simplify to 3 generators: the module stage
    # runs on those, where the 108-column module of the full presentation
    # took its Groebner completion past the coefficient bound
    rng = Random(1)
    pd = bundled_document("946")["pd"]
    for _ in range(100):
        d = Diagram(pd)
        edge = rng.randrange(1, len(d.edges) + 1)
        pd = workloads.kink_pd(pd, d.signs, edge, rng.random() < 0.5)
    assert len(pd) == 109
    diagram = Diagram(pd)
    cert = certify_doubly_slice(diagram, registry=default_registry())
    assert "splitting verdict: split" in cert.hypotheses
    assert cert.conclusion == UNDECIDED
    assert zero_surgery(diagram, 0).module.ncols == 2


def test_stage_b_rejects_too_few_relators():
    _, plain, _ = bundled_pattern("946")
    group = plain.group
    short = replace(plain, group=GroupPresentation(
        group.names, group.relators[1:]
    ))
    with pytest.raises(VerificationFailed, match="non-framing relators"):
        stage_b_certificate(short)


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
        assert v["reason"] == SHADOW_REASON


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
    assert got_b == {(UNDETERMINED, SHADOW_REASON)}


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


def test_inconclusive_knot_certificate_ends_with_its_note():
    # the knot report goes between the module lines and the closing note
    d = bundled_diagram("946")
    h = diagram_hash(d)
    row = default_registry()["ext"][h]
    registry = {"ext": {h: {**row, "P1": {**row["P1"], "status": FAILS}}}}
    cert = certify_doubly_slice(d, registry=registry)
    assert cert.conclusion == INCONCLUSIVE
    assert cert.hypotheses == [
        "module order: 2 - 5*t + 2*t^2",
        "order matches (t-2)(2t-1) up to units: True",
        "splitting verdict: split",
        "summand maps surjective: P1 True, P2 True",
        "summand maps specialize the plain Jacobian: P1 True, P2 True",
        "metabelian quotient maps at (2,3): 27",
        "cover homology cross-check at (2,3): True",
        "a failed lifting condition does not refute double sliceness;"
        " the criterion is sufficient, not necessary",
    ]


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


def test_satellite_request_refuses_an_unknown_companion_token():
    with pytest.raises(MalformedInput, match="unknown companion token 'some'"):
        satellite_request(bundled_document("946"), "eta1", "some")


# sha256 of the certificate below, recorded while a satellite's base still
# built the summand maps and quotient cross-check it never printed
STAGE_B_SATELLITE_SHA256 = (
    "d4ebcc167e2b14d24dc5969479cb431095f3f30c79ebd022a5f99467a2548500"
)


def test_satellite_without_registry_runs_stage_b_once(monkeypatch):
    # no registry row: stage B gives the base's verdicts, once for both
    # summands, and the satellite bytes stay those recorded above
    calls = []
    inner = certify.stage_b_certificate

    def counting(plain):
        calls.append(plain)
        return inner(plain)

    monkeypatch.setattr(certify, "stage_b_certificate", counting)
    cert = satellite_request(bundled_document("946"), "eta1", "any", registry=None)
    assert len(calls) == 1
    assert cert.conclusion == NOT_APPLICABLE
    digest = hashlib.sha256(cert.to_json().encode()).hexdigest()
    assert digest == STAGE_B_SATELLITE_SHA256


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


def test_each_summand_holds_its_own_evidence(base_and_plain):
    # editing one summand's verdict leaves the other's alone, and editing
    # a certificate's dict leaves the certificate alone
    base, plain = base_and_plain
    d946 = bundled_diagram("946")
    failing = [
        {"curve": curve, "companion": d946, "name": "9_46", "kind": "concrete"}
        for curve in ("gamma1", "gamma2")
    ]
    certs = [
        (certify_doubly_slice(d946), UNDECIDED),
        (certify_satellite(base, plain, "eta1"), CERTIFIED),
        (family_946(), CERTIFIED),
        (certify_family(plain, base.subject["hash"], base, failing,
                        registry=default_registry()), INCONCLUSIVE),
        (certify_satellite(base, plain, "gamma1"), NOT_APPLICABLE),
    ]
    for cert, conclusion in certs:
        assert cert.conclusion == conclusion
        p1, p2 = cert.verdicts["P1"], cert.verdicts["P2"]
        assert p1 == p2 and p1["evidence"] is not p2["evidence"], conclusion
        blob = cert.to_json()
        edited = cert.as_dict()
        edited["verdicts"]["P1"]["evidence"]["kind"] = "edited"
        edited["hypotheses"].append("edited")
        edited["citations"].append("edited")
        edited["subject"]["kind"] = "edited"
        assert cert.to_json() == blob, conclusion


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
    rrr, _ = cmd_certify(bundled_document("r-rr"), (2, 3), "json")
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


def _conjugate_by_negative_letter(cert):
    # Word would read generator -1 as the last one
    word = cert["inputs"]["curve_word"]
    cert["inputs"]["curve_word"] = [[-1, 1]] + word + [[-1, -1]]


TREFOIL_HASH = diagram_hash(bundled_diagram("trefoil"))
FIGURE8_HASH = diagram_hash(bundled_diagram("figure8"))
PATTERN_HASH = diagram_hash(bundled_diagram("946"))
# the 9_46 pattern's marked curve words, as certificates store them
WORDS_946 = {
    curve: [list(letter) for letter in word.letters]
    for curve, word in bundled_pattern("946")[1].curve_words.items()
}

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
        "negative curve letter": _conjugate_by_negative_letter,
        "eta2's curve word": _set("inputs", "curve_word", WORDS_946["eta2"]),
        "gamma1's curve word": _set("inputs", "curve_word", WORDS_946["gamma1"]),
        "empty curve word": _set("inputs", "curve_word", []),
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
        "eta2's word on eta1": _set(
            "inputs", "curves", "eta1", "word", WORDS_946["eta2"]),
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


def _bare_946(h):
    """``resolve_hash``, except that 9_46 resolves to a bare Diagram."""
    return bundled_diagram("946") if h == PATTERN_HASH else resolve_hash(h)


@pytest.mark.parametrize("kind", ["satellite", "family", "family r-rr"])
def test_replay_rejects_a_pattern_without_marks(stored, kind):
    # curve words come from the pattern document's marks, and a bare
    # Diagram has none
    assert not replay_certificate(stored[kind], _bare_946, registry=default_registry())


def test_replay_accepts_bare_diagrams_for_knots_and_companions(stored):
    reg = default_registry()
    assert replay_certificate(stored["knot"], _bare_946, registry=reg)

    def bare_trefoil(h):
        return bundled_diagram("trefoil") if h == TREFOIL_HASH else resolve_hash(h)

    assert replay_certificate(stored["satellite"], bare_trefoil, registry=reg)
    assert replay_certificate(stored["family"], bare_trefoil, registry=reg)


def test_replay_reads_curve_words_in_the_resolved_documents_generators():
    # shifting every edge label by 5 keeps the canonical hash but numbers
    # the arc generators, and so the curve words, differently
    doc = bundled_document("946")
    n = 2 * len(doc["pd"])

    def shift(e):
        return (e + 4) % n + 1

    curves = doc["marks"]["curves"]
    copy = {
        "name": doc["name"],
        "pd": [[shift(e) for e in row] for row in doc["pd"]],
        "marks": {"curves": {
            c: [[shift(e), s] for e, s in w] for c, w in curves.items()
        }},
    }
    reg = default_registry()
    text, _ = cmd_satellite(copy, "eta1", "any", "json")
    cert = json.loads(text)
    assert cert["subject"]["pattern"] == PATTERN_HASH
    assert cert["inputs"]["curve_word"] != WORDS_946["eta1"]
    assert replay_certificate(cert, lambda h: copy, registry=reg)
    assert not replay_certificate(cert, resolve_hash, registry=reg)


def test_replay_accepts_a_certificate_at_another_quotient():
    text, _ = cmd_certify(bundled_document("946"), (3, 7), "json")
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


def test_certify_builds_one_stage_b_presentation(monkeypatch):
    import importlib

    import dslice.words as words

    inner = words.fox_row
    calls = []

    def counting(word, n, images, target):
        calls.append((word, n, target))
        return inner(word, n, images, target)

    # count passes through every module-level binding of fox_row
    for name in ("words", "modules", "groups", "twisted", "certify", "diagrams"):
        module = importlib.import_module(f"dslice.{name}")
        if getattr(module, "fox_row", None) is inner:
            monkeypatch.setattr(module, "fox_row", counting)
    mirror = _mirror_946()
    cert = certify_doubly_slice(mirror, registry=None)
    assert cert.conclusion == UNDECIDED
    plain = zero_surgery(mirror, 0)
    relators = plain.group.relators
    small = plain.simplified[0].relators
    assert (len(relators), len(small)) == (10, 4)
    # One pass per relator, Tietze word and map.  The Tietze
    # simplification (4 relators on 3 generators) is pushed into Lambda
    # once, for the small Jacobian (4), and so is each of the 9 Tietze
    # words, which carry its kernel mod 3 back to the 9 full generators
    # (9); the specialization check compares the summand maps' exponents
    # with the weights and pushes nothing.  The small presentation is
    # pushed into Z/2 x| Z/3 for the one cross-checked quotient map (4).
    # Stage B reads the kernel and pushes nothing, and no pass lands in
    # Z[BS(1,2)] or reads the 10 full relators.  4 + 9 + 4 = 17.
    assert len(calls) == 17
    assert sorted(map(repr, (w for w, _, _ in calls))) == sorted(
        map(repr, small + small + plain.simplified[1])
    )
    targets = [t for _, _, t in calls]
    assert (targets.count(_Degree), targets.count(Bs12Group)) == (13, 0)
