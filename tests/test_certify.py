"""Certificate assembly, the staged lifting verdicts, and replay."""

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dslice import certify
from dslice.bs12 import BS12_A, BS12_C, Bs12Group, ring_mul
from dslice.bs12 import shadow as _shadow
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
    stage_b_certificate,
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
from dslice.documents import diagram_from_document
from dslice.errors import (
    BudgetExceeded,
    NoSplitting,
    RelatorViolation,
    VerificationFailed,
)
from dslice.laurent import LaurentPoly, det
from dslice.snf import rank_mod_p
from dslice.words import GroupPresentation, Word, fox_row

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


# ----------------------------------------------------------------- stage B

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SHADOW_REASON = "commutative shadow obstructs every candidate matrix"


def _rank_at_two_mod_three(rows) -> int:
    return rank_mod_p([[p.evaluate_mod(2, 3) for p in row] for row in rows], 3)


@pytest.fixture
def workloads(monkeypatch):
    """The benchmark's input generator, imported without writing bytecode."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import workloads

    return workloads


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
        deleted = [
            [p for j, p in enumerate(row) if j != plain.meridian]
            for row in plain.jacobian
        ]
        assert _rank_at_two_mod_three(deleted) == n - 3, tag
        assert _rank_at_two_mod_three(plain.jacobian) == n - 3, tag
        want = {"status": UNDETERMINED, "evidence": {"kind": "None"},
                "reason": SHADOW_REASON}
        assert stage_b_certificate(plain) == want, tag
        cert = certify_doubly_slice(d, registry=None)
        assert cert.verdicts == {"P1": want, "P2": want}, tag


def test_stage_b_rejects_a_forged_rank(monkeypatch):
    _, plain, _ = bundled_pattern("946")
    n = plain.group.num_generators
    monkeypatch.setattr(certify, "rank_mod_p", lambda rows, p: n - 2)
    with pytest.raises(VerificationFailed, match="rank"):
        stage_b_certificate(plain)
    with pytest.raises(VerificationFailed):
        certify_doubly_slice(bundled_diagram("946"), registry=None)


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
    for name in ("words", "modules", "groups", "twisted", "certify"):
        module = importlib.import_module(f"dslice.{name}")
        if getattr(module, "fox_row", None) is inner:
            monkeypatch.setattr(module, "fox_row", counting)
    mirror = _mirror_946()
    cert = certify_doubly_slice(mirror, registry=None)
    assert cert.conclusion == UNDECIDED
    relators = zero_surgery(mirror, 0).group.relators
    assert len(relators) == 10
    # One pass per relator and map.  The surgery presentation (10
    # relators on 9 generators) is pushed into Lambda once (10), into
    # BS(1,2) once per summand by the specialization check (2 x 10), and
    # into Z/2 x| Z/3 for the one cross-checked quotient map (10).  Stage
    # B reads the Lambda-Jacobian and pushes nothing.  10 + 20 + 10 = 40.
    assert len(calls) == 40
    assert sorted(map(repr, (w for w, _, _ in calls))) == sorted(
        map(repr, 4 * relators)
    )
    assert [t for _, _, t in calls].count(Bs12Group) == 20
