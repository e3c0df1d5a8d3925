"""Building, assembling, and replaying double-slice certificates.

A certificate records, for one subject knot (or one satellite built on a
certified pattern), the hypotheses of the splitting criterion and one
three-valued verdict per module summand:

* ``P1`` is the summand on which the meridian acts by multiplication by
  2, annihilated by t - 2;
* ``P2`` is the summand on which it acts by 1/2, annihilated by 2t - 1.

Verdict evaluation is staged.  Stage A consults closed-form rules: the
curated registry keyed by the canonical diagram hash, and transport
records for satellites of certified patterns.  Stage B covers every other
knot whose module splits.  It cannot answer ``holds``: a right inverse of
any candidate matrix of a lifting search over the integral group ring of
BS(1,2) would survive the ring map to F_3 that sends t to 2, and there a
certified splitting caps the rank of every candidate below its row count
(see ``stage_b_certificate``).  Stage B checks the rank that argument
rests on and answers ``undetermined``; it never answers ``fails``.
Every ``holds`` and ``fails`` verdict comes from a closed-form rule.

A satellite or family rests on its pattern's module lines and verdicts
only; the summand maps and quotient cross-check belong to knot certificates.
"""

from __future__ import annotations

import json
import re
from copy import deepcopy
from dataclasses import asdict, dataclass

from .bs12 import BS12, BS12_A, BS12_C, Bs12Group
from .diagrams import (
    Diagram,
    SurgeryPresentation,
    diagram_hash,
    wirtinger,
    zero_surgery,
)
from .documents import (
    COMPANION_TOKENS,
    diagram_from_document,
    document_kind,
    marked_presentation,
    validate_satellite_document,
)
from .errors import (
    BudgetExceeded,
    DsliceError,
    MalformedInput,
    NoSplitting,
    RelatorViolation,
    VerificationFailed,
)
from .laurent import ONE
from .modules import TARGET_ORDER, alexander_polynomial
from .twisted import (
    first_cover_check,
    summand_specialization_check,
    transport_record,
)
from .words import Word, ring_add

__all__ = [
    "HOLDS",
    "UNDETERMINED",
    "FAILS",
    "NOT_EVALUATED",
    "CERTIFIED",
    "INCONCLUSIVE",
    "UNDECIDED",
    "NOT_APPLICABLE",
    "CERT_VERSION",
    "relator_lift",
    "stage_b_certificate",
    "ext_condition",
    "Certificate",
    "certify_doubly_slice",
    "certify_satellite",
    "certify_family",
    "certify_request",
    "satellite_request",
    "family_946",
    "replay_certificate",
]

HOLDS = "holds"
UNDETERMINED = "undetermined"
FAILS = "fails"
NOT_EVALUATED = "not-evaluated"

CERTIFIED = "DoublySliceCertified"
INCONCLUSIVE = "CriterionFailsButInconclusive"
UNDECIDED = "Undetermined"
NOT_APPLICABLE = "NotApplicable"

CERT_VERSION = "dslice-certificate/1"

RULE_SPLIT = "splitting-witness-pair"
RULE_BASE_EXT = "closed-form/base-pattern-ext"
RULE_TRIVIAL = "transport/trivial-companion"
RULE_DERIVED = "transport/second-derived-curve"
RULE_FAMILY_HOLDS = "family/iterated-curves"
RULE_FAMILY_FAILS = "family/nontrivial-companions-fail"

# stated on every certificate with a failing verdict
_NOT_NECESSARY = (
    "a failed lifting condition does not refute double sliceness;"
    " the criterion is sufficient, not necessary"
)

# Relation lifting in the target group's own presentation
# < a, c | a c a^-1 c^-2 >.  No stage calls ``relator_lift``; it stays
# because the benchmark traces it as the ``certify.relator_lift`` span.
_GEN_A = 0
_GEN_C = 1
RHO = Word(((_GEN_A, 1), (_GEN_C, 1), (_GEN_A, -1), (_GEN_C, -1), (_GEN_C, -1)))

# Local rewrites pushing a-letters right and inverse a-letters left.  Each
# entry: pattern pair -> (replacement, exponent of the defining relator,
# letters appended to the scanned prefix to form the conjugator).  The
# invariant per step: old word = u * rho^eps * u^-1 * new word.
_REWRITES = {
    ((_GEN_A, 1), (_GEN_C, 1)): (
        ((_GEN_C, 1), (_GEN_C, 1), (_GEN_A, 1)), 1, ()),
    ((_GEN_A, 1), (_GEN_C, -1)): (
        ((_GEN_C, -1), (_GEN_C, -1), (_GEN_A, 1)), -1,
        ((_GEN_C, -1), (_GEN_C, -1))),
    ((_GEN_C, 1), (_GEN_A, -1)): (
        ((_GEN_A, -1), (_GEN_C, 1), (_GEN_C, 1)), 1, ((_GEN_A, -1),)),
    ((_GEN_C, -1), (_GEN_A, -1)): (
        ((_GEN_A, -1), (_GEN_C, -1), (_GEN_C, -1)), -1,
        ((_GEN_C, -1), (_GEN_A, -1))),
}


def _letter_elt(letter) -> BS12:
    g, e = letter
    base = BS12_A if g == _GEN_A else BS12_C
    return base if e == 1 else base.inverse()


def relator_lift(word: Word, budget: int = 20000) -> dict:
    """Express a trivial word as a product of conjugates of ``RHO``.

    Returns the group-ring element summing the conjugators with signs,
    which is the image of the word in the target's relation module.
    Raises RelatorViolation if the word does not represent the identity.
    """
    letters = list(word.letters)
    delta: dict = {}
    steps = 0
    while letters:
        prefix = Bs12Group.identity()
        applied = False
        for p in range(len(letters) - 1):
            hit = _REWRITES.get((letters[p], letters[p + 1]))
            if hit is not None:
                repl, eps, extra = hit
                u = prefix
                for letter in extra:
                    u = u * _letter_elt(letter)
                delta = ring_add(delta, {u: eps})
                letters[p:p + 2] = list(repl)
                letters = list(Word(tuple(letters)).letters)
                applied = True
                break
            prefix = prefix * _letter_elt(letters[p])
        if not applied:
            # freely reduced, no pattern left: a^-i c^e a^j, nontrivial
            raise RelatorViolation("word does not map to the identity")
        steps += 1
        if steps > budget or len(letters) > budget:
            raise BudgetExceeded("relation lifting budget exhausted")
    return delta


def _verdict(status, evidence=None, reason=""):
    out = {"status": status, "evidence": evidence or {"kind": "None"}}
    if reason:
        out["reason"] = reason
    return out


def _both(status, evidence=None) -> dict:
    """One verdict per summand, each holding its own copy of ``evidence``."""
    return {
        "P1": _verdict(status, deepcopy(evidence)),
        "P2": _verdict(status, deepcopy(evidence)),
    }


# ---------------------------------------------------------------------------
# stage B: the rank certificate

# A lifting search over the integral group ring of BS(1,2) would look for
# a right inverse of a candidate matrix: the Fox matrix of the m
# non-framing relators pushed through a summand map, either with the
# meridian column deleted (n - 1 columns) or with a relation-lifting
# column appended (n + 1 columns), and with at most one relator dropped,
# so at least m - 1 >= n - 1 rows.  None of them has one.  The ring map
# (k, q) -> t^k, t -> 2 into F_3 sends a right inverse to a right inverse,
# and over a field that needs full row rank (over Lambda the same test is
# McCoy's theorem on maximal minors; W. C. Brown, Matrices over
# Commutative Rings, 1993).  Under that map the pushed Fox
# matrix becomes the full Jacobian of ``plain.group`` under
# ``plain.weights`` at t = 2, which the specialization check confirms
# summand by summand.  Both t - 2 and 2t - 1 vanish at 2
# mod 3, so a certified splitting gives M (x) F_3 = F_3^2, and the
# meridian-deleted Jacobian, which presents M, has rank n - 3 there.
# Fox's fundamental formula, sum_j dr/dx_j (t^w_j - 1) = 0, with the
# meridian of weight 1 and 2 - 1 a unit, puts the meridian column in the
# span of the others, so the full Jacobian has rank n - 3 as well
# (R. H. Fox, Free differential calculus I, Ann. Math. 57, 1953).  A
# lifting column adds at most 1, so every candidate has rank at most
# n - 2 and at least n - 1 rows.  The rank is read on the small
# presentation: the full Jacobian's kernel at t = 2 over F_3 is the set
# of translation vectors of maps into Z x| F_3 (t acting by 2), and
# composing with the Tietze isomorphism maps the small kernel onto it
# bijectively and linearly, so the deficiency n - rank is the small
# kernel's dimension, the size of ``plain.kernel_mod(3)``.


def stage_b_certificate(plain: SurgeryPresentation) -> dict:
    """The stage-B verdict for a knot whose splitting is certified.

    Checks the two facts the argument above rests on: ``plain`` has at
    least as many non-framing relators as generators, and its Jacobian at
    t = 2 has rank n - 3 over F_3.  The relators are counted on the full
    presentation; the rank is n minus the size of ``plain.kernel_mod(3)``,
    computed once per presentation on the small one, which a knot
    certificate's default (2,3) quotient maps also read.  Either failing
    contradicts the certified splitting and raises VerificationFailed;
    otherwise no candidate matrix has a right inverse, and the verdict
    is ``undetermined``.
    """
    n = plain.group.num_generators
    m = sum(1 for r in plain.group.relators if r != plain.longitude)
    if m < n:
        raise VerificationFailed(
            f"{m} non-framing relators on {n} generators contradict the"
            " zero-surgery presentation"
        )
    rank = n - len(plain.kernel_mod(3))
    if rank != n - 3:
        raise VerificationFailed(
            f"Jacobian rank {rank} at t = 2 over F_3 contradicts the"
            f" certified splitting, which forces {n - 3}"
        )
    return _verdict(
        UNDETERMINED, reason="commutative shadow obstructs every candidate matrix"
    )


# ---------------------------------------------------------------------------
# staged verdicts


def ext_condition(
    plain: SurgeryPresentation,
    which: str,
    subject_hash: str | None = None,
    registry: dict | None = None,
) -> dict:
    """Three-valued verdict for summand ``which`` of ``plain``.

    Stage A is the curated registry row for the subject's canonical hash.
    Without one, stage B's rank certificate answers ``undetermined`` for
    either summand.  Satellites and families build their transport
    verdicts themselves.  Raises NoSplitting when ``plain.splitting`` is
    not certified.
    """
    if which not in ("P1", "P2"):
        raise ValueError("summand tag must be P1 or P2")
    if not plain.splitting.certified:
        raise NoSplitting("module splitting has not been certified")
    return _staged_verdicts(plain, subject_hash, registry)[which]


def _staged_verdicts(plain, subject_hash, registry) -> dict:
    """Stage A per summand, else one stage-B verdict, copied to each."""
    verdicts = {tag: _stage_a(registry, subject_hash, tag) for tag in ("P1", "P2")}
    if None in verdicts.values():
        stage_b = stage_b_certificate(plain)
        verdicts = {t: v or deepcopy(stage_b) for t, v in verdicts.items()}
    return verdicts


def _stage_a(registry, subject_hash, which) -> dict | None:
    """The curated registry verdict for summand ``which``, if any."""
    curated = (registry or {}).get("ext", {}).get(subject_hash or "", {}).get(which)
    if curated is None:
        return None
    return _verdict(curated.get("status", HOLDS), {
        "kind": "ClosedFormFamily",
        "rule": curated["rule"],
        "citations": [curated["rule"]],
    })


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    subject: dict
    hypotheses: list
    verdicts: dict
    conclusion: str
    citations: list
    inputs: dict
    version: str = CERT_VERSION

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        # the fields as they stand: serialising needs no copy of them
        return json.dumps(vars(self), indent=2, sort_keys=True)


def _conclusion_from(verdicts: dict) -> str:
    statuses = [v["status"] for v in verdicts.values()]
    if all(s == HOLDS for s in statuses):
        return CERTIFIED
    if any(s == FAILS for s in statuses):
        return INCONCLUSIVE
    return UNDECIDED


def _not_applicable(subject, hyps, inputs) -> Certificate:
    """A certificate whose hypotheses fail: no summand is evaluated."""
    return Certificate(subject, hyps, _both(NOT_EVALUATED), NOT_APPLICABLE, [], inputs)


def _base_certificate(diagram, name, registry, plain) -> Certificate:
    """The verdict core of a knot certificate: its subject, the module
    lines, the splitting gate, the staged verdicts, the conclusion and
    the citations.  A satellite or family rests on this alone."""
    h = diagram_hash(diagram)
    subject = {"kind": "knot", "name": name or None, "hash": h}
    inputs = {"diagram": h}
    report = plain.splitting
    hyps = [
        f"module order: {report.order}",
        "order matches (t-2)(2t-1) up to units: "
        f"{report.order.is_associate(TARGET_ORDER)}",
        f"splitting verdict: {report.verdict}",
    ]
    if report.note:
        hyps.append(f"splitting note: {report.note}")
    if not report.certified:
        hyps.append("module hypothesis not met; the criterion does not apply")
        return _not_applicable(subject, hyps, inputs)
    verdicts = _staged_verdicts(plain, h, registry)
    conclusion = _conclusion_from(verdicts)
    if conclusion == INCONCLUSIVE:
        hyps.append(_NOT_NECESSARY)
    # stage B's evidence names no rule; stage A's names its closed form
    rules = filter(None, (v["evidence"].get("rule") for v in verdicts.values()))
    citations = list(dict.fromkeys([RULE_SPLIT, *rules]))
    return Certificate(subject, hyps, verdicts, conclusion, citations, inputs)


def _knot_report(plain, quotient) -> list:
    """The lines only a knot certificate prints: the summand maps, and the
    maps at ``quotient`` with the first one's cover cross-check."""
    plus, minus = plain.summands
    spec1, spec2 = (summand_specialization_check(plain, hom) for hom in (plus, minus))
    hyps = [
        f"summand maps surjective: P1 {plus.surjective}, P2 {minus.surjective}",
        f"summand maps specialize the plain Jacobian: P1 {spec1}, P2 {spec2}",
    ]
    qn, qm = quotient
    try:
        maps, ok = first_cover_check(plain, qn, qm)
        hyps.append(f"metabelian quotient maps at ({qn},{qm}): {maps}")
        if maps:
            hyps.append(f"cover homology cross-check at ({qn},{qm}): {ok}")
    except BudgetExceeded:
        hyps.append(f"metabelian quotient maps at ({qn},{qm}): skipped")
    return hyps


def certify_doubly_slice(
    diagram: Diagram,
    name: str = "",
    registry: dict | None = None,
    quotient=(2, 3),
    plain: SurgeryPresentation | None = None,
) -> Certificate:
    """Run the full pipeline on a knot diagram and assemble a certificate.

    ``plain``, when given, is the caller's zero-surgery presentation of
    the knot ``diagram``; the pipeline then shares its cached Tietze
    simplification, weights, module and splitting instead of building its
    own.
    """
    if plain is None:
        plain = zero_surgery(diagram, 0)
    report = _knot_report(plain, quotient) if plain.splitting.certified else []
    cert = _base_certificate(diagram, name, registry, plain)
    # the report follows the module lines; an inconclusive note stays last
    at = len(cert.hypotheses) - (cert.conclusion == INCONCLUSIVE)
    cert.hypotheses[at:at] = report
    return cert


def _ser_word(word: Word):
    return [list(letter) for letter in word.letters]


def _base_both_hold(base: Certificate) -> bool:
    return all(
        v.get("status") == HOLDS for v in base.verdicts.values()
    )


def certify_satellite(
    base: Certificate,
    plain: SurgeryPresentation,
    curve: str,
    companion: Diagram | None = None,
    companion_name: str = "",
    companion_kind: str | None = None,
) -> Certificate:
    """Transport a certified pattern through one infection.

    ``companion=None`` with kind ``any`` quantifies over all companions:
    the certificate is then valid for every knot tied into the curve,
    which requires the curve to die in the second derived subgroup.
    Kind ``doubled`` marks a symbolic doubled companion, whose module
    order is trivial by construction.  A concrete companion may ride on
    either route.
    """
    if companion_kind is None:
        companion_kind = "concrete" if companion is not None else "any"
    h = diagram_hash(companion) if companion is not None else None
    rec = _family_record(plain, {
        "curve": curve, "companion": companion, "kind": companion_kind,
    }, h, {})
    if companion is not None:
        label = {"name": companion_name or None, "hash": h}
    elif companion_kind == "doubled":
        label = "DoubledAnyKnot"
    else:
        label = "AnyKnot"
    subject = {
        "kind": "satellite",
        "pattern": base.subject.get("hash"),
        "curve": curve,
        "companion": label,
    }
    inputs = {
        "pattern": base.subject.get("hash"),
        "companion": h,
        "companion_kind": companion_kind,
        "curve_word": _ser_word(plain.curve_words[curve]),
        "curve_linking": plain.curve_linking[curve],
    }
    hyps = [
        f"base pattern verdicts both hold: {_base_both_hold(base)}",
        f"infection curve winding number: {rec.winding}",
        f"curve dies in the second derived subgroup: {rec.second_derived}",
        "companion has trivial module order: "
        f"{bool(rec.companion_alexander_trivial)}",
    ]
    if not _base_both_hold(base):
        hyps.append("failed check: base pattern lifting verdicts")
        return _not_applicable(subject, hyps, inputs)
    if not rec.valid:
        which = "winding" if rec.winding != 0 else "membership/order"
        hyps.append(f"failed check: transport record ({which})")
        return _not_applicable(subject, hyps, inputs)
    hyps.append(
        "module splitting carried across the infection by the collapse map"
    )
    verdicts = _both(HOLDS, {"kind": "TransportChain", "records": [rec.as_dict()]})
    rule = RULE_DERIVED if rec.second_derived else RULE_TRIVIAL
    citations = list(dict.fromkeys([rule, *base.citations]))
    return Certificate(subject, hyps, verdicts, CERTIFIED, citations, inputs)


def _commutator_of_nullhomologous(word: Word, weights) -> bool:
    """Whether the word literally reads u v u^-1 v^-1 with u, v of weight 0."""
    letters = word.letters
    ln = len(letters)
    for i in range(1, ln):
        for j in range(i + 1, ln):
            u = Word(letters[:i])
            v = Word(letters[i:j])
            if u * v * u.inverse() * v.inverse() != word:
                continue
            wu = sum(e * weights[g] for g, e in u.letters)
            wv = sum(e * weights[g] for g, e in v.letters)
            if wu == 0 and wv == 0:
                return True
    return False


def _family_record(plain, item, h, orders):
    """Transport record for one family infection slot.

    Whether the companion has trivial module order is decided here.
    Concrete companions are measured, each diagram once per certificate:
    ``h`` is the slot's companion hash, and ``orders`` maps the hash of
    every companion measured so far to whether its Alexander polynomial
    is 1.  Symbolic slots carry the closed form for their kind: a doubled
    companion always has trivial module order, an arbitrary companion
    guarantees nothing.
    """
    kind = item.get("kind", "concrete")
    companion = item.get("companion")
    if kind == "concrete" and companion is not None:
        if h not in orders:
            lg = wirtinger(companion)
            orders[h] = alexander_polynomial(lg.group, lg.meridians[0]) == ONE
        trivial = orders[h]
    else:
        trivial = True if kind == "doubled" else None
    return transport_record(plain, item["curve"], trivial)


def certify_family(
    plain: SurgeryPresentation,
    pattern_hash: str,
    base: Certificate,
    infections,
    registry: dict | None = None,
    pattern_name: str = "",
) -> Certificate:
    """Certificate for several infections of one certified pattern.

    ``infections`` is a list of dicts with keys ``curve``, ``companion``
    (a Diagram or None), ``name``, and ``kind`` in {"concrete",
    "doubled", "any"}.  Each slot must transport: either the companion
    has trivial module order, or the curve dies in the second derived
    subgroup.  With several second-derived curves, every such curve must
    literally be a commutator of weight-zero words, which keeps its
    membership valid on the presentations produced by the infections
    before it.  Only the verdicts of ``base``, the pattern's core, are read.
    """
    registry = registry or {}
    frule = registry.get("family", {}).get(pattern_hash, {})
    subject_inf = []
    inputs_curves = {}
    hyps = [f"base pattern verdicts both hold: {_base_both_hold(base)}"]
    recs = []
    derived_curves = []
    orders = {}
    for item in infections:
        curve = item["curve"]
        companion = item.get("companion")
        h = diagram_hash(companion) if companion is not None else None
        rec = _family_record(plain, item, h, orders)
        recs.append(rec)
        subject_inf.append({
            "curve": curve,
            "name": item.get("name") or None,
            "kind": item.get("kind", "concrete"),
            "hash": h,
        })
        inputs_curves[curve] = {
            "word": _ser_word(plain.curve_words[curve]),
            "linking": plain.curve_linking[curve],
        }
        hyps.append(
            f"curve {curve}: winding {rec.winding},"
            f" second derived {rec.second_derived},"
            f" companion trivial order {bool(rec.companion_alexander_trivial)}"
        )
        if not rec.companion_alexander_trivial:
            derived_curves.append(curve)
    subject = {
        "kind": "family",
        "pattern": {"name": pattern_name or None, "hash": pattern_hash},
        "infections": subject_inf,
    }
    inputs = {
        "pattern": pattern_hash,
        "companions": [i["hash"] for i in subject_inf],
        "curves": inputs_curves,
    }
    if not _base_both_hold(base):
        hyps.append("failed check: base pattern lifting verdicts")
        return _not_applicable(subject, hyps, inputs)
    # Curated failure rule: every infection sits on the obstructing curve
    # set and brings a companion with nontrivial module order.
    fails_on = set(frule.get("fails_on", ()))
    if (
        fails_on
        and {i["curve"] for i in subject_inf} == fails_on
        and all(
            i["kind"] == "concrete" and not r.companion_alexander_trivial
            for i, r in zip(subject_inf, recs)
        )
        and all(r.winding == 0 for r in recs)
    ):
        rule = frule["fails_rule"]
        verdicts = _both(
            FAILS, {"kind": "ClosedFormFamily", "rule": rule, "citations": [rule]}
        )
        hyps.append(
            "curated obstruction: along these curves, companions of"
            " nontrivial module order break the lifting condition on both"
            " summands"
        )
        hyps.append(_NOT_NECESSARY)
        return Certificate(subject, hyps, verdicts, INCONCLUSIVE, [rule], inputs)
    if not all(rec.valid for rec in recs):
        bad = [i["curve"] for i, r in zip(subject_inf, recs) if not r.valid]
        hyps.append(f"failed check: transport record for {', '.join(bad)}")
        return _not_applicable(subject, hyps, inputs)
    if len(derived_curves) > 1:
        stable = all(
            _commutator_of_nullhomologous(plain.curve_words[c], plain.weights)
            for c in derived_curves
        )
        hyps.append(
            "second-derived curves are commutators of weight-zero words,"
            f" so membership persists through earlier infections: {stable}"
        )
        if not stable:
            return _not_applicable(subject, hyps, inputs)
    hyps.append(
        "module splitting carried across each infection by the collapse map"
    )
    verdicts = _both(
        HOLDS, {"kind": "TransportChain", "records": [rec.as_dict() for rec in recs]}
    )
    citations = [frule.get("holds_rule", RULE_FAMILY_HOLDS)]
    if any(not r.companion_alexander_trivial for r in recs):
        citations.append(RULE_DERIVED)
    if any(r.companion_alexander_trivial for r in recs):
        citations.append(RULE_TRIVIAL)
    return Certificate(subject, hyps, verdicts, CERTIFIED, citations, inputs)


# ---------------------------------------------------------------------------
# requests: one builder per request kind, shared by the CLI and replay


def _companion(companion, name=""):
    """``(diagram, name, kind)`` of a companion token or document."""
    if isinstance(companion, str):
        if companion not in COMPANION_TOKENS:
            raise MalformedInput(f"unknown companion token {companion!r}")
        return None, name, COMPANION_TOKENS[companion]
    diagram, cname = diagram_from_document(companion)
    return diagram, name or cname, "concrete"


def certify_request(
    doc: dict, registry: dict | None = None, quotient=(2, 3)
) -> Certificate:
    """The certificate of a ``certify`` request.

    ``doc`` is a diagram document, certified at ``quotient``, or a
    satellite document, whose curve words come from its pattern's marks.
    """
    if document_kind(doc) == "diagram":
        diagram, name = diagram_from_document(doc)
        return certify_doubly_slice(diagram, name, registry, tuple(quotient))
    validate_satellite_document(doc)
    diagram, plain, pname = marked_presentation(doc["pattern"])
    base = _base_certificate(diagram, pname, registry, plain)
    infections = []
    for item in doc["infections"]:
        curve = item["curve"]
        if curve not in plain.curve_words:
            raise MalformedInput(f"pattern has no marked curve {curve!r}")
        companion, name, kind = _companion(item["companion"], item.get("name", ""))
        infections.append(
            {"curve": curve, "companion": companion, "name": name, "kind": kind}
        )
    return certify_family(
        plain, base.subject["hash"], base, infections,
        registry=registry, pattern_name=pname,
    )


def satellite_request(
    pattern_doc: dict, curve: str, companion, registry: dict | None = None
) -> Certificate:
    """The certificate of a ``satellite`` request: the pattern document's
    marked ``curve`` infected by ``companion``, a token or a document.
    The pattern's base certifies its module and verdicts only."""
    diagram, plain, pname = marked_presentation(pattern_doc)
    if curve not in plain.curve_words:
        raise MalformedInput(f"pattern has no marked curve {curve!r}")
    base = _base_certificate(diagram, pname, registry, plain)
    companion, cname, kind = _companion(companion)
    return certify_satellite(
        base, plain, curve, companion,
        companion_name=cname, companion_kind=kind,
    )


def _diagram_document(diagram: Diagram) -> dict:
    """A document, without marks or name, of a bare Diagram."""
    return {"pd": [list(c) for c in diagram.crossings], "signs": list(diagram.signs)}


def family_946(
    k1=None,
    k2=None,
    registry: dict | None = None,
    names=("", "", "", ""),
) -> Certificate:
    """Two-layer family certificate on the bundled doubly slice pattern.

    The first layer ties symbolic doubled companions into the two
    winding-zero curves with nontrivial module class; the second ties
    the Diagrams ``k1`` and ``k2`` into the two curves dying in the
    second derived subgroup.  A ``None`` slot stays symbolic and the
    certificate quantifies over every knot in that slot.
    """
    from .corpus import bundled_diagram, bundled_document, default_registry

    registry = registry if registry is not None else default_registry()
    frule = registry.get("family", {}).get(
        diagram_hash(bundled_diagram("946")),
        {"gamma": ("gamma1", "gamma2"), "eta": ("eta1", "eta2")},
    )
    curves = [*frule["gamma"], *frule["eta"]]
    companions = ["doubled", "doubled"] + [
        "any" if k is None else _diagram_document(k) for k in (k1, k2)
    ]
    infections = [
        {"curve": curve, "companion": companion, "name": name}
        for curve, companion, name in zip(curves, companions, names, strict=True)
    ]
    return certify_request(
        {"pattern": bundled_document("946"), "infections": infections},
        registry,
    )


# ---------------------------------------------------------------------------
# replay


# the only place a knot certificate records the quotient it was made at
_QUOTIENT_LINE = re.compile(r"metabelian quotient maps at \((\d+),(\d+)\): .*")


def _document(resolve, h, label):
    """The diagram document stored under hash ``h``, named ``label``."""
    source = resolve(h)
    if source is None:
        raise MalformedInput(f"no diagram resolves the hash {h}")
    if isinstance(source, Diagram):
        source = _diagram_document(source)
    return dict(source, name=label or "")


def _rebuild(cert: dict, resolve, registry):
    """The certificate the CLI builds for the request ``cert`` records."""
    subject, inputs = cert["subject"], cert["inputs"]
    kind = subject["kind"]
    if kind == "knot":
        hits = map(_QUOTIENT_LINE.fullmatch, cert["hypotheses"])
        hit = next(filter(None, hits), None)
        quotient = (int(hit[1]), int(hit[2])) if hit else (2, 3)
        doc = _document(resolve, inputs["diagram"], subject["name"])
        return certify_request(doc, registry, quotient)
    if kind == "satellite":
        h = inputs["companion"]
        companion = (inputs["companion_kind"] if h is None
                     else _document(resolve, h, subject["companion"]["name"]))
        pattern = _document(resolve, inputs["pattern"], None)
        return satellite_request(pattern, subject["curve"], companion, registry)
    if kind == "family":
        infections = [{
            "curve": item["curve"],
            "companion": item["kind"] if item["hash"] is None
            else _document(resolve, item["hash"], item["name"]),
            "name": item["name"] or "",
        } for item in subject["infections"]]
        pattern = _document(resolve, inputs["pattern"], subject["pattern"]["name"])
        return certify_request({"pattern": pattern, "infections": infections}, registry)
    raise MalformedInput(f"unknown certificate kind {kind!r}")


def replay_certificate(cert: dict, resolve, registry: dict | None = None) -> bool:
    """Whether ``cert`` is exactly the certificate its request gives.

    The request is rebuilt from the certificate and passed to the CLI's
    builder: ``certify_request`` on the diagram stored under
    ``inputs.diagram``, at the quotient of its ``metabelian quotient maps
    at (n,m)`` hypothesis ((2, 3) without one), or ``satellite_request``
    or ``certify_request`` on the pattern stored under ``inputs.pattern``,
    the curves ``subject`` names, and each companion stored under its hash
    or named by its kind.  Curve words come from the pattern document's
    marks; stored words count only through the comparison.  The rebuilt
    certificate's canonical JSON must equal ``json.dumps(cert, indent=2,
    sort_keys=True)`` byte for byte, so any edited, removed or added field
    rejects it.  Names are labels taken as inputs: a renamed certificate
    is the one the CLI prints under that name, and replays.

    ``resolve`` maps a hash to the diagram document stored under it, or
    None; ``corpus.resolve_hash`` returns the bundled document.  A bare
    Diagram serves a knot or a companion; as a pattern it has no marks
    and replays False.  Curve words are numbered in the generators of
    the document they were made from, so a certificate made on a
    relabelled copy of a pattern replays against that copy, not against
    the bundled document.  Replay never raises: a malformed certificate,
    an unresolved hash or a rebuild raising ``DsliceError`` gives False.
    """
    try:
        if cert["version"] != CERT_VERSION:
            return False
        fresh = _rebuild(cert, resolve, registry)
        return fresh.to_json() == json.dumps(cert, indent=2, sort_keys=True)
    except (LookupError, TypeError, AttributeError, ValueError, DsliceError):
        return False
