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
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

from .bs12 import BS12, BS12_A, BS12_C, Bs12Group, FiniteMetabelian, ring_add
from .diagrams import Diagram, SurgeryPresentation, diagram_hash, zero_surgery
from .errors import (
    BudgetExceeded,
    DsliceError,
    MalformedInput,
    NoSplitting,
    RelatorViolation,
    VerificationFailed,
)
from .groups import metabelian_quotient_homs
from .modules import TARGET_ORDER
from .snf import rank_mod_p
from .twisted import (
    _check_regular_budget,
    crowell_check,
    summand_specialization_check,
    transport_record,
)
from .words import Word

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
# matrix becomes ``plain.jacobian`` at t = 2, which the specialization
# check confirms summand by summand.  Both t - 2 and 2t - 1 vanish at 2
# mod 3, so a certified splitting gives M (x) F_3 = F_3^2, and the
# meridian-deleted Jacobian, which presents M, has rank n - 3 there.
# Fox's fundamental formula, sum_j dr/dx_j (t^w_j - 1) = 0, with the
# meridian of weight 1 and 2 - 1 a unit, puts the meridian column in the
# span of the others, so the full Jacobian has rank n - 3 as well
# (R. H. Fox, Free differential calculus I, Ann. Math. 57, 1953).  A
# lifting column adds at most 1, so every candidate has rank at most
# n - 2 and at least n - 1 rows.


def stage_b_certificate(plain: SurgeryPresentation) -> dict:
    """The stage-B verdict for a knot whose splitting is certified.

    Checks the two facts the argument above rests on: ``plain`` has at
    least as many non-framing relators as generators, and its Jacobian at
    t = 2 has rank n - 3 over F_3.  Either failing contradicts the
    certified splitting and raises VerificationFailed; otherwise no
    candidate matrix has a right inverse, and the verdict is
    ``undetermined``.
    """
    n = plain.group.num_generators
    m = sum(1 for r in plain.group.relators if r != plain.longitude)
    if m < n:
        raise VerificationFailed(
            f"{m} non-framing relators on {n} generators contradict the"
            " zero-surgery presentation"
        )
    rank = rank_mod_p(
        [[p.evaluate_mod(2, 3) for p in row] for row in plain.jacobian], 3
    )
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
    registry = registry or {}
    curated = registry.get("ext", {}).get(subject_hash or "", {}).get(which)
    if curated is not None:
        return _verdict(curated.get("status", HOLDS), {
            "kind": "ClosedFormFamily",
            "rule": curated["rule"],
            "citations": [curated["rule"]],
        })
    return stage_b_certificate(plain)


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
        return {
            "subject": self.subject,
            "hypotheses": list(self.hypotheses),
            "verdicts": self.verdicts,
            "conclusion": self.conclusion,
            "citations": list(self.citations),
            "inputs": self.inputs,
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def _conclusion_from(verdicts: dict) -> str:
    statuses = [v["status"] for v in verdicts.values()]
    if all(s == HOLDS for s in statuses):
        return CERTIFIED
    if any(s == FAILS for s in statuses):
        return INCONCLUSIVE
    return UNDECIDED


def _not_evaluated() -> dict:
    return {
        "P1": _verdict(NOT_EVALUATED),
        "P2": _verdict(NOT_EVALUATED),
    }


def _cite_from_verdicts(verdicts: dict, citations: list) -> list:
    out = list(citations)
    for v in verdicts.values():
        ev = v.get("evidence", {})
        kind = ev.get("kind")
        rule = None
        if kind == "ClosedFormFamily":
            rule = ev.get("rule")
        elif kind == "TransportChain":
            rule = RULE_DERIVED
        if rule and rule not in out:
            out.append(rule)
    return out


def certify_doubly_slice(
    diagram: Diagram,
    name: str = "",
    registry: dict | None = None,
    quotient=(2, 3),
) -> Certificate:
    """Run the full pipeline on a knot diagram and assemble a certificate."""
    registry = registry or {}
    h = diagram_hash(diagram)
    subject = {"kind": "knot", "name": name or None, "hash": h}
    inputs = {"diagram": h}
    plain = zero_surgery(diagram, 0)
    hyps = []
    report = plain.splitting
    hyps.append(f"module order: {report.order}")
    hyps.append(
        "order matches (t-2)(2t-1) up to units: "
        f"{report.order.is_associate(TARGET_ORDER)}"
    )
    hyps.append(f"splitting verdict: {report.verdict}")
    if report.note:
        hyps.append(f"splitting note: {report.note}")
    if not report.certified:
        hyps.append("module hypothesis not met; the criterion does not apply")
        return Certificate(
            subject, hyps, _not_evaluated(), NOT_APPLICABLE, [], inputs
        )
    citations = [RULE_SPLIT]
    plus, minus = plain.summands
    hyps.append(
        f"summand maps surjective: P1 {plus.surjective}, P2 {minus.surjective}"
    )
    spec1 = summand_specialization_check(plain, plus)
    spec2 = summand_specialization_check(plain, minus)
    hyps.append(
        f"summand maps specialize the plain Jacobian: P1 {spec1}, P2 {spec2}"
    )
    qn, qm = quotient
    try:
        # a target past the regular-representation cap would refuse the
        # cross-check below, so it is refused before enumerating the maps
        _check_regular_budget(FiniteMetabelian(qn, qm))
        target, homs = metabelian_quotient_homs(plain, qn, qm)
        hyps.append(f"metabelian quotient maps at ({qn},{qm}): {len(homs)}")
        if homs:
            ok = crowell_check(plain.group, homs[0], target)
            hyps.append(f"cover homology cross-check at ({qn},{qm}): {ok}")
    except BudgetExceeded:
        hyps.append(f"metabelian quotient maps at ({qn},{qm}): skipped")
    verdicts = {
        tag: ext_condition(plain, tag, subject_hash=h, registry=registry)
        for tag in ("P1", "P2")
    }
    conclusion = _conclusion_from(verdicts)
    if conclusion == INCONCLUSIVE:
        hyps.append(
            "a failed lifting condition does not refute double sliceness;"
            " the criterion is sufficient, not necessary"
        )
    return Certificate(
        subject, hyps, verdicts, conclusion,
        _cite_from_verdicts(verdicts, citations), inputs,
    )


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
    rec = _family_record(plain, {
        "curve": curve, "companion": companion, "kind": companion_kind,
    }, 300000)
    if companion is not None:
        label = {"name": companion_name or None, "hash": diagram_hash(companion)}
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
        "companion": diagram_hash(companion) if companion is not None else None,
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
        return Certificate(
            subject, hyps, _not_evaluated(), NOT_APPLICABLE, [], inputs
        )
    if not rec.valid:
        which = "winding" if rec.winding != 0 else "membership/order"
        hyps.append(f"failed check: transport record ({which})")
        return Certificate(
            subject, hyps, _not_evaluated(), NOT_APPLICABLE, [], inputs
        )
    if companion_kind == "any" and not rec.second_derived:
        hyps.append("failed check: universal transport needs the curve in"
                    " the second derived subgroup")
        return Certificate(
            subject, hyps, _not_evaluated(), NOT_APPLICABLE, [], inputs
        )
    hyps.append(
        "module splitting carried across the infection by the collapse map"
    )
    evidence = {"kind": "TransportChain", "records": [rec.as_dict()]}
    verdicts = {
        "P1": _verdict(HOLDS, evidence),
        "P2": _verdict(HOLDS, evidence),
    }
    rule = RULE_DERIVED if rec.second_derived else RULE_TRIVIAL
    citations = [rule]
    for c in base.citations:
        if c not in citations:
            citations.append(c)
    return Certificate(
        subject, hyps, verdicts, CERTIFIED, citations, inputs
    )


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


def _family_record(plain, item, budget):
    """Transport record for one family infection slot.

    Concrete companions are measured; symbolic slots carry the closed
    form for their kind: a doubled companion always has trivial module
    order, an arbitrary companion guarantees nothing.
    """
    curve = item["curve"]
    kind = item.get("kind", "concrete")
    companion = item.get("companion")
    if kind == "concrete" and companion is not None:
        return transport_record(plain, curve, companion=companion, budget=budget)
    rec = transport_record(plain, curve, companion=None, budget=budget)
    if kind == "doubled":
        rec = replace(rec, companion_alexander_trivial=True)
    return rec


def certify_family(
    plain: SurgeryPresentation,
    pattern_hash: str,
    base: Certificate,
    infections,
    registry: dict | None = None,
    pattern_name: str = "",
    budget: int = 300000,
) -> Certificate:
    """Certificate for several infections of one certified pattern.

    ``infections`` is a list of dicts with keys ``curve``, ``companion``
    (a Diagram or None), ``name``, and ``kind`` in {"concrete",
    "doubled", "any"}.  Each slot must transport: either the companion
    has trivial module order, or the curve dies in the second derived
    subgroup.  With several second-derived curves, every such curve must
    literally be a commutator of weight-zero words, which keeps its
    membership valid on the presentations produced by the infections
    before it.
    """
    registry = registry or {}
    frule = registry.get("family", {}).get(pattern_hash, {})
    subject_inf = []
    inputs_curves = {}
    hyps = [f"base pattern verdicts both hold: {_base_both_hold(base)}"]
    recs = []
    derived_curves = []
    for item in infections:
        curve = item["curve"]
        rec = _family_record(plain, item, budget)
        recs.append(rec)
        companion = item.get("companion")
        subject_inf.append({
            "curve": curve,
            "name": item.get("name") or None,
            "kind": item.get("kind", "concrete"),
            "hash": diagram_hash(companion) if companion is not None else None,
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
        return Certificate(
            subject, hyps, _not_evaluated(), NOT_APPLICABLE, [], inputs
        )
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
        verdicts = {
            "P1": _verdict(FAILS, {
                "kind": "ClosedFormFamily", "rule": rule, "citations": [rule],
            }),
            "P2": _verdict(FAILS, {
                "kind": "ClosedFormFamily", "rule": rule, "citations": [rule],
            }),
        }
        hyps.append(
            "curated obstruction: along these curves, companions of"
            " nontrivial module order break the lifting condition on both"
            " summands"
        )
        hyps.append(
            "a failed lifting condition does not refute double sliceness;"
            " the criterion is sufficient, not necessary"
        )
        return Certificate(
            subject, hyps, verdicts, INCONCLUSIVE, [rule], inputs
        )
    if not all(rec.valid for rec in recs):
        bad = [i["curve"] for i, r in zip(subject_inf, recs) if not r.valid]
        hyps.append(f"failed check: transport record for {', '.join(bad)}")
        return Certificate(
            subject, hyps, _not_evaluated(), NOT_APPLICABLE, [], inputs
        )
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
            return Certificate(
                subject, hyps, _not_evaluated(), NOT_APPLICABLE, [], inputs
            )
    hyps.append(
        "module splitting carried across each infection by the collapse map"
    )
    evidence = {
        "kind": "TransportChain",
        "records": [rec.as_dict() for rec in recs],
    }
    verdicts = {
        "P1": _verdict(HOLDS, evidence),
        "P2": _verdict(HOLDS, evidence),
    }
    citations = [frule.get("holds_rule", RULE_FAMILY_HOLDS)]
    if any(not r.companion_alexander_trivial for r in recs):
        citations.append(RULE_DERIVED)
    if any(r.companion_alexander_trivial for r in recs):
        citations.append(RULE_TRIVIAL)
    return Certificate(subject, hyps, verdicts, CERTIFIED, citations, inputs)


def family_946(
    t1=None,
    t2=None,
    k1=None,
    k2=None,
    registry: dict | None = None,
    names=("", "", "", ""),
    budget: int = 300000,
) -> Certificate:
    """Two-layer family certificate on the bundled doubly slice pattern.

    The first layer ties doubled companions built on ``t1`` and ``t2``
    into the two winding-zero curves with nontrivial module class; the
    second ties ``k1`` and ``k2`` into the two curves dying in the
    second derived subgroup.  ``None`` slots stay symbolic and the
    certificate quantifies over every knot in that slot.
    """
    from .corpus import bundled_pattern, default_registry

    registry = registry if registry is not None else default_registry()
    diagram, plain, pattern_name = bundled_pattern("946")
    base = certify_doubly_slice(diagram, name=pattern_name, registry=registry)
    frule = registry.get("family", {}).get(
        base.subject["hash"], {"gamma": ("gamma1", "gamma2"),
                               "eta": ("eta1", "eta2")},
    )
    gamma = list(frule["gamma"])
    eta = list(frule["eta"])
    slots = [
        {"curve": gamma[0], "companion": None, "name": names[0] or None,
         "kind": "doubled", "base": t1},
        {"curve": gamma[1], "companion": None, "name": names[1] or None,
         "kind": "doubled", "base": t2},
        {"curve": eta[0], "companion": k1, "name": names[2] or None,
         "kind": "concrete" if k1 is not None else "any"},
        {"curve": eta[1], "companion": k2, "name": names[3] or None,
         "kind": "concrete" if k2 is not None else "any"},
    ]
    return certify_family(
        plain, base.subject["hash"], base, slots,
        registry=registry, pattern_name=pattern_name, budget=budget,
    )


# ---------------------------------------------------------------------------
# replay


def _restore_curves(plain: SurgeryPresentation, curves: dict):
    n = plain.group.num_generators
    words = dict(plain.curve_words)
    linking = dict(plain.curve_linking)
    for name, data in curves.items():
        letters = tuple((g, s) for g, s in data["word"])
        # Word would take a negative index, read as a generator from the end
        if not all(0 <= g < n and s in (1, -1) for g, s in letters):
            raise MalformedInput(f"curve {name!r} has a letter outside the"
                                 f" {n} generators")
        words[name] = Word(letters)
        linking[name] = data["linking"]
    return replace(plain, curve_words=words, curve_linking=linking)


# the only place a knot certificate records the quotient it was made at
_QUOTIENT_LINE = re.compile(r"metabelian quotient maps at \((\d+),(\d+)\): .*")


def _resolved(resolve, h):
    """The diagram stored under hash ``h``; ``None`` stands for no diagram."""
    if h is None:
        return None
    d = resolve(h)
    if d is None:
        raise MalformedInput(f"no diagram resolves the hash {h}")
    return d


def _rebuild(cert: dict, resolve, registry):
    """The certificate the CLI builds from ``cert``'s stored inputs."""
    subject, inputs = cert["subject"], cert["inputs"]
    kind = subject["kind"]
    if kind not in ("knot", "satellite", "family"):
        raise MalformedInput(f"unknown certificate kind {kind!r}")
    if kind == "knot":
        d = _resolved(resolve, inputs["diagram"])
        hits = map(_QUOTIENT_LINE.fullmatch, cert["hypotheses"])
        hit = next(filter(None, hits), None)
        quotient = (int(hit[1]), int(hit[2])) if hit else (2, 3)
        return certify_doubly_slice(
            d, name=subject["name"] or "", registry=registry,
            quotient=quotient,
        )
    d = _resolved(resolve, inputs["pattern"])
    base = certify_doubly_slice(d, registry=registry)
    if kind == "satellite":
        curve = subject["curve"]
        plain = _restore_curves(zero_surgery(d, 0), {curve: {
            "word": inputs["curve_word"], "linking": inputs["curve_linking"],
        }})
        label = subject["companion"]
        name = label["name"] if isinstance(label, dict) else None
        return certify_satellite(
            base, plain, curve, _resolved(resolve, inputs["companion"]),
            companion_name=name or "", companion_kind=inputs["companion_kind"],
        )
    plain = _restore_curves(zero_surgery(d, 0), inputs["curves"])
    infections = [
        {
            "curve": item["curve"],
            "companion": _resolved(resolve, item["hash"]),
            "name": item["name"] or "",
            "kind": item["kind"],
        }
        for item in subject["infections"]
    ]
    return certify_family(
        plain, base.subject["hash"], base, infections,
        registry=registry, pattern_name=subject["pattern"]["name"] or "",
    )


def replay_certificate(cert: dict, resolve, registry: dict | None = None) -> bool:
    """Whether ``cert`` is exactly the certificate its stored inputs give.

    The certificate is rebuilt by the call the CLI makes for its kind:
    ``certify_doubly_slice`` on the diagram stored under
    ``inputs.diagram``, at the quotient read from its ``metabelian
    quotient maps at (n,m)`` hypothesis ((2, 3) when it has none);
    ``certify_satellite`` or ``certify_family`` on
    the pattern stored under ``inputs.pattern``, with the stored curve
    words and companions.  The rebuilt certificate's canonical JSON must
    equal ``json.dumps(cert, indent=2, sort_keys=True)`` byte for byte, so
    any edited, removed or added field rejects it.  Subject and companion
    names are labels taken as inputs: a certificate with a renamed label is
    still the one the CLI prints for that diagram under that name, and
    replays.  No verdict carries a witness of its own: the rebuild
    recomputes every check behind it, stage B's rank included.

    ``resolve`` maps a diagram hash to a Diagram, or None when it knows
    none.  Replay never raises: a malformed certificate (a curve word
    letter outside the pattern's generators, say), an unresolved hash or a
    rebuild that raises ``DsliceError`` gives False.
    """
    try:
        if cert["version"] != CERT_VERSION:
            return False
        fresh = _rebuild(cert, resolve, registry)
        return fresh.to_json() == json.dumps(cert, indent=2, sort_keys=True)
    except (LookupError, TypeError, AttributeError, ValueError, DsliceError):
        return False
