"""Building, assembling, and replaying double-slice certificates.

A certificate records, for one subject knot (or one satellite built on a
certified pattern), the hypotheses of the splitting criterion and one
three-valued verdict per module summand:

* ``P1`` is the summand on which the meridian acts by multiplication by
  2, annihilated by t - 2;
* ``P2`` is the summand on which it acts by 1/2, annihilated by 2t - 1.

Verdict evaluation is staged.  Stage A consults closed-form rules: the
curated registry keyed by the canonical diagram hash, and transport
records for satellites of certified patterns.  Stage B is a bounded
general search: it pushes the presentation's free derivative matrix into
the integral group ring of the target metabelian group and hunts for an
explicit right inverse, on the meridian-deleted matrix and on the
relative matrix augmented by a relation-lifting column.  A found witness
is re-verified by plain multiplication before it is trusted.  Stage B
can answer ``holds`` or give up (``undetermined``); it never answers
``fails``.  Failure verdicts only enter through curated rules.

Commutative shadows give an exact gate for stage B: the map onto the
infinite cyclic quotient turns a right inverse over the group ring into
one over the Laurent ring, so a candidate matrix whose shadow has none is
skipped without search.  The gate looks for a point of a small finite
field at which the shadow drops rank, which by McCoy's theorem is how an
obstruction shows, and decides exactly when no such point is found.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace

from .bs12 import (
    BS12,
    BS12_A,
    BS12_C,
    Bs12Group,
    FiniteMetabelian,
    ring_add,
    ring_mul,
    shadow,
    unit_inverse,
)
from .diagrams import Diagram, SurgeryPresentation, diagram_hash, zero_surgery
from .errors import (
    BudgetExceeded,
    DsliceError,
    MalformedInput,
    NoSplitting,
    RelatorViolation,
)
from .groups import metabelian_quotient_homs
from .groebner import GroebnerBasis
from .laurent import ONE, ZERO, det
from .modules import TARGET_ORDER
from .snf import rank_mod_p
from .twisted import (
    _check_regular_budget,
    crowell_check,
    summand_specialization_check,
    transport_record,
    twisted_rows,
)
from .words import GroupPresentation, Word, fox_row

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
    "verify_stage_b",
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
RULE_ATTEMPT = "general-attempt/right-inverse"

# Generators of the target group's own presentation < a, c | a c a^-1 c^-2 >.
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


def _target_word(g: BS12) -> Word:
    """A word in a, c evaluating to ``g``: a^-e c^num a^(e+k)."""
    e = g.q.exp
    num = g.q.num
    letters = [(_GEN_A, -1)] * e
    letters += [(_GEN_C, 1 if num > 0 else -1)] * abs(num)
    tail = e + g.k
    letters += [(_GEN_A, 1 if tail > 0 else -1)] * abs(tail)
    return Word(tuple(letters))


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


_ID_IMAGES = (BS12_A, BS12_C)
_RHO_FOX = fox_row(RHO, 2, _ID_IMAGES, Bs12Group)


def _check_lift(word: Word, delta: dict) -> None:
    """The lift must reproduce the word's Fox vector: a chain-map identity."""
    rhs = tuple(ring_mul(delta, f, Bs12Group) for f in _RHO_FOX)
    if fox_row(word, 2, _ID_IMAGES, Bs12Group) != rhs:
        raise RelatorViolation("lift fails the Fox vector identity")


# ---------------------------------------------------------------------------
# right inverses over the target group ring


def _ring_right_inverse(rows, ncols: int, budget: int = 300000):
    """Find Y with rows * Y = identity by unit-pivot column elimination.

    Column operations are right multiplications, so the accumulated
    transform composes to a genuine right inverse.  Pivots are picked
    Markowitz style (least fill first).  Returns None when some row
    cannot be given a unit pivot.
    """
    m = len(rows)
    if m == 0:
        return []
    M = [[dict(e) for e in row] for row in rows]
    T = [
        [({Bs12Group.identity(): 1} if i == j else {}) for j in range(ncols)]
        for i in range(ncols)
    ]
    ops = 0
    piv: dict = {}
    used = set()
    while len(piv) < m:
        found = None
        best = None
        for i in range(m):
            if i in piv:
                continue
            row_nnz = sum(1 for e in M[i] if e)
            for j in range(ncols):
                if j in used or unit_inverse(M[i][j], Bs12Group) is None:
                    continue
                col_nnz = sum(1 for r in range(m) if r not in piv and M[r][j])
                col_terms = sum(len(M[r][j]) for r in range(m))
                cost = ((row_nnz - 1) * (col_nnz - 1), col_terms)
                if best is None or cost < best:
                    best = cost
                    found = (i, j)
        if found is None:
            return None
        i, j = found
        s = unit_inverse(M[i][j], Bs12Group)
        for r in range(m):
            if M[r][j]:
                ops += len(M[r][j])
                M[r][j] = ring_mul(M[r][j], s, Bs12Group)
        for r in range(ncols):
            if T[r][j]:
                ops += len(T[r][j])
                T[r][j] = ring_mul(T[r][j], s, Bs12Group)
        for j2 in range(ncols):
            if j2 == j:
                continue
            s2 = M[i][j2]
            if not s2:
                continue
            for r in range(m):
                if M[r][j]:
                    ops += len(M[r][j]) * len(s2)
                    M[r][j2] = ring_add(
                        M[r][j2], ring_mul(M[r][j], s2, Bs12Group), -1
                    )
            for r in range(ncols):
                if T[r][j]:
                    ops += len(T[r][j]) * len(s2)
                    T[r][j2] = ring_add(
                        T[r][j2], ring_mul(T[r][j], s2, Bs12Group), -1
                    )
        if ops > budget:
            raise BudgetExceeded("right inverse search budget exhausted")
        piv[i] = j
        used.add(j)
    return [[T[r][piv[i]] for i in range(m)] for r in range(ncols)]


def _verify_right_inverse(rows, y) -> bool:
    m = len(rows)
    identity = Bs12Group.identity()
    for i in range(m):
        for k in range(m):
            acc: dict = {}
            for j, entry in enumerate(rows[i]):
                if entry and y[j][k]:
                    acc = ring_add(acc, ring_mul(entry, y[j][k], Bs12Group))
            want = {identity: 1} if i == k else {}
            if acc != want:
                return False
    return True


# ---------------------------------------------------------------------------
# commutative shadow gate

# The group homomorphism onto the infinite cyclic quotient (kill the
# dyadic part) linearizes any right-inverse identity, so a matrix whose
# shadow is not right-invertible over Lambda = Z[t, t^-1] never admits one
# over the group ring.  McCoy's theorem (W. C. Brown, Matrices over
# Commutative Rings, 1993): an m x n matrix over a commutative ring has a
# right inverse exactly when its m x m minors generate the unit ideal.  If
# they do not, they lie in a maximal ideal (p, f) of Lambda, and the shadow
# drops rank at a root alpha of f in an extension of F_p.
#
# So the gate first searches for a witness: a point t = alpha of F_p^* at
# which the rank mod p is below m.  t -> alpha is a ring map Lambda -> F_p,
# so a witness is a proof of obstruction.  Each group-ring entry is
# evaluated straight into F_p (g contributes c * alpha^(g.k)).  The point
# alpha = 2 mod 3 comes first, where both t - 2 and 2t - 1 vanish, the
# annihilators of the two summands; then every other alpha in F_p^* for
# p <= 13.  Only when no point is a witness does the gate decide exactly:
# a square shadow needs a unit determinant, and a wide one needs every
# unit vector in the module spanned by its columns (strong Groebner
# membership).  When that computation runs out of budget, the matrix is
# passed on to the search, which re-verifies anything it finds.
#
# Apart from a budget that runs out, the gate is exact, so it obstructs
# every matrix that a weaker sound test obstructs (one whose maximal minors
# share a nonunit factor, say): replacing such a test by this gate moves
# decisions only from "passed on" to "obstructed".  An obstructed matrix
# has no right inverse over the group ring, so no ``holds`` verdict depends
# on the gate.

_WITNESS_POINTS = ((3, 2),) + tuple(
    (p, a) for p in (2, 3, 5, 7, 11, 13) for a in range(1, p) if (p, a) != (3, 2)
)


def _shadow_witness(rows):
    """The first point (p, alpha) where the shadow of ``rows`` drops rank."""
    m = len(rows)
    for p, a in _WITNESS_POINTS:
        powers: dict = {}  # alpha^k mod p; the entries share few exponents
        image = []
        for row in rows:
            vals = []
            for e in row:
                v = 0
                for g, c in e.items():
                    w = powers.get(g.k)
                    if w is None:
                        w = powers[g.k] = pow(a, g.k, p)
                    v += c * w
                vals.append(v)
            image.append(vals)
        if rank_mod_p(image, p) < m:
            return p, a
    return None


def _shadow_obstructed(rows, ncols: int) -> bool:
    """True when the commutative shadow rules out any right inverse."""
    m = len(rows)
    if m > ncols or _shadow_witness(rows) is not None:
        return True
    image = [[shadow(e) for e in row] for row in rows]
    if m == ncols:
        return not det(image).is_unit()
    try:
        basis = GroebnerBasis(list(zip(*image)), m)
        return not all(
            basis.contains([ONE if r == i else ZERO for r in range(m)])
            for i in range(m)
        )
    except BudgetExceeded:
        return False


# ---------------------------------------------------------------------------
# stage B: bounded right-inverse search


def _ser_ring(x: dict):
    return sorted(
        (g.k, g.q.num, g.q.exp, c) for g, c in x.items()
    )


def _de_ring(data) -> dict:
    from .laurent import DyadicRational

    return {
        BS12(k, DyadicRational(num, exp)): c for k, num, exp, c in data
    }


def _ser_matrix(y):
    return [[_ser_ring(e) for e in row] for row in y]


def _deleted_rows(full_rows, meridian: int):
    return [
        [e for i, e in enumerate(row) if i != meridian] for row in full_rows
    ]


def _relative_rows(pres: GroupPresentation, hom, full_rows, lift_budget: int):
    n = pres.num_generators
    image_words = {i: _target_word(hom.images[i]) for i in range(n)}
    rows = []
    for r, jac in zip(pres.relators, full_rows):
        w = r.substitute(image_words)
        delta = relator_lift(w, budget=lift_budget)
        _check_lift(w, delta)
        rows.append(list(jac) + [delta])
    return rows


def _stage_b_methods(pres, meridian, hom, lift_budget):
    """Candidate matrices for the right-inverse hunt, laziest first.

    Maps each method name to a builder of its ``(rows, ncols)``.
    ``deleted`` drops the meridian column of the free derivative matrix;
    ``relative`` keeps every column and appends the relation-lifting
    column, which presents the module relative to the basepoint fiber.
    """
    full = twisted_rows(pres, hom.images, Bs12Group)
    n = pres.num_generators
    return {
        "deleted": lambda: (_deleted_rows(full, meridian), n - 1),
        "relative": lambda: (_relative_rows(pres, hom, full, lift_budget), n + 1),
    }


def _verdict(status, evidence=None, reason=""):
    out = {"status": status, "evidence": evidence or {"kind": "None"}}
    if reason:
        out["reason"] = reason
    return out


def stage_b_certificate(
    pres: GroupPresentation,
    meridian: int,
    hom,
    lift_budget: int = 20000,
    solve_budget: int = 300000,
) -> dict:
    """Bounded general search for the per-summand lifting condition.

    Tries each candidate matrix with each single redundant-relator drop,
    skipping candidates whose commutative shadow already rules a right
    inverse out.  A found witness is re-verified by multiplication.  The
    search never reports failure, only ``holds`` or ``undetermined``.
    """
    m = len(pres.relators)
    if m == 0:
        return _verdict(HOLDS, {
            "kind": "GeneralAttempt",
            "log": {"method": "deleted", "dropped": None, "witness": []},
        })
    attempts = []
    budget_hit = False
    violation = ""
    methods = _stage_b_methods(pres, meridian, hom, lift_budget)
    for method, build in methods.items():
        try:
            rows, ncols = build()
        except BudgetExceeded:
            # methods are ordered cheapest first, so stop at the first blowup
            budget_hit = True
            break
        except RelatorViolation as exc:
            violation = str(exc)
            break
        drops = []
        if m <= ncols:
            drops.append(None)
        if m - 1 <= ncols:
            drops.extend(range(m))
        for j in drops:
            kept = rows if j is None else [rows[i] for i in range(m) if i != j]
            if _shadow_obstructed(kept, ncols):
                attempts.append((method, j, "shadow"))
                continue
            try:
                y = _ring_right_inverse(kept, ncols, budget=solve_budget)
            except BudgetExceeded:
                attempts.append((method, j, "budget"))
                budget_hit = True
                continue
            if y is None or not _verify_right_inverse(kept, y):
                attempts.append((method, j, "stuck"))
                continue
            return _verdict(HOLDS, {
                "kind": "GeneralAttempt",
                "log": {
                    "method": method,
                    "dropped": j,
                    "witness": _ser_matrix(y),
                },
            })
    if budget_hit:
        reason = "budget"
    elif violation:
        reason = violation
    elif attempts and all(a[2] == "shadow" for a in attempts):
        reason = "commutative shadow obstructs every candidate matrix"
    else:
        reason = "no unit-pivot witness found"
    return _verdict(UNDETERMINED, reason=reason)


def verify_stage_b(
    plain: SurgeryPresentation,
    which: str,
    verdict: dict,
    lift_budget: int = 20000,
) -> bool:
    """Replay a stored stage-B witness by plain multiplication, on the
    matrix the ``_stage_b_methods`` entry named in its log rebuilds."""
    evidence = verdict.get("evidence", {})
    if verdict.get("status") != HOLDS or evidence.get("kind") != "GeneralAttempt":
        return False
    if not plain.splitting.certified:
        return False
    log = evidence.get("log", {})
    plus, minus = plain.summands
    methods = _stage_b_methods(
        plain.stage_b_group, plain.meridian,
        plus if which == "P1" else minus, lift_budget,
    )
    build = methods.get(log.get("method"))
    if build is None:
        return False
    try:
        rows, ncols = build()
    except (BudgetExceeded, RelatorViolation):
        return False
    j = log.get("dropped")
    kept = rows if j is None else [r for i, r in enumerate(rows) if i != j]
    y = [[_de_ring(e) for e in row] for row in log.get("witness", [])]
    if len(y) != ncols or any(len(r) != len(kept) for r in y):
        return False
    return _verify_right_inverse(kept, y)


# ---------------------------------------------------------------------------
# staged verdicts


def ext_condition(
    plain: SurgeryPresentation,
    which: str,
    subject_hash: str | None = None,
    registry: dict | None = None,
    lift_budget: int = 20000,
    solve_budget: int = 300000,
) -> dict:
    """Three-valued verdict for summand ``which`` of ``plain``.

    Stage A is the curated registry row for the subject's canonical hash.
    Stage B is the bounded right-inverse search on ``plain.stage_b_group``
    through the summand map from ``plain.summands``.  Satellites and
    families build their transport verdicts themselves.  Raises
    NoSplitting when ``plain.splitting`` is not certified.
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
    plus, minus = plain.summands
    return stage_b_certificate(
        plain.stage_b_group, plain.meridian, plus if which == "P1" else minus,
        lift_budget=lift_budget, solve_budget=solve_budget,
    )


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
        elif kind == "GeneralAttempt" and v["status"] == HOLDS:
            rule = RULE_ATTEMPT
        if rule and rule not in out:
            out.append(rule)
    return out


def certify_doubly_slice(
    diagram: Diagram,
    name: str = "",
    registry: dict | None = None,
    stageb_budget: int = 300000,
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
        tag: ext_condition(
            plain, tag, subject_hash=h, registry=registry,
            solve_budget=stageb_budget,
        )
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
    words = dict(plain.curve_words)
    linking = dict(plain.curve_linking)
    for name, data in curves.items():
        words[name] = Word(tuple((g, s) for g, s in data["word"]))
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
    """The certificate the CLI builds from ``cert``'s stored inputs.

    Returns it with the surgery presentation its stage-B witnesses refer
    to: the subject's for a knot, the pattern's otherwise.
    """
    subject, inputs = cert["subject"], cert["inputs"]
    kind = subject["kind"]
    if kind not in ("knot", "satellite", "family"):
        raise MalformedInput(f"unknown certificate kind {kind!r}")
    if kind == "knot":
        d = _resolved(resolve, inputs["diagram"])
        hits = map(_QUOTIENT_LINE.fullmatch, cert["hypotheses"])
        hit = next(filter(None, hits), None)
        quotient = (int(hit[1]), int(hit[2])) if hit else (2, 3)
        fresh = certify_doubly_slice(
            d, name=subject["name"] or "", registry=registry,
            quotient=quotient,
        )
        return fresh, zero_surgery(d, 0)
    d = _resolved(resolve, inputs["pattern"])
    base = certify_doubly_slice(d, registry=registry)
    if kind == "satellite":
        curve = subject["curve"]
        plain = _restore_curves(zero_surgery(d, 0), {curve: {
            "word": inputs["curve_word"], "linking": inputs["curve_linking"],
        }})
        label = subject["companion"]
        name = label["name"] if isinstance(label, dict) else None
        fresh = certify_satellite(
            base, plain, curve, _resolved(resolve, inputs["companion"]),
            companion_name=name or "", companion_kind=inputs["companion_kind"],
        )
        return fresh, plain
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
    fresh = certify_family(
        plain, base.subject["hash"], base, infections,
        registry=registry, pattern_name=subject["pattern"]["name"] or "",
    )
    return fresh, plain


def replay_certificate(cert: dict, resolve, registry: dict | None = None) -> bool:
    """Whether ``cert`` is exactly the certificate its stored inputs give.

    The certificate is rebuilt by the call the CLI makes for its kind:
    ``certify_doubly_slice`` on the diagram stored under
    ``inputs.diagram``, at the quotient read from its ``metabelian
    quotient maps at (n,m)`` hypothesis ((2, 3) when it has none) and the
    default stage-B budget; ``certify_satellite`` or ``certify_family`` on
    the pattern stored under ``inputs.pattern``, with the stored curve
    words and companions.  The rebuilt certificate's canonical JSON must
    equal ``json.dumps(cert, indent=2, sort_keys=True)`` byte for byte, so
    any edited, removed or added field rejects it.  Subject and companion
    names are labels taken as inputs: a certificate with a renamed label is
    still the one the CLI prints for that diagram under that name, and
    replays.  Each stage-B witness is then re-verified by multiplication.

    ``resolve`` maps a diagram hash to a Diagram, or None when it knows
    none.  Replay never raises: a malformed certificate, an unresolved
    hash or a rebuild that raises ``DsliceError`` gives False.
    """
    try:
        if cert["version"] != CERT_VERSION:
            return False
        fresh, plain = _rebuild(cert, resolve, registry)
        if fresh.to_json() != json.dumps(cert, indent=2, sort_keys=True):
            return False
        return all(
            verify_stage_b(plain, tag, v)
            for tag, v in fresh.verdicts.items()
            if v["status"] == HOLDS
            and v["evidence"]["kind"] == "GeneralAttempt"
        )
    except (LookupError, TypeError, AttributeError, ValueError, DsliceError):
        return False
