"""Group-level machinery on top of presentations.

Four independent services live here:

* Tietze simplification with tracked generator images, so data attached
  to the original generators (probe words, distinguished meridians) can
  be rewritten into the smaller presentation.
* Construction of the two metabelian quotient maps onto BS(1,2) from a
  certified module splitting, one per summand, with exact dyadic
  translation parts extracted from tracked Groebner coordinates.
* Enumeration of homomorphisms onto the finite metabelian groups
  Z/n x| Z/m, done by linear algebra mod m on the Fox Jacobian
  evaluated at t = 2.
* Reidemeister-Schreier rewriting for the homology of finite covers,
  and a membership certificate for the second derived subgroup.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

from .bs12 import (
    BS12,
    Bs12Group,
    FiniteMetabelian,
    bs12_surjective,
    check_relators,
    evaluate_word,
)
from .errors import (
    BudgetExceeded,
    HypothesisNotMet,
    TargetMismatch,
    VerificationFailed,
)
from .laurent import ONE, ZERO, LaurentPoly
from .modules import _Degree
from .snf import abelian_invariants, nullspace_mod
from .words import GroupPresentation, Word, fox_row

__all__ = [
    "simplify_presentation",
    "MetabelianHom",
    "summand_homs",
    "metabelian_quotient_homs",
    "coset_action",
    "schreier_rows",
    "cover_rows",
    "finite_cover_homology",
    "second_derived_certificate",
]

# Largest group a cover computation enumerates: the image subgroup in
# coset_action, and the whole target for twisted.py's regular representation.
_REGULAR_CAP = 20000


def _cyclic_reduce(w: Word) -> Word:
    ls = w.letters
    while len(ls) >= 2 and ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1]:
        ls = ls[1:-1]
    return Word(ls)


def _occurrences(w: Word, g: int) -> int:
    return sum(1 for gg, _ in w.letters if gg == g)


def simplify_presentation(pres: GroupPresentation, keep=(), letter_budget=None):
    """Eliminate generators that some relator pins down uniquely.

    Whenever a relator contains a generator exactly once, that relator
    solves for the generator and both can be removed.  Returns
    ``(smaller_presentation, images)`` where ``images[i]`` expresses the
    i-th original generator as a word in the surviving ones.  Indices in
    ``keep`` are never eliminated.  Best effort: stops quietly when the
    rewritten relators would outgrow the letter budget.
    """
    keep = set(keep)
    n = pres.num_generators
    relators = [_cyclic_reduce(r) for r in pres.relators if r]
    subst = {i: Word.gen(i) for i in range(n)}
    alive = set(range(n))
    if letter_budget is None:
        letter_budget = 50 * (sum(len(r) for r in relators) + n + 20)

    while True:
        best = None
        for ri, r in enumerate(relators):
            counts: dict[int, int] = {}
            for g, _ in r.letters:
                counts[g] = counts.get(g, 0) + 1
            for g, c in counts.items():
                if c != 1 or g in keep:
                    continue
                elsewhere = sum(
                    _occurrences(s, g) for si, s in enumerate(relators) if si != ri
                )
                cost = (len(r) - 1, elsewhere, g, ri)
                if best is None or cost < best:
                    best = cost
        if best is None:
            break
        _, _, g, ri = best
        r = relators[ri]
        pos = next(k for k, (gg, _) in enumerate(r.letters) if gg == g)
        e = r.letters[pos][1]
        prefix = Word(r.letters[:pos])
        suffix = Word(r.letters[pos + 1:])
        if e == 1:
            wg = prefix.inverse() * suffix.inverse()
        else:
            wg = suffix * prefix
        replaced = [
            _cyclic_reduce(s.substitute({g: wg}))
            for si, s in enumerate(relators)
            if si != ri
        ]
        replaced = [s for s in replaced if s]
        if sum(len(s) for s in replaced) > letter_budget:
            break
        relators = []
        seen = set()
        for s in replaced:
            if s.letters in seen or s.inverse().letters in seen:
                continue
            seen.add(s.letters)
            relators.append(s)
        subst = {i: w.substitute({g: wg}) for i, w in subst.items()}
        alive.discard(g)

    order = sorted(alive)
    remap = {old: new for new, old in enumerate(order)}
    to_new = {old: Word.gen(remap[old]) for old in order}
    new_pres = GroupPresentation(
        tuple(pres.names[i] for i in order),
        tuple(r.substitute(to_new) for r in relators),
    )
    images = tuple(subst[i].substitute(to_new) for i in range(n))
    return new_pres, images


@dataclass(frozen=True)
class MetabelianHom:
    """A homomorphism to BS(1,2), one generator image per source generator.

    ``factor`` names the Laurent polynomial annihilating the translation
    part ("t-2" or "2t-1"); ``merid_exponent`` records whether the
    distinguished meridian maps to a or to a^-1.
    """

    images: tuple
    merid_exponent: int
    factor: str
    surjective: bool

    def __call__(self, word: Word) -> BS12:
        return evaluate_word(word, self.images, Bs12Group)


def summand_homs(plain):
    """The two quotient maps induced by the certified splitting of
    ``plain``, a SurgeryPresentation (read them as ``plain.summands``).

    Each splitting summand is a copy of Z[1/2] on which the meridian
    acts by 2 or by 1/2, so collapsing the other summand yields a map
    onto (a subgroup of) BS(1,2).  Translation parts come from the
    witness coordinates of each generator column, reduced by the tracked
    Groebner basis over ``[v1, v2] + rows`` that the splitting report
    keeps; they are well defined exactly modulo the summand's
    annihilator, which evaluation at t = 2 (resp. t = 1/2) kills.
    """
    report = plain.splitting
    if not report.certified:
        raise HypothesisNotMet("no certified splitting to project from")
    pres, meridian, weights = plain.group, plain.meridian, plain.weights
    module = plain.module
    gb = report.basis
    plus = []
    minus = []
    for i in range(pres.num_generators):
        if i == meridian:
            p = q = ZERO
        else:
            col = i if i < meridian else i - 1
            vec = tuple(ONE if j == col else ZERO for j in range(module.ncols))
            nf, coords = gb.reduce(vec)
            if nf:
                raise TargetMismatch(
                    "splitting witnesses fail to generate; report is inconsistent"
                )
            p = coords.get(0, ZERO)
            q = coords.get(1, ZERO)
        plus.append(BS12(weights[i], p.evaluate_dyadic(1)))
        minus.append(BS12(-weights[i], q.evaluate_dyadic(-1)))
    h_plus = MetabelianHom(tuple(plus), 1, "t-2", bs12_surjective(plus))
    h_minus = MetabelianHom(tuple(minus), -1, "2t-1", bs12_surjective(minus))
    check_relators(pres, h_plus.images, Bs12Group)
    check_relators(pres, h_minus.images, Bs12Group)
    return h_plus, h_minus


def metabelian_quotient_homs(
    plain, n: int, m: int, surjective_only=False, cap=250000
):
    """All homomorphisms from ``plain.group`` to Z/n x| Z/m lifting the
    mod-n abelianisation, for a SurgeryPresentation ``plain``.

    A candidate is determined by its vector of translation parts, and
    the relator conditions are exactly the kernel of ``plain.jacobian``
    evaluated at t = 2 over Z/m.  Returns ``(target, image_tuples)``
    with a deterministic ordering.
    """
    target = FiniteMetabelian(n, m)
    pres, meridian, weights = plain.group, plain.meridian, plain.weights
    ng = pres.num_generators
    rows_mod = [[p.evaluate_mod(2, m) for p in row] for row in plain.jacobian]
    basis = nullspace_mod(rows_mod, m, ncols=ng)
    if m ** len(basis) > cap:
        raise BudgetExceeded(
            f"translation kernel too large to enumerate ({m}^{len(basis)})"
        )
    span = {(0,) * ng}
    for b in basis:
        span = {
            tuple((x[i] + k * b[i]) % m for i in range(ng))
            for x in span
            for k in range(m)
        }
    homs = []
    for chi in sorted(span):
        if surjective_only and not _finite_surjective(chi, weights, meridian, n, m):
            continue
        images = tuple((weights[i] % n, chi[i]) for i in range(ng))
        check_relators(pres, images, target)
        homs.append(images)
    return target, homs


def _finite_surjective(chi, weights, meridian, n, m) -> bool:
    """Does the hom with translation vector chi hit all of Z/n x| Z/m?

    The meridian maps to (1, tau), a section of the Z/n part, so a
    Schreier transversal by its powers identifies the image's
    translation part with the ideal generated by
    chi_i + tau*(1 - 2^k_i) mod m.
    """
    tau = chi[meridian]
    g = 0
    for i, x in enumerate(chi):
        k = weights[i] % n
        g = gcd(g, (x + tau * (1 - pow(2, k, m))) % m)
    return gcd(g, m) == 1


def coset_action(pres: GroupPresentation, images, target):
    """The breadth-first Schreier transversal of the image subgroup.

    Returns ``(step, tree)``: ``step[p][i]`` is the coset of
    ``elements[p] * images[i]``, cosets numbered in the order the search
    first reaches them, and ``tree`` lists the edges ``(p, i)`` that
    reached a new coset.  Raises BudgetExceeded past ``_REGULAR_CAP``
    cosets.
    """
    ident = target.identity()
    index = {ident: 0}
    elements = [ident]
    tree = []
    # cosets leave the queue in index order, so step is filled in that
    # order too
    step = []
    queue = deque([0])
    ng = pres.num_generators
    while queue:
        p = queue.popleft()
        h = elements[p]
        out = []
        for i in range(ng):
            nxt = target.mul(h, images[i])
            if nxt not in index:
                if len(elements) >= _REGULAR_CAP:
                    raise BudgetExceeded("image subgroup larger than the cap")
                index[nxt] = len(elements)
                elements.append(nxt)
                tree.append((p, i))
                queue.append(index[nxt])
            out.append(index[nxt])
        step.append(tuple(out))
    return tuple(step), tuple(tree)


def schreier_rows(pres: GroupPresentation, action):
    """Abelianised relators of the cover with coset action ``action``.

    Rewrites every relator at every coset into the Schreier generators
    of ``action = (step, tree)`` from ``coset_action``.  Returns
    ``(rows, ncols, ncosets)``: sparse integer rows over the ``ncols``
    Schreier generators, and the number of cosets.
    """
    step, tree = action
    ncosets = len(step)
    ng = pres.num_generators
    # back[i][q]: the coset p with step[p][i] = q, since right
    # multiplication by an image permutes the image subgroup
    back = [[0] * ncosets for _ in range(ng)]
    for p, out in enumerate(step):
        for i, q in enumerate(out):
            back[i][q] = p

    tree = set(tree)
    schreier: dict[tuple[int, int], int] = {}
    for p in range(ncosets):
        for i in range(ng):
            if (p, i) not in tree:
                schreier[(p, i)] = len(schreier)
    nschreier = len(schreier)
    if nschreier != ncosets * ng - (ncosets - 1):
        raise VerificationFailed("Schreier generator count is off")

    rows = []
    for p0 in range(ncosets):
        for r in pres.relators:
            row: dict[int, int] = {}
            p = p0
            for g, e in r.letters:
                if e == 1:
                    s = schreier.get((p, g))
                    if s is not None:
                        row[s] = row.get(s, 0) + 1
                    p = step[p][g]
                else:
                    p = back[g][p]
                    s = schreier.get((p, g))
                    if s is not None:
                        row[s] = row.get(s, 0) - 1
            rows.append({k: v for k, v in row.items() if v})
    return rows, nschreier, ncosets


def cover_rows(pres: GroupPresentation, images, target):
    """Abelianised relators of the cover attached to ker(pi -> target):
    ``schreier_rows`` of the map's ``coset_action``."""
    return schreier_rows(pres, coset_action(pres, images, target))


def finite_cover_homology(pres: GroupPresentation, images, target):
    """Integral homology ``(free_rank, torsion_divisors)`` of the cover."""
    rows, ncols, _ = cover_rows(pres, images, target)
    return abelian_invariants(rows, ncols)


def second_derived_certificate(plain, word: Word) -> bool:
    """Exact membership test for the second derived subgroup of
    ``plain.group``, for a SurgeryPresentation ``plain``.

    A loop lies in the second derived subgroup iff it dies in the
    maximal metabelian quotient: its total winding must vanish and its
    Fox vector v must lie in the row span of ``plain.jacobian``.  That
    span test runs on the Alexander module instead.  Fox's fundamental
    formula (Fox, Free differential calculus I, Ann. Math. 57, 1953)
    gives sum_j v_j (t^w_j - 1) = 0 for a word of winding zero, and the
    same for every relator row r.  If v', v without the meridian entry,
    equals sum_i c_i r_i' in the meridian-deleted rows, then
    u = v - sum_i c_i r_i vanishes off the meridian, so u_m (t - 1) = 0
    (the meridian has weight 1) and u_m = 0 because Lambda is a domain.
    So v lies in the row span of ``plain.jacobian`` exactly when v' lies
    in ``plain.module``, which ``plain.module.basis`` decides.  The
    identity is checked exactly, and a Fox vector that breaks it raises
    VerificationFailed.  Every check is exact, so the answer is a theorem
    in either direction.
    """
    weights, meridian = plain.weights, plain.meridian
    if evaluate_word(word, weights, _Degree) != 0:
        return False
    n = plain.group.num_generators
    vec = tuple(LaurentPoly(e) for e in fox_row(word, n, weights, _Degree))
    total = ZERO
    for v, w in zip(vec, weights):
        total = total + v * (LaurentPoly.monomial(1, w) - ONE)
    if not total.is_zero():
        raise VerificationFailed("Fox vector breaks the fundamental formula")
    return plain.module.basis.contains(vec[:meridian] + vec[meridian + 1:])
