"""Group-level machinery on top of presentations.

Four independent services live here:

* Tietze simplification with tracked generator images, the indices of
  the surviving generators and a record of each elimination, so data
  attached to the original generators (maps, distinguished meridians)
  can be rewritten into the smaller presentation.  ``check_tietze``
  replays the record with free reduction alone and checks that the
  Tietze words give an isomorphism, once per presentation; the cover
  cross-checks of ``twisted`` read each map on the small presentation's
  kept generators, with no evaluation at all.
* Construction of the two metabelian quotient maps onto BS(1,2) from a
  certified module splitting, one per summand, with exact dyadic
  translation parts read off the small presentation's Alexander module
  at t = 2 and t = 1/2 and extended through the Tietze words.
* Enumeration of homomorphisms onto the finite metabelian groups
  Z/n x| Z/m, read off the kernel of the Fox Jacobian at t = 2 over Z/m
  that the surgery presentation keeps, one per m, and checked on every
  full relator in one pass by ``bs12.check_metabelian_relators``.
* Reidemeister-Schreier rewriting for the homology of finite covers,
  and a membership certificate for the second derived subgroup.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .bs12 import (
    BS12,
    Bs12Group,
    FiniteMetabelian,
    _DyadicImages,
    bs12_surjective,
    check_metabelian_relators,
    check_relators,
    evaluate_word,
)
from .errors import (
    BudgetExceeded,
    HypothesisNotMet,
    VerificationFailed,
)
from .laurent import ONE, ZERO, LaurentPoly, corank_one_kernel
from .modules import _Degree
from .snf import abelian_invariants
from .words import GroupPresentation, Word, _inverse_letters, _substitute, fox_row

__all__ = [
    "simplify_presentation",
    "check_tietze",
    "MetabelianHom",
    "summand_homs",
    "metabelian_quotient_homs",
    "coset_action",
    "schreier_rows",
    "finite_cover_homology",
    "second_derived_certificate",
]

# Largest group a cover computation enumerates: the image subgroup in
# coset_action, and the whole target (_check_regular_budget) for twisted.py's
# regular representation and for metabelian_quotient_homs.
_REGULAR_CAP = 20000

# Most translation vectors metabelian_quotient_homs enumerates: m^(kernel
# dimension) may not exceed it.
_KERNEL_CAP = 250000

# Tietze rewriting stops before the relators would hold more letters than
# this many times the input's letters plus its generators plus 20.
_LETTER_BUDGET = 50


def _cyclic_reduce(ls: tuple) -> tuple:
    k = 0
    while 2 * k + 1 < len(ls) and ls[k][0] == ls[~k][0] and ls[k][1] != ls[~k][1]:
        k += 1
    return ls[k:len(ls) - k] if k else ls


def _occurrences(ls: tuple, total: dict) -> dict:
    """How often each generator occurs in ``ls``, also added to ``total``."""
    c = {}
    for h, _ in ls:
        c[h] = c.get(h, 0) + 1
    for h, k in c.items():
        total[h] = total.get(h, 0) + k
    return c


def _uncount(c: dict, total: dict) -> None:
    for h, k in c.items():
        total[h] -= k


def simplify_presentation(pres: GroupPresentation, keep=()):
    """Eliminate generators that some relator pins down uniquely.

    Whenever a relator contains a generator exactly once, that relator
    solves for the generator and both can be removed.  Returns
    ``(smaller_presentation, images, kept, record)``: ``kept`` is the
    sorted tuple of surviving original indices, the j-th small generator
    being original generator ``kept[j]``, and ``images[i]`` expresses the
    i-th original generator as a word in the small generators.
    ``record`` lists the eliminations in order as ``(g, ri, word)``:
    generator ``g`` was solved from original relator ``pres.relators[ri]``
    as ``word``, in the original generators not eliminated before it.
    ``check_tietze`` replays it.  Indices in ``keep`` are never
    eliminated.  Best effort: stops quietly when the rewritten relators
    would outgrow ``_LETTER_BUDGET`` times the input.  The pass runs on
    cyclically reduced letter tuples and builds words at the end.
    """
    keep = set(keep)
    n = pres.num_generators
    # relators[i], its inverse, its counts and its index in pres.relators
    relators, inverses, counts, origins = [], [], [], []
    total = {}
    for ri, r in enumerate(pres.relators):
        ls = _cyclic_reduce(r.letters)
        if ls:
            relators.append(ls)
            inverses.append(_inverse_letters(ls))
            counts.append(_occurrences(ls, total))
            origins.append(ri)
    record = []
    letter_budget = _LETTER_BUDGET * (sum(map(len, relators)) + n + 20)

    while True:
        best = None
        for ri, c in enumerate(counts):
            size = len(relators[ri]) - 1
            if best is not None and size > best[0]:
                continue
            for g, k in c.items():
                if k != 1 or g in keep:
                    continue
                # (letters left in the solution, occurrences elsewhere, ...)
                cost = (size, total[g] - 1, g, ri)
                if best is None or cost < best:
                    best = cost
        if best is None:
            break
        _, _, g, ri = best
        r, rinv, m = relators[ri], inverses[ri], len(relators[ri])
        pos = next(k for k, (h, _) in enumerate(r) if h == g)
        # read from x_g^e, r is x_g^e u and x_g = u^-e, reduced since r is
        # cyclically reduced; u^-1 is r^-1 rotated, less x_g^-e
        wg = (r[pos + 1:] + r[:pos] if r[pos][1] == -1
              else rinv[m - pos:] + rinv[:m - pos - 1])
        images = {g: Word._reduced(wg)}
        # a relator without g stays, with its inverse and counts; the
        # counts of the others leave total, and a rewritten one is
        # recounted below
        rewritten = []
        for si, (s, c) in enumerate(zip(relators, counts)):
            if si != ri and g not in c:
                rewritten.append((s, inverses[si], c, origins[si]))
                continue
            _uncount(c, total)
            s = _cyclic_reduce(_substitute(s, images)) if si != ri else ()
            if s:
                rewritten.append((s, None, None, origins[si]))
        if sum(len(s) for s, _, _, _ in rewritten) > letter_budget:
            break
        record.append((g, origins[ri], images[g]))
        relators, inverses, counts, origins = [], [], [], []
        seen = set()
        for s, sinv, c, o in rewritten:
            if sinv is None:
                sinv = _inverse_letters(s)
            if s in seen or sinv in seen:
                # a repeat, up to inversion, of a relator kept before it
                if c is not None:
                    _uncount(c, total)
                continue
            seen.add(s)
            relators.append(s)
            inverses.append(sinv)
            counts.append(_occurrences(s, total) if c is None else c)
            origins.append(o)

    # a solution holds only kept generators and ones eliminated after it,
    # so resolving the latest first leaves every word in kept generators
    solved = {}
    for g, _, wg in reversed(record):
        solved[g] = wg.substitute(solved)
    kept = tuple(i for i in range(n) if i not in solved)
    new_of = {old: new for new, old in enumerate(kept)}

    def renamed(ls):
        return Word._reduced(tuple((new_of[h], f) for h, f in ls))

    new_pres = GroupPresentation(
        tuple(pres.names[i] for i in kept), tuple(map(renamed, relators))
    )
    images = tuple(
        renamed(solved[i].letters if i in solved else ((i, 1),)) for i in range(n)
    )
    return new_pres, images, kept, tuple(record)


def _is_rotation(w: tuple, s: tuple) -> bool:
    """Is the letter tuple ``w`` a rotation of ``s``?"""
    if len(w) != len(s):
        return False
    ss = s + s
    return any(
        x == w[0] and ss[k:k + len(w)] == w for k, x in enumerate(s)
    )


def check_tietze(pres: GroupPresentation, simplified, record) -> None:
    """Check that ``simplified`` presents the group of ``pres``, by free
    reduction alone; raise VerificationFailed otherwise.

    ``simplified`` is ``(small, words, kept)`` and ``record`` the
    elimination record, both from ``simplify_presentation``.  Let phi send
    original generator i to ``words[i]`` and psi send small generator j
    to original generator ``kept[j]``.  Four checks:

    * kept: ``words[kept[j]]`` is small generator j, so phi psi is the
      identity, and the eliminated generators of ``record`` are the
      others, each once;
    * backward: each eliminating relator, cyclically reduced, with the
      earlier solutions substituted in order and cyclically reduced
      again, holds its generator x_g exactly once and dies when x_g is
      replaced by the recorded word, so x_g equals that word in the full
      group; the word, with the Tietze words substituted, is x_g's own
      Tietze word;
    * forward: each full relator with the Tietze words substituted,
      cyclically reduced, is empty or a rotation of a small relator or
      of its inverse (an eliminating relator's image is empty by the
      backward check, so only the others are substituted);
    * coverage: every small relator occurs in the forward image.

    Then phi maps full relators into the normal closure of the small
    ones.  Backward, read from the last elimination to the first, shows
    x_g = psi(phi(x_g)) in the full group for every generator, since each
    recorded word holds only kept generators and ones eliminated later.
    So psi sends each small relator, a cyclic conjugate of some phi(r)
    or its inverse, to a conjugate of r or its inverse, and phi and psi
    are mutually inverse isomorphisms.
    """
    small, words, kept = simplified
    n = pres.num_generators
    gone = [g for g, _, _ in record]
    if len(words) != n or sorted(gone + list(kept)) != list(range(n)):
        raise VerificationFailed("record and kept generators do not partition")
    if any(not 0 <= ri < len(pres.relators) for _, ri, _ in record):
        raise VerificationFailed("record names a relator the input lacks")
    for j, i in enumerate(kept):
        if words[i] != Word.gen(j):
            raise VerificationFailed(f"kept generator {i} is not small generator {j}")
    phi = dict(enumerate(words))
    position = {g: p for p, (g, _, _) in enumerate(record)}

    def between(letters, lo, hi):
        """Record positions strictly between lo and hi of the letters."""
        return {position[h] for h, _ in letters if lo < position.get(h, hi) < hi}

    for at_g, (g, ri, wg) in enumerate(record):
        r = Word._reduced(_cyclic_reduce(pres.relators[ri].letters))
        # substitute the earlier solutions r holds in record order, as a
        # scan over all would: each adds generators of later positions,
        # and one of an earlier position stays, as the scan is past it
        queue = sorted(between(r.letters, -1, at_g))
        while queue:
            p = heappop(queue)
            h, _, wh = record[p]
            if (h, 1) in r.letters or (h, -1) in r.letters:
                r = r.substitute({h: wh})
                for q in between(wh.letters, p, at_g) - set(queue):
                    heappush(queue, q)
        ls = _cyclic_reduce(r.letters)
        at = [k for k, (h, _) in enumerate(ls) if h == g]
        if len(at) != 1:
            raise VerificationFailed(f"relator {ri} holds generator {g} {len(at)} times")
        # read from x_g^e, the relator is x_g^e u, which dies under
        # x_g -> wg exactly when wg^e = u^-1
        k = at[0]
        u = ls[k + 1:] + ls[:k]
        if wg.letters != (_inverse_letters(u) if ls[k][1] == 1 else u):
            raise VerificationFailed(f"relator {ri} does not solve for generator {g}")
        if wg.substitute(phi) != words[g]:
            raise VerificationFailed(f"generator {g}'s Tietze word misses its solution")
    # phi(x_h) = phi(wh) for every eliminated h, so an eliminating relator,
    # conjugate to x_g^e u once the earlier solutions are substituted, maps
    # to a conjugate of phi(wg^e u) = 1 and reaches no small relator
    eliminating = {ri for _, ri, _ in record}
    classes = [(s.letters, _inverse_letters(s.letters)) for s in small.relators]
    hit = set()
    for ri, r in enumerate(pres.relators):
        if ri in eliminating:
            continue
        image = _cyclic_reduce(r.substitute(phi).letters)
        if not image:
            continue
        # small relators equal up to rotation and inversion are all hit
        matched = {j for j, (s, si) in enumerate(classes)
                   if _is_rotation(image, s) or _is_rotation(image, si)}
        if not matched:
            raise VerificationFailed(f"relator {ri} maps to no small relator")
        hit |= matched
    if len(hit) != len(small.relators):
        raise VerificationFailed("a small relator is the image of no relator")


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


def _translations(module, on, off, k: int) -> list:
    """The value at t = 2**k (k = +-1) of each column's coordinate along
    ``on``, when the columns of ``module`` are e_j = p_j on + q_j off
    modulo its rows for a certified witness pair ``on``, ``off``.

    At t = 2**k the ``on`` summand survives over Q and the ``off`` summand
    dies, since 2*2 - 1 = 3 and 1/2 - 2 = -3/2 are units of Q.  So the
    rows, each cleared of powers of two and read there (mirrored and read
    at t = 2 when k = -1), have a one-dimensional kernel over Q, whose
    generator x from ``laurent.corank_one_kernel`` is a functional on the
    module.  It kills ``off``, so x_j = p_j(2**k) (on . x), and p_j(2**k)
    is well defined because evaluation kills the ``on`` summand's
    annihilator.  Raises VerificationFailed unless x kills ``off`` but not
    ``on``, or when a value is not dyadic.
    """
    rows = []
    for row in module.rows:
        row = [p.mirror() if k < 0 else p for p in row]
        lo = min(p.min_degree() for p in row if p)
        rows.append([p.shift(-lo).evaluate_int(2) for p in row])
    x = corank_one_kernel(rows, module.ncols)
    scale, rest = (
        sum(a * p.evaluate_dyadic(k) for a, p in zip(x, v)) for v in (on, off)
    )
    if not scale or rest:
        point = "2" if k > 0 else "1/2"
        raise VerificationFailed(f"the functional at t = {point} misreads the witnesses")
    values = [Fraction(a) / scale for a in x]
    if any(v.denominator & (v.denominator - 1) for v in values):
        raise VerificationFailed("a summand translation is not dyadic")
    # whole translations stay ints, which BS(1,2) products keep cheap
    return [v.numerator if v.denominator == 1 else v for v in values]


def summand_homs(plain):
    """The two quotient maps induced by the certified splitting of
    ``plain``, a SurgeryPresentation (read them as ``plain.summands``).

    Each splitting summand is a copy of Z[1/2] on which the meridian
    acts by 2 or by 1/2, so collapsing the other summand yields a map
    onto (a subgroup of) BS(1,2).  A small generator column is
    p v1 + q v2 modulo the rows of ``plain.module``, p and q being
    defined exactly modulo the summands' annihilators, which evaluation
    at t = 2 (resp. t = 1/2) kills; ``_translations`` reads p(2) and
    q(1/2) off the rows.  The maps of the small generators extend to the
    full ones by evaluating the Tietze words, and are checked on every
    full relator.  Both run on ``bs12._DyadicImages``, in integers, with
    the small images scaled once per map.
    """
    report = plain.splitting
    if not report.certified:
        raise HypothesisNotMet("no certified splitting to project from")
    _, words, _ = plain.simplified
    meridian, weights = plain.small_meridian, plain.small_weights
    ps = _translations(plain.module, report.v1, report.v2, 1)
    qs = _translations(plain.module, report.v2, report.v1, -1)
    ps.insert(meridian, 0)
    qs.insert(meridian, 0)
    plus = [BS12(w, p) for w, p in zip(weights, ps)]
    minus = [BS12(-w, q) for w, q in zip(weights, qs)]
    homs = []
    for images, exponent, factor in ((plus, 1, "t-2"), (minus, -1, "2t-1")):
        small = _DyadicImages(images)
        images = tuple(small.value(w.letters) for w in words)
        check_relators(plain.group, images, Bs12Group)
        homs.append(MetabelianHom(images, exponent, factor, bs12_surjective(images)))
    return tuple(homs)


def _check_regular_budget(target) -> None:
    if target.order() > _REGULAR_CAP:
        raise BudgetExceeded("target group larger than the cap")


def metabelian_quotient_homs(plain, n: int, m: int):
    """All homomorphisms from ``plain.group`` to Z/n x| Z/m lifting the
    mod-n abelianisation, for a SurgeryPresentation ``plain``.

    A candidate is determined by its vector of translation parts, and
    the relator conditions are exactly the kernel of the full Fox
    Jacobian evaluated at t = 2 over Z/m, which ``plain.kernel_mod(m)``
    computes once per presentation, on the small presentation and carried
    back through the Tietze words.  Every map is still checked on every
    full relator, all in one pass by ``check_metabelian_relators``, so
    the maps never rest on that kernel or on the isomorphism alone.
    Returns ``(target, image_tuples)`` over the full generators, sorted
    on the full tuples.  A target of more than ``_REGULAR_CAP``
    elements, which every cover cross-check of a map would refuse, is
    refused before the kernel is requested.
    """
    target = FiniteMetabelian(n, m)
    _check_regular_budget(target)
    pres, weights = plain.group, plain.weights
    ng = pres.num_generators
    basis = plain.kernel_mod(m)
    if m ** len(basis) > _KERNEL_CAP:
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
    exps = [w % n for w in weights]
    homs = [tuple(zip(exps, chi)) for chi in sorted(span)]
    check_metabelian_relators(pres, homs, target)
    return target, homs


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


def finite_cover_homology(pres: GroupPresentation, images, target):
    """Integral homology ``(free_rank, torsion_divisors)`` of the cover
    attached to ker(pi -> target)."""
    rows, ncols, _ = schreier_rows(pres, coset_action(pres, images, target))
    return abelian_invariants(rows, ncols)


def second_derived_certificate(plain, word: Word) -> bool:
    """Exact membership test for the second derived subgroup of
    ``plain.group``, for a SurgeryPresentation ``plain``.

    The Tietze isomorphism carries the second derived subgroup onto the
    small presentation's, so ``word`` goes down by substituting the
    Tietze words and the test runs on ``plain.simplified``.  A loop lies
    in the second derived subgroup iff it dies in the maximal metabelian
    quotient: its total winding must vanish and its Fox vector v must
    lie in the row span of the small Jacobian, ``plain.small_jacobian``.
    That span test runs on the Alexander module instead.  Fox's
    fundamental formula (Fox, Free differential calculus I, Ann. Math.
    57, 1953) gives sum_j v_j (t^w_j - 1) = 0 for a word of winding
    zero, and the same for every relator row r.  If v', v without the
    meridian entry, equals sum_i c_i r_i' in the meridian-deleted rows,
    then u = v - sum_i c_i r_i vanishes off the meridian, so
    u_m (t - 1) = 0 (the meridian has weight 1) and u_m = 0 because
    Lambda is a domain.  So v lies in the row span of the small Jacobian
    exactly when v' lies in ``plain.module``, which
    ``plain.module.basis`` decides.  The identity is checked exactly, and
    a Fox vector that breaks it raises VerificationFailed.  Every check is
    exact, so the answer is a theorem in either direction.
    """
    small, words, _ = plain.simplified
    word = word.substitute(dict(enumerate(words)))
    weights, meridian = plain.small_weights, plain.small_meridian
    if evaluate_word(word, weights, _Degree) != 0:
        return False
    n = small.num_generators
    vec = tuple(LaurentPoly(e) for e in fox_row(word, n, weights, _Degree))
    total = ZERO
    for v, w in zip(vec, weights):
        total = total + v * (LaurentPoly.monomial(1, w) - ONE)
    if not total.is_zero():
        raise VerificationFailed("Fox vector breaks the fundamental formula")
    return plain.module.basis.contains(vec[:meridian] + vec[meridian + 1:])
