"""Shared helpers: presentations with a prescribed Fox Jacobian.

``presentation_from_rows`` builds an honest group presentation whose
deleted-column Alexander matrix equals any given Laurent matrix.  For a
row with entries ``p_i(t) = sum_d c_{i,d} t^d`` over columns x1..xk the
relator is

    prod_i prod_d (x0^d x_i x0^-d)^(c_{i,d})

Each bracketed factor has winding number zero (x0 appears balanced and
the weight of x_i is zero), so the product rule for Fox derivatives
degenerates to a plain sum and the abelianised row is exactly
``(0, p_1, ..., p_k)``.  H1 stays infinite cyclic on x0.

``as_surgery`` wraps a bare presentation in the SurgeryPresentation the
stage functions take.

Also here: brute-force enumeration oracles over small finite metabelian
groups, kept independent of the library's own linear algebra.
"""

from itertools import product as iproduct

from dslice.bs12 import evaluate_word
from dslice.diagrams import SurgeryPresentation
from dslice.words import GroupPresentation, Word


def as_surgery(pres, meridian=0) -> SurgeryPresentation:
    """``pres`` with distinguished meridian ``meridian`` and no marked curves."""
    return SurgeryPresentation(
        group=pres, meridian=meridian, longitude=Word.identity(), curve_words={}
    )


def _conjugated_power(d: int, gen: int, c: int) -> Word:
    head = Word.gen(0, d) if d else Word.identity()
    mid = Word.gen(gen, 1 if c > 0 else -1)
    piece = head * mid * head.inverse()
    out = Word.identity()
    for _ in range(abs(c)):
        out = out * piece
    return out


def presentation_from_rows(rows) -> GroupPresentation:
    """Group with meridian x0 whose Alexander matrix is ``rows``.

    ``rows`` is a list of rows; each row lists, per column, either a
    LaurentPoly or a degree -> coefficient dict.
    """
    width = len(rows[0])
    relators = []
    for row in rows:
        r = Word.identity()
        for i, entry in enumerate(row):
            coeffs = entry if isinstance(entry, dict) else entry.coeffs
            for d in sorted(coeffs):
                r = r * _conjugated_power(d, i + 1, coeffs[d])
        relators.append(r)
    names = ("m",) + tuple(f"y{i + 1}" for i in range(width))
    return GroupPresentation(names, tuple(relators))


def brute_metabelian_homs(pres, weights, target):
    """Every hom to ``target`` lifting the mod-n abelianisation, by search."""
    n = target.n
    out = []
    ng = pres.num_generators
    for qs in iproduct(range(target.m), repeat=ng):
        images = tuple((weights[i] % n, qs[i]) for i in range(ng))
        good = all(
            evaluate_word(r, images, target) == target.identity()
            for r in pres.relators
        )
        if good:
            out.append(images)
    return out


def brute_subgroup(images, target):
    """Closure of the images inside a finite target group."""
    seen = {target.identity()}
    frontier = [target.identity()]
    gens = list(images) + [target.inv(g) for g in images]
    while frontier:
        h = frontier.pop()
        for g in gens:
            x = target.mul(h, g)
            if x not in seen:
                seen.add(x)
                frontier.append(x)
    return seen


def brute_surjective(homs, target):
    """The maps among ``homs`` whose images generate all of ``target``."""
    return [h for h in homs if len(brute_subgroup(h, target)) == target.order()]


def brute_orbit_count(homs, target):
    """Number of conjugacy orbits among ``homs``, by closing each orbit."""
    seen = set()
    count = 0
    for h in homs:
        if h in seen:
            continue
        count += 1
        for g in target.elements():
            gi = target.inv(g)
            seen.add(tuple(target.mul(target.mul(g, x), gi) for x in h))
    return count
