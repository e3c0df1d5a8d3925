"""Jacobians twisted by finite metabelian quotients, and their cross-checks.

The Fox Jacobian of a presentation can be pushed through any
homomorphism to a finite group and then expanded, via the left regular
representation, into a plain integer matrix.  Its cokernel is the first
homology of the associated cover relative to the fibre over the base
point, so

    invariants(twisted cokernel)
        = invariants(cover H1) + a free summand of rank |fibre| - 1

This identity is used as a two-independent-paths consistency oracle:
the left side never looks at covering spaces, the right side
(Reidemeister-Schreier) never looks at Fox calculus.

Both sides are invariants of the group and the map: the twisted
cokernel is the Crowell module of the map (R. H. Crowell, "Corresponding
group and module sequences", Nagoya Math. J. 19, 1961) and the cover is
determined by the map's kernel.  So the comparisons run on the
Tietze-simplified zero-surgery presentation
(``SurgeryPresentation.simplified``, whose Tietze isomorphism
``groups.check_tietze`` checks once), and ``_quotient_maps`` alone
enumerates the maps with ``metabelian_quotient_homs``, which checks each
on every full relator, and reads each on the kept generators.  That is
the map composed with the inverse isomorphism: a map of the small group
whose composite with the Tietze isomorphism is the enumerated map, so
invariants of the map read on either presentation are equal.
``first_cover_check`` compares the first map, for ``analyze`` and the
knot certificate, and ``cover_compares`` every map, for ``oracle``.  For
9_46 that is 3 generators and 4 relators instead of 9 and 10, and every
matrix here shrinks with the generator count.

``crowell_compares`` reduces each twisted matrix over the image H of its
map, which holds every Fox key: the whole-target matrix is d = [G : H]
copies of that one.  A map alpha(h), for alpha an automorphism of the
target made of conjugations and unit scalings (k, q) -> (k, u q), has
the same coset action as h and h's group-ring rows with every key moved
by alpha, so it has h's invariants on both paths: it reuses h's
finished result, found by an exact lookup of its images, and builds
nothing.

Also here: the transport records that let a certificate for a pattern
be carried to its satellites.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import gcd

from .diagrams import SurgeryPresentation
from .errors import VerificationFailed
from .groups import (
    MetabelianHom,
    _check_regular_budget,
    coset_action,
    metabelian_quotient_homs,
    schreier_rows,
    second_derived_certificate,
)
from .snf import abelian_invariants
from .words import fox_rows

__all__ = [
    "twisted_rows",
    "twisted_invariants",
    "crowell_check",
    "crowell_compares",
    "first_cover_check",
    "cover_compares",
    "summand_specialization_check",
    "TransportRecord",
    "transport_record",
]


def twisted_rows(pres, images, target):
    """The Fox matrix pushed into the integral group ring of ``target``."""
    return fox_rows(pres, images, target)


def _regular_blocks(rows, target, ncols, elements):
    """Integer relation rows spanning the left-translates of each row.

    ``elements`` lists a subgroup H holding every key of ``rows``; a key
    outside it raises VerificationFailed.  The integer row for (r, u),
    u in H, has at column (j, index of u*k) the coefficient of k in entry
    j, so the matrix is a function of the rows and ``elements``.  Raises
    BudgetExceeded, before building anything, when the target has more
    than ``groups._REGULAR_CAP`` elements.
    """
    _check_regular_budget(target)
    size = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    out = []
    for row in rows:
        coeffs, cols = [], []
        for j, entry in enumerate(row):
            for k, c in entry.items():
                if k not in index:
                    raise VerificationFailed(f"Fox key {k!r} outside the subgroup")
                coeffs.append(c)
                cols.append([j * size + index[target.mul(u, k)] for u in elements])
        blocks = zip(*cols) if cols else [()] * size
        out.extend(dict(zip(block, coeffs)) for block in blocks)
    return out, ncols * size


def twisted_invariants(pres, images, target):
    """Abelian invariants of the twisted Jacobian's integer cokernel."""
    _check_regular_budget(target)  # before the target is enumerated
    rows = twisted_rows(pres, images, target)
    ng, elements = pres.num_generators, target.elements()
    return abelian_invariants(*_regular_blocks(rows, target, ng, elements))


def crowell_compares(pres, homs, target):
    """Both paths' invariants for each map of ``homs``, and whether they agree.

    Yields ``(cover, twisted, agree)`` per map, in order: ``cover`` is the
    covering-space homology and ``twisted`` the invariants of the twisted
    Jacobian's cokernel, each as ``(free_rank, torsion)``.  When the
    images generate a subgroup H of index d, the twisted matrix is d
    copies of the one over H, which is reduced and compared with the cover.

    A map is a representative unless its images are alpha(h) for an
    earlier representative h, where alpha is x -> s(g*x*g^-1), g in the
    target and s a unit scaling (k, q) -> (k, u*q) with gcd(u, m) = 1.
    Every conjugate of each representative's images is kept, so a map is
    found by looking up s(images) for each unit u.  A representative
    gets its own coset action, cover Smith form and group-ring rows,
    reduced over its own image; any other map yields its
    representative's result and builds nothing.

    Lemma: for an automorphism alpha, alpha(h) and h have equal results.
    ``coset_action`` searches breadth first from the identity, and
    alpha(e * h(x_i)) = alpha(e) * alpha(h)(x_i) with alpha injective, so
    the search for alpha(h) reaches alpha of h's elements in the same
    order, and ``step`` and ``tree`` are equal to h's.  ``fox_rows``
    evaluates the same words, so alpha(h)'s rows are h's with every key
    k read as alpha(k).  ``_regular_blocks`` numbers alpha(h)'s image
    elements as alpha of h's, and alpha(u) * alpha(k) = alpha(u * k), so
    it builds the same integer matrix.  Equal matrices and equal actions
    give equal invariants on both paths, and d depends on the action.
    """
    # the image is no larger than the target, so once the twisted path's
    # budget holds the cover path's holds too: check it before either runs
    _check_regular_budget(target)
    order, ng = target.order(), pres.num_generators
    orbits: dict = {}  # conjugate images of a representative -> its result
    mul, inv, scale = target.mul, target.inv, target.scale
    # the unit scalings (k, q) -> (k, u*q), tried on each map's images
    units = [u for u in range(1, target.m) if gcd(u, target.m) == 1] or [1]
    for images in homs:
        images = tuple(images)
        for u in units:
            # u = 1 is the identity: plain conjugates skip the rescaling
            result = orbits.get(images if u == 1 else tuple(scale(x, u) for x in images))
            if result is not None:
                break
        else:
            action = coset_action(pres, images, target)
            rows, ncols, ncosets = schreier_rows(pres, action)
            cover = abelian_invariants(rows, ncols)
            elements = [target.identity()]
            for p, i in action[1]:
                elements.append(mul(elements[p], images[i]))
            rows = twisted_rows(pres, images, target)
            twisted = abelian_invariants(*_regular_blocks(rows, target, ng, elements))
            (free, torsion), (tfree, ttorsion) = cover, twisted
            d = order // ncosets
            agree = (tfree, ttorsion) == (free + ncosets - 1, torsion)
            result = cover, (d * tfree, sorted(ttorsion * d)), agree
            for g in target.elements():
                gi = inv(g)
                orbits.setdefault(tuple(mul(mul(g, x), gi) for x in images), result)
        yield result


def crowell_check(pres, images, target) -> bool:
    """Do the Fox-calculus and covering-space paths agree?"""
    return next(crowell_compares(pres, [images], target))[2]


def _quotient_maps(plain, n: int, m: int):
    """``(small, target, maps)``: every map of ``plain.group`` onto
    Z/n x| Z/m, read on the kept generators of ``plain.simplified``,
    whose presentation is ``small``."""
    target, homs = metabelian_quotient_homs(plain, n, m)
    small, _, kept = plain.simplified
    return small, target, [tuple(h[i] for i in kept) for h in homs]


def first_cover_check(plain, n: int, m: int):
    """``(maps, agree)``: the number of maps at (n, m), and whether both
    paths agree on the first one, None when there is none."""
    small, target, maps = _quotient_maps(plain, n, m)
    return len(maps), crowell_check(small, maps[0], target) if maps else None


def cover_compares(plain, n: int, m: int):
    """``crowell_compares`` over every map at (n, m), lazily."""
    small, target, maps = _quotient_maps(plain, n, m)
    return crowell_compares(small, maps, target)


def summand_specialization_check(plain, hom: MetabelianHom) -> bool:
    """Collapsing translations must recover the untwisted Jacobian.

    Composing a summand homomorphism with (k, q) -> t^k must be the
    abelianisation, up to the recorded meridian exponent: each image's
    exponent k is ``merid_exponent`` times its generator's weight.  The
    Jacobian pushed through the composite is then the Fox Jacobian of
    ``plain.group`` under ``plain.weights``, with t inverted when the
    meridian maps to a^-1, since Fox rows pushed into Lambda are a
    function of the presentation and the exponents alone.
    """
    return [x.k for x in hom.images] == [hom.merid_exponent * w for w in plain.weights]


# ------------------------------------------------------------ transport


@dataclass(frozen=True)
class TransportRecord:
    """Why a certificate for the pattern survives an infection.

    ``winding`` is the linking number of the infection curve with the
    pattern.  Transport is ``valid`` when the curve has winding zero and
    either dies in the pattern's second metabelian quotient (then any
    companion works) or the companion has trivial Alexander polynomial.
    """

    curve: str
    winding: int
    second_derived: bool
    companion_alexander_trivial: bool | None

    @property
    def valid(self) -> bool:
        return self.winding == 0 and (
            self.second_derived or bool(self.companion_alexander_trivial)
        )

    def as_dict(self) -> dict:
        return {**asdict(self), "valid": self.valid}


def transport_record(
    plain: SurgeryPresentation,
    curve: str,
    companion_alexander_trivial: bool | None,
) -> TransportRecord:
    """Assess whether infection along ``curve`` preserves certificates,
    given whether the companion has trivial module order, as
    ``certify._family_record`` decides it (None when the companion is
    arbitrary)."""
    winding = plain.curve_linking[curve]
    sd = False
    if winding == 0:
        sd = second_derived_certificate(plain, plain.curve_words[curve])
    return TransportRecord(
        curve=curve,
        winding=winding,
        second_derived=sd,
        companion_alexander_trivial=companion_alexander_trivial,
    )
