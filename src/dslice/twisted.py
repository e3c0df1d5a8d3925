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
determined by the map's kernel.  Callers therefore pass the
Tietze-simplified zero-surgery presentation
(``SurgeryPresentation.simplified``) with each map restricted by
``groups.restrict_images``, which checks that the restriction is a map
of the small group whose composite with the Tietze isomorphism is the
enumerated map.  For 9_46 that is 3 generators and 4 relators instead
of 9 and 10, and every matrix here shrinks with the generator count.

``crowell_compares`` reuses a Smith form only for an input equal to one
already reduced.  The cover rows are a function of the presentation and
the map's coset action, so maps with equal actions (conjugate maps
among them) share the cover Smith form.  The map g h g^-1 sends each
Fox entry's k to g k g^-1, so its group-ring rows with every k read as
g^-1 k g are compared with h's rows; the integer matrix is a function of
the rows, so h's twisted Smith form is reused only when they are equal.
No theorem about conjugate representations is trusted.

Also here: the transport records that let a certificate for a pattern
be carried to its satellites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bs12 import Bs12Group, shadow
from .diagrams import SurgeryPresentation, wirtinger
from .groups import (
    MetabelianHom,
    _check_regular_budget,
    coset_action,
    schreier_rows,
    second_derived_certificate,
)
from .laurent import ONE
from .modules import alexander_polynomial
from .snf import abelian_invariants
from .words import fox_rows

__all__ = [
    "twisted_rows",
    "twisted_invariants",
    "crowell_check",
    "crowell_compares",
    "summand_specialization_check",
    "TransportRecord",
    "transport_record",
]


def twisted_rows(pres, images, target):
    """The Fox matrix pushed into the integral group ring of ``target``."""
    return fox_rows(pres, images, target)


def _regular_blocks(rows, target, ncols):
    """Integer relation rows spanning the left-translates of each row.

    A group-ring row r generates the left submodule spanned by u*r over
    all u in the group; the integer row for (r, u) has, at column
    (j, u*k), the coefficient of k in entry j.  For a fixed u these
    columns are distinct, so each integer row is one dict, and the
    matrix is a function of the rows.  Raises BudgetExceeded, before
    building anything, when the target has more than
    ``groups._REGULAR_CAP`` elements.
    """
    _check_regular_budget(target)
    order = target.order()
    out = []
    for row in rows:
        coeffs, cols = [], []
        for j, entry in enumerate(row):
            for k, c in entry.items():
                coeffs.append(c)
                cols.append(target.left_multiples(k, j * order))
        blocks = zip(*cols) if cols else [()] * order
        out.extend(dict(zip(block, coeffs)) for block in blocks)
    return out, ncols * order


def twisted_invariants(pres, images, target):
    """Abelian invariants of the twisted Jacobian's integer cokernel."""
    rows = twisted_rows(pres, images, target)
    return abelian_invariants(*_regular_blocks(rows, target, pres.num_generators))


def crowell_compares(pres, homs, target):
    """Both paths' invariants for each map of ``homs``, and whether they agree.

    Yields ``(cover, twisted, agree)`` per map, in order: ``cover`` is the
    covering-space homology and ``twisted`` the invariants of the twisted
    Jacobian's cokernel, each as ``(free_rank, torsion)``.  When the
    images generate a subgroup of index d, the twisted module is d copies
    of the one over the image, and the cover splits into d homeomorphic
    pieces; the comparison accounts for both.

    Every map gets its own coset action and its own group-ring rows.  A
    map whose action equals an earlier one's reuses that cover Smith
    form; a later map g*h*g^-1 of an orbit reuses the twisted one of its
    first map h only when its rows, every k read as g^-1*k*g, equal h's.
    Otherwise its integer matrix is built and reduced.
    """
    # the image is no larger than the target, so once the twisted path's
    # budget holds the cover path's holds too: check it before either runs
    _check_regular_budget(target)
    order = target.order()
    ng = pres.num_generators
    covers: dict = {}  # coset action -> (cosets, cover invariants)
    orbits: dict = {}  # conjugate images -> (g, first map's rows, invariants)
    mul = target.mul
    for images in homs:
        images = tuple(images)
        action = coset_action(pres, images, target)
        if action not in covers:
            rows, ncols, ncosets = schreier_rows(pres, action)
            covers[action] = (ncosets, abelian_invariants(rows, ncols))
        ncosets, cover = covers[action]
        g, rep_rows, twisted = orbits.get(images, (None, None, None))
        rows = twisted_rows(pres, images, target)
        if g is not None:
            gi = target.inv(g)
            # tuples of dicts, as fox_rows returns, or no rows compare equal
            rows = [tuple({mul(mul(gi, k), g): c for k, c in e.items()}
                          for e in row) for row in rows]
        if rows != rep_rows:
            twisted = abelian_invariants(*_regular_blocks(rows, target, ng))
        if rep_rows is None:
            for g in target.elements():
                gi = target.inv(g)
                conj = tuple(mul(mul(g, x), gi) for x in images)
                orbits.setdefault(conj, (g, rows, twisted))
        free, torsion = cover
        d = order // ncosets
        expected = (d * (free + ncosets - 1), sorted(torsion * d))
        agree = (twisted[0], sorted(twisted[1])) == expected
        yield cover, twisted, agree


def crowell_check(pres, images, target) -> bool:
    """Do the Fox-calculus and covering-space paths agree?"""
    return next(crowell_compares(pres, [images], target))[2]


def summand_specialization_check(plain, hom: MetabelianHom) -> bool:
    """Collapsing translations must recover the untwisted Jacobian.

    Composing a summand homomorphism with (k, q) -> t^k is the
    abelianisation, up to the recorded meridian exponent; the pushed
    Jacobian therefore has to match ``plain.jacobian`` entry by entry,
    with t inverted when the meridian maps to a^-1.
    """
    want = plain.jacobian
    if hom.merid_exponent == -1:
        want = tuple(tuple(p.mirror() for p in row) for row in want)
    pushed = twisted_rows(plain.group, hom.images, Bs12Group)
    return tuple(tuple(shadow(e) for e in row) for row in pushed) == want


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
        return {
            "curve": self.curve,
            "winding": self.winding,
            "second_derived": self.second_derived,
            "companion_alexander_trivial": self.companion_alexander_trivial,
            "valid": self.valid,
        }


def transport_record(
    plain: SurgeryPresentation,
    curve: str,
    companion=None,
) -> TransportRecord:
    """Assess whether infection along ``curve`` preserves certificates."""
    winding = plain.curve_linking[curve]
    sd = False
    if winding == 0:
        sd = second_derived_certificate(plain, plain.curve_words[curve])
    triv = None
    if companion is not None:
        lg = wirtinger(companion)
        triv = alexander_polynomial(lg.group, lg.meridians[0]) == ONE
    return TransportRecord(
        curve=curve,
        winding=winding,
        second_derived=sd,
        companion_alexander_trivial=triv,
    )
