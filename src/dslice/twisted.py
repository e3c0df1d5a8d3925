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

Conjugate maps h and h' = g h g^-1 have matrices that are relabellings
of each other.  Conjugation by g is an automorphism of the target, so
the coset search for h' visits g x g^-1 wherever the one for h visits
x, in the same order: the cover rows come out identical.  In the group
ring, h' sends each Fox entry's element k to g k g^-1, so the integer
row (r, u) of h' is row (r, u g) of h with column (j, x) moved to
(j, x g^-1).  ``crowell_compares`` therefore computes Smith forms only
for the first map of each conjugacy orbit, and a later map reuses them
only after its own matrix has been compared with the relabelled one,
entry by entry.  Equal matrices have equal invariants, so no theorem
about conjugate representations is trusted; a failed comparison just
means that path gets its own Smith form.

Also here: the companion-collapse homomorphism that forgets the
companions of an infection (sending each companion group to the cyclic
group on the infection curve's longitude), plus the transport records
that let a certificate for a pattern be carried to its satellites.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bs12 import Bs12Group, evaluate_word, shadow
from .diagrams import SurgeryPresentation, infect, wirtinger, zero_surgery
from .errors import BudgetExceeded, TargetMismatch
from .groups import (
    _REGULAR_CAP,
    MetabelianHom,
    cover_rows,
    metabelian_quotient_homs,
    second_derived_certificate,
)
from .laurent import ONE
from .modules import alexander_polynomial
from .snf import abelian_invariants
from .words import Word, fox_rows

__all__ = [
    "twisted_rows",
    "twisted_invariants",
    "crowell_check",
    "crowell_compare",
    "crowell_compares",
    "summand_specialization_check",
    "companion_collapse",
    "collapse_is_free_or_relator",
    "validate_collapse_at",
    "TransportRecord",
    "transport_record",
]


def twisted_rows(pres, images, target):
    """The Fox matrix pushed into the integral group ring of ``target``."""
    return fox_rows(pres, images, target)


def _check_regular_budget(target) -> None:
    if target.order() > _REGULAR_CAP:
        raise BudgetExceeded("target group larger than the cap")


def _regular_blocks(rows, target, ncols):
    """Integer relation rows spanning the left-translates of each row.

    A group-ring row r generates the left submodule spanned by u*r over
    all u in the group; the integer row for (r, u) has, at column
    (j, u*k), the coefficient of k in entry j.  Raises BudgetExceeded,
    before building anything, when the target has more than
    ``_REGULAR_CAP`` elements.
    """
    _check_regular_budget(target)
    order = target.order()
    idx = target.element_index()
    elements = target.elements()
    times: dict = {}  # k -> index of u*k for each u, in element order
    out = []
    for row in rows:
        blocks = [dict() for _ in range(order)]
        for j, entry in enumerate(row):
            base = j * order
            for k, c in entry.items():
                cols = times.get(k)
                if cols is None:
                    cols = times[k] = [idx[target.mul(u, k)] for u in elements]
                for block, ci in zip(blocks, cols):
                    col = base + ci
                    block[col] = block.get(col, 0) + c
        out.extend(blocks)
    return out, ncols * order


def _twisted_matrix(pres, images, target):
    """``(rows, ncols)`` of the twisted Jacobian as an integer matrix."""
    rows = twisted_rows(pres, images, target)
    return _regular_blocks(rows, target, pres.num_generators)


def twisted_invariants(pres, images, target):
    """Abelian invariants of the twisted Jacobian's integer cokernel."""
    return abelian_invariants(*_twisted_matrix(pres, images, target))


def _relabelling_holds(rows, rep_rows, row_of=None, col_of=None) -> bool:
    """Is row i of ``rows`` row ``row_of[i]`` of ``rep_rows`` with each
    column c moved to ``col_of[c]``?  Compares every entry; without maps
    the relabelling is the identity."""
    if row_of is None:
        return rows == rep_rows
    if not len(rows) == len(rep_rows) == len(row_of):
        return False
    for row, i in zip(rows, row_of):
        src = rep_rows[i]
        if len(row) != len(src):
            return False
        for c, v in src.items():
            if row.get(col_of[c]) != v:
                return False
    return True


def _conjugation_relabelling(target, g, nrows, ncols):
    """Row and column maps taking the twisted matrix of h to that of
    g*h*g^-1: row (r, u) from row (r, u*g), column (j, x) to (j, x*g^-1)."""
    order = target.order()
    idx = target.element_index()
    elements = target.elements()
    gi = target.inv(g)
    times_g = [idx[target.mul(u, g)] for u in elements]
    times_gi = [idx[target.mul(x, gi)] for x in elements]
    row_of = [b + i for b in range(0, nrows, order) for i in times_g]
    col_of = [b + i for b in range(0, ncols, order) for i in times_gi]
    return row_of, col_of


def crowell_compares(pres, homs, target):
    """Both paths' invariants for each map of ``homs``, and whether they agree.

    Yields ``(cover, twisted, agree)`` per map, in order: ``cover`` is the
    covering-space homology and ``twisted`` the invariants of the twisted
    Jacobian's cokernel, each as ``(free_rank, torsion)``.  When the
    images generate a subgroup of index d, the twisted module is d copies
    of the one over the image, and the cover splits into d homeomorphic
    pieces; the comparison accounts for both.

    Every map's two matrices are built.  The first map of each conjugacy
    orbit gets its Smith forms; a later map g*h*g^-1 reuses them for a
    path only when its matrix equals the representative's under that
    path's relabelling by g, entry by entry, and gets its own otherwise.
    """
    # the image is no larger than the target, so once the twisted path's
    # budget holds the cover path's holds too: check it before either runs
    _check_regular_budget(target)
    order = target.order()
    elements = target.elements()
    # conjugate images -> (representative's matrices and invariants, g)
    orbits: dict = {}
    for images in homs:
        images = tuple(images)
        cover_mat = cover_rows(pres, images, target)
        twisted_mat = _twisted_matrix(pres, images, target)
        rows, ncols, ncosets = cover_mat
        trows, tcols = twisted_mat
        found = orbits.get(images)
        if found is None:
            cover = abelian_invariants(rows, ncols)
            twisted = abelian_invariants(trows, tcols)
            rep = (cover_mat, cover, twisted_mat, twisted)
            for g in elements:
                gi = target.inv(g)
                conj = tuple(target.mul(target.mul(g, x), gi) for x in images)
                orbits.setdefault(conj, (rep, g))
        else:
            (rep_cover, cover, rep_twisted, twisted), g = found
            # conjugation by g is an automorphism, so the coset search and
            # its numbering are unchanged: the relabelling is the identity
            if not (
                cover_mat[1:] == rep_cover[1:]
                and _relabelling_holds(rows, rep_cover[0])
            ):
                cover = abelian_invariants(rows, ncols)
            row_of, col_of = _conjugation_relabelling(
                target, g, len(trows), tcols
            )
            if not (
                tcols == rep_twisted[1]
                and _relabelling_holds(trows, rep_twisted[0], row_of, col_of)
            ):
                twisted = abelian_invariants(trows, tcols)
        free, torsion = cover
        d = order // ncosets
        expected = (d * (free + ncosets - 1), sorted(torsion * d))
        agree = (twisted[0], sorted(twisted[1])) == expected
        yield cover, twisted, agree


def crowell_compare(pres, images, target):
    """``(cover, twisted, agree)`` for one map; see ``crowell_compares``."""
    return next(crowell_compares(pres, [images], target))


def crowell_check(pres, images, target) -> bool:
    """Do the Fox-calculus and covering-space paths agree?"""
    return crowell_compare(pres, images, target)[2]


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


def companion_collapse(diagram, pattern, companions, curves=None):
    """Forget the companions of an infection.

    Returns ``(infected, plain, images)`` where ``infected`` presents
    the infected zero-surgery, ``plain`` the pattern's own zero-surgery,
    and ``images`` the collapse homomorphism: base arcs map to the arc
    of the plain diagram they lie on, arcs of infection curves die, and
    every companion generator maps to the image of the curve's
    longitude.
    """
    inf = infect(diagram, pattern, companions, curves=curves)
    plain = zero_surgery(diagram, pattern, curves=curves)
    rep_edge: dict[int, int] = {}
    for e, g in inf.orig_edge_gen.items():
        if g not in rep_edge or e < rep_edge[g]:
            rep_edge[g] = e
    images = []
    for g in range(inf.base_gen_count):
        e = rep_edge[g]
        if diagram.edge_component[e] == pattern:
            images.append(Word.gen(plain.orig_edge_gen[e]))
        else:
            images.append(Word.identity())
    base_map = dict(enumerate(images))
    for site in inf.sites:
        lam_image = site.longitude_word.substitute(base_map)
        images.extend([lam_image] * site.gen_count)
    return inf, plain, tuple(images)


def collapse_is_free_or_relator(inf, plain, images) -> bool:
    """Presentation-level proof that the collapse is a homomorphism.

    Every relator of the infected presentation must map to a word that
    is freely trivial or literally one of the plain presentation's
    relators; nothing about the plain group is assumed.
    """
    allowed = set(r.letters for r in plain.group.relators)
    base_map = dict(enumerate(images))
    for r in inf.group.relators:
        w = r.substitute(base_map)
        if w and w.letters not in allowed:
            return False
    if images[inf.meridian] != Word.gen(plain.meridian):
        return False
    return True


def validate_collapse_at(inf, plain, images, n, m):
    """Pull every metabelian quotient of the plain group back along the
    collapse and check all infected relators die.  Returns the number of
    quotient maps exercised."""
    target, homs = metabelian_quotient_homs(plain, n, m)
    for hom in homs:
        composite = tuple(evaluate_word(w, hom, target) for w in images)
        for r in inf.group.relators:
            if evaluate_word(r, composite, target) != target.identity():
                raise TargetMismatch(
                    f"collapse fails a relator in the ({n},{m}) quotient"
                )
    return len(homs)


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
