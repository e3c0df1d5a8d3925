"""Alexander modules over the integral Laurent ring and their splittings.

The central question answered here: does the first homology of the
infinite cyclic cover, presented by a Fox Jacobian, decompose as

    Lambda/(t - 2)  +  Lambda/(2t - 1)

(the second factor is Lambda/(t^-1 - 2) up to units)?  A positive answer
is certified: the order of the module is compared against
(t-2)(2t-1), explicit witness vectors v1, v2 are produced with
(t-2)v1 and (2t-1)v2 inside the relation submodule, and the pair is
shown to generate.  Order counting then forces the induced surjection
from the model module to be injective as well, because the model has no
nonzero pseudo-null submodules.  A negative order comparison refutes
the decomposition outright, and so does a dimension other than 2 after
tensoring with F_3 at t = 2; a module passing both without witnesses
stays undetermined.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations, permutations
from math import comb, gcd

from . import laurent
from .errors import BudgetExceeded, HypothesisNotMet
from .groebner import GroebnerBasis
from .laurent import ONE, T, ZERO, LaurentPoly, maximal_minors, poly_gcd
from .snf import abelian_invariants, nullspace_mod
from .words import GroupPresentation, fox_rows

__all__ = [
    "LambdaModule",
    "SplitReport",
    "TARGET_ORDER",
    "infinite_cyclic_weights",
    "fox_jacobian",
    "alexander_module",
    "deleted_column_module",
    "alexander_polynomial",
    "detect_splitting",
]

# order of Lambda/(t-2) + Lambda/(2t-1): the only module shape this
# package certifies as split
TARGET_ORDER = ((T - 2 * ONE) * (2 * T - ONE)).canonical()

# work budget of every Groebner basis the splitting test builds, the
# module's own basis included
SPLIT_BUDGET = 400000

# most maximal minors LambdaModule.order computes
_MINOR_CAP = 100000


def infinite_cyclic_weights(pres: GroupPresentation, meridian: int):
    """Exponents of the generators under the map onto H_1 = Z.

    The weights span the integer kernel of the abelianisation matrix, which
    has rank one when H_1 = Z: ``laurent.corank_one_kernel`` gives a
    generator, and dividing by the gcd gives the primitive one.  The
    meridian fixes its sign.  Fails loudly when the abelianisation is not
    infinite cyclic or the distinguished meridian does not generate it.
    """
    n = pres.num_generators
    m = pres.abelianization_matrix()
    if abelian_invariants(m, n) != (1, []):
        raise HypothesisNotMet("first homology is not infinite cyclic")
    weights = laurent.corank_one_kernel(m, n)
    g = gcd(*weights)
    weights = [w // g for w in weights]
    if weights[meridian] == -1:
        weights = [-w for w in weights]
    if weights[meridian] != 1:
        raise HypothesisNotMet(
            "the distinguished meridian does not generate first homology"
        )
    return weights


class _Degree:
    """Z = <t> under +; with the weights as images, Fox rows land in Lambda."""

    identity = staticmethod(int)
    mul = staticmethod(operator.add)
    inv = staticmethod(operator.neg)


def fox_jacobian(pres: GroupPresentation, weights):
    """The Fox matrix pushed through the abelianisation into Lambda."""
    return [
        tuple(LaurentPoly(e) for e in row)
        for row in fox_rows(pres, weights, _Degree)
    ]


@dataclass
class LambdaModule:
    """Cokernel of a matrix of Laurent polynomials.

    ``basis``, a Groebner basis of the row span, is built on
    first use under ``SPLIT_BUDGET`` and kept, so every membership
    question about one module shares it, and the splitting judge extends
    it instead of completing the rows again.
    """

    rows: tuple
    ncols: int

    @cached_property
    def basis(self) -> GroebnerBasis:
        """Groebner basis of the row span, seeded with a minor if needed.

        When the completion of the rows runs out of budget, the rows are
        completed again, under the same budget, together with d * e_j for
        every column j, where d is the first nonzero maximal minor of the
        rows.  For the k rows S on which d = det(A_S) is taken,
        adj(A_S) A_S = det(A_S) I, so row j of adj(A_S) combines the rows
        of S into d * e_j: every seed lies in the row span, the span is
        unchanged, and so is every membership answer.  The seeds bound the
        degrees the completion reaches, as determinant-modular Hermite
        forms do.  With no nonzero maximal minor the budget error stands.
        """
        try:
            return GroebnerBasis(list(self.rows), self.ncols, budget=SPLIT_BUDGET)
        except BudgetExceeded:
            d = next((d for d in self._maximal_minors() if not d.is_zero()), None)
            if d is None:
                raise
        seeds = [
            tuple(d if c == j else ZERO for c in range(self.ncols))
            for j in range(self.ncols)
        ]
        return GroebnerBasis(list(self.rows) + seeds, self.ncols, budget=SPLIT_BUDGET)

    @staticmethod
    def make(rows, ncols):
        clean = tuple(
            tuple(r) for r in rows if any(not p.is_zero() for p in r)
        )
        return LambdaModule(clean, ncols)

    def simplified(self):
        """Tietze-style reduction at unit-monomial pivots.

        Returns ``(module, kept)`` where ``kept[j]`` is the original
        column index of the j-th surviving column; the cokernel is
        unchanged up to canonical isomorphism.
        """
        rows = [list(r) for r in self.rows]
        kept = list(range(self.ncols))
        while True:
            pivot = None
            for ri, row in enumerate(rows):
                for ci, p in enumerate(row):
                    cs = p.coeffs
                    if len(cs) == 1 and abs(next(iter(cs.values()))) == 1:
                        pivot = (ri, ci)
                        break
                if pivot:
                    break
            if not pivot:
                break
            ri, ci = pivot
            prow = rows[ri]
            deg = prow[ci].min_degree()
            unit_inv = LaurentPoly.monomial(
                next(iter(prow[ci].coeffs.values())), -deg
            )
            # a zero entry of the pivot row leaves its column as it is
            support = [j for j, p in enumerate(prow) if not p.is_zero()]
            for si, srow in enumerate(rows):
                if si == ri or srow[ci].is_zero():
                    continue
                f = srow[ci] * unit_inv
                new = list(srow)
                for j in support:
                    new[j] = srow[j] - f * prow[j]
                rows[si] = new
            rows.pop(ri)
            for row in rows:
                row.pop(ci)
            kept.pop(ci)
            rows = [r for r in rows if any(not p.is_zero() for p in r)]
        return LambdaModule.make(rows, len(kept)), kept

    def order(self) -> LaurentPoly:
        """gcd of the maximal minors; zero when the cokernel has free rank."""
        k = self.ncols
        if k == 0:
            return ONE
        if len(self.rows) < k:
            return ZERO
        g = ZERO
        for d in self._maximal_minors():
            g = poly_gcd(g, d)
            if g == ONE:
                break
        return g.canonical()

    def _maximal_minors(self):
        """The ncols x ncols minors of the rows, one per row subset."""
        if comb(len(self.rows), self.ncols) > _MINOR_CAP:
            raise BudgetExceeded(
                "too many maximal minors; simplify the presentation first"
            )
        # row subsets of the relations are column subsets of the transpose
        columns = list(zip(*self.rows))
        subsets = combinations(range(len(self.rows)), self.ncols)
        return maximal_minors(columns, subsets)


def deleted_column_module(rows, meridian: int, ngens: int) -> LambdaModule:
    """The Fox Jacobian ``rows`` over ``ngens`` generators, meridian column
    deleted: it presents H_1 of the infinite cyclic cover."""
    deleted = [
        tuple(p for i, p in enumerate(row) if i != meridian) for row in rows
    ]
    return LambdaModule.make(deleted, ngens - 1)


def alexander_module(pres: GroupPresentation, meridian: int) -> LambdaModule:
    """Deleted-column Fox Jacobian: presents H_1 of the infinite cyclic cover."""
    rows = fox_jacobian(pres, infinite_cyclic_weights(pres, meridian))
    return deleted_column_module(rows, meridian, pres.num_generators)


def alexander_polynomial(pres: GroupPresentation, meridian: int) -> LaurentPoly:
    mod, _ = alexander_module(pres, meridian).simplified()
    return mod.order()


@dataclass
class SplitReport:
    """Outcome of the splitting test.

    verdict: "split" (certified), "no_split" (the order, or the dimension
    over F_3 at t = 2, obstructs), or "undetermined" (both fit but no
    witnesses were found in the search pool).
    Witnesses are vectors in the module's original coordinates.
    """

    verdict: str
    order: LaurentPoly
    v1: tuple | None = None
    v2: tuple | None = None
    note: str = ""

    @property
    def certified(self) -> bool:
        return self.verdict == "split"


def _unit_vector(ncols, i):
    return tuple(ONE if j == i else ZERO for j in range(ncols))


def _scale_vec(p, v):
    # lifted pool vectors are mostly zero columns
    return tuple(p * a if a else a for a in v)


_POOL_SCALES = (ONE, -ONE, 2 * ONE, -2 * ONE, 3 * ONE, -3 * ONE)


def _witness_pool(ncols):
    """Each unit vector e_i, then e_i + s e_j for i != j and s in
    ``_POOL_SCALES``, in that order."""
    pool = [_unit_vector(ncols, i) for i in range(ncols)]
    for i, j in permutations(range(ncols), 2):
        for s in _POOL_SCALES:
            pool.append(tuple(
                ONE if k == i else s if k == j else ZERO for k in range(ncols)
            ))
    return pool


def _lift(vec, kept, ncols):
    out = [ZERO] * ncols
    for p, col in zip(vec, kept):
        out[col] = p
    return tuple(out)


def detect_splitting(module: LambdaModule) -> SplitReport:
    """Decide whether the module is Lambda/(t-2) + Lambda/(2t-1).

    Positive and negative answers are exact; "undetermined" only means
    the bounded witness search came up empty.  Two refutations come
    before the search, both read off the unit-pivot simplification: an
    order other than (t-2)(2t-1), and a dimension other than 2 of the
    module tensored with F_3 at t = 2.  The search itself runs on the
    original rows and visits pairs (v1, v2) in pool order, v1 outermost.
    ``module.basis`` tests a pool vector for t - 2 or 2t - 1 only when
    the search first reaches it, and :func:`_verify_split` alone judges
    each pair, extending ``module.basis`` by it.
    """
    simp, kept = module.simplified()
    order = simp.order()
    if order.is_zero():
        return SplitReport("no_split", order, note="module has positive free rank")
    if order != TARGET_ORDER:
        return SplitReport(
            "no_split",
            order,
            note=f"module order is {order}, not {TARGET_ORDER}",
        )
    k = simp.ncols
    # t - 2 and 2t - 1 both vanish at t = 2 mod 3, so tensoring the split
    # module with Lambda/(3, t - 2) = F_3 gives F_3^2; simplified() keeps
    # the cokernel, so the simplified rows there must have corank 2
    d = len(nullspace_mod(
        [[p.evaluate_mod(2, 3) for p in row] for row in simp.rows], 3, k
    ))
    if d != 2:
        return SplitReport(
            "no_split",
            order,
            note=f"module has dimension {d} over F_3 at t = 2, not 2",
        )
    # the pool is drawn over the simplified module's columns, which are
    # original columns whose inclusion maps its cokernel isomorphically
    # onto the module's: a lifted pair passes on the original rows
    # exactly when it would have passed on the simplified ones
    pool = [_lift(v, kept, module.ncols) for v in _witness_pool(k)]
    contains = module.basis.contains
    # each pool vector is tested against each factor at most once
    kills_v2 = cache(lambda v: contains(_scale_vec(2 * T - ONE, v)))
    for v1 in pool:
        if not contains(_scale_vec(T - 2 * ONE, v1)):
            continue
        for v2 in filter(kills_v2, pool):
            if _verify_split(module, v1, v2):
                return SplitReport("split", order, v1, v2)
    return SplitReport(
        "undetermined",
        order,
        note="order matches but no witness pair found in the search pool",
    )


def _verify_split(module, v1, v2) -> bool:
    """Judge a witness pair on the module's own rows.

    True when t - 2 kills ``v1``, 2t - 1 kills ``v2`` and the pair
    generates the module: every unit vector lies in ``module.basis``
    extended by ``[v1, v2]``.
    """
    k = module.ncols
    if not module.basis.contains(_scale_vec(T - 2 * ONE, v1)):
        return False
    if not module.basis.contains(_scale_vec(2 * T - ONE, v2)):
        return False
    stacked = GroebnerBasis([v1, v2], k, budget=SPLIT_BUDGET, base=module.basis)
    return all(stacked.contains(_unit_vector(k, i)) for i in range(k))
