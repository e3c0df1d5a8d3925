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
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb, gcd

from . import laurent
from .errors import BudgetExceeded, HypothesisNotMet, VerificationFailed
from .groebner import GroebnerBasis
from .laurent import ONE, T, ZERO, LaurentPoly, maximal_minors, poly_gcd
from .snf import abelian_invariants, rank_mod_p
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
    has rank one when H_1 = Z.  One fraction-free elimination leaves one
    free column f and, on each pivot row, d x_p + row[f] x_f = 0 with d the
    pivot minor; so x_f = d, x_p = -row[f] solves, and dividing by the gcd
    gives the primitive generator.  The meridian fixes its sign.  Fails
    loudly when the abelianisation is not infinite cyclic or the
    distinguished meridian does not generate it.
    """
    n = pres.num_generators
    m = pres.abelianization_matrix()
    if abelian_invariants(m, n) != (1, []):
        raise HypothesisNotMet("first homology is not infinite cyclic")
    if not m:
        if n != 1:
            raise HypothesisNotMet("free group of rank > 1")
        return [1]
    pivots, d = laurent._gauss_jordan(m)
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise VerificationFailed("abelian_invariants promised rank one")
    f = free[0]
    weights = [d if c == f else -m[pivots[c]][f] for c in range(n)]
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

    ``basis``, an untracked Groebner basis of the row span, is built on
    first use under ``SPLIT_BUDGET`` and kept, so every membership
    question about one module shares it.
    """

    rows: tuple
    ncols: int

    @cached_property
    def basis(self) -> GroebnerBasis:
        return GroebnerBasis(list(self.rows), self.ncols, budget=SPLIT_BUDGET)

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
            for si, srow in enumerate(rows):
                if si == ri or srow[ci].is_zero():
                    continue
                f = srow[ci] * unit_inv
                rows[si] = [
                    srow[j] - f * prow[j] for j in range(len(srow))
                ]
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
        if comb(len(self.rows), k) > _MINOR_CAP:
            raise BudgetExceeded(
                "too many maximal minors; simplify the presentation first"
            )
        # row subsets of the relations are column subsets of the transpose
        columns = list(zip(*self.rows))
        subsets = combinations(range(len(self.rows)), k)
        g = ZERO
        for d in maximal_minors(columns, subsets):
            g = poly_gcd(g, d)
            if g == ONE:
                break
        return g.canonical()


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
    Witnesses are vectors in the module's original coordinates.  A
    certified report keeps ``basis``, the tracked Groebner basis over
    ``[v1, v2] + rows`` that showed the witnesses generate; the summand
    maps read their coordinates from it.  It takes no part in ``repr`` or
    comparison.
    """

    verdict: str
    order: LaurentPoly
    v1: tuple | None = None
    v2: tuple | None = None
    note: str = ""
    basis: GroebnerBasis | None = field(default=None, repr=False, compare=False)

    @property
    def certified(self) -> bool:
        return self.verdict == "split"


def _unit_vector(ncols, i, scale=None):
    return tuple(
        (scale or ONE) if j == i else ZERO for j in range(ncols)
    )


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _scale_vec(p, v):
    return tuple(p * a for a in v)


def _witness_pool(ncols):
    pool = [_unit_vector(ncols, i) for i in range(ncols)]
    scales = [ONE, -ONE, 2 * ONE, -2 * ONE, 3 * ONE, -3 * ONE]
    for i in range(ncols):
        ei = _unit_vector(ncols, i)
        for j in range(ncols):
            if i == j:
                continue
            for s in scales:
                pool.append(_vec_add(ei, _scale_vec(s, _unit_vector(ncols, j))))
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
    before the search: an order other than (t-2)(2t-1), and a dimension
    other than 2 of the module tensored with F_3 at t = 2.
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
    d = k - rank_mod_p(
        [[p.evaluate_mod(2, 3) for p in row] for row in simp.rows], 3
    )
    if d != 2:
        return SplitReport(
            "no_split",
            order,
            note=f"module has dimension {d} over F_3 at t = 2, not 2",
        )
    t_minus_2 = T - 2 * ONE
    two_t_minus_1 = 2 * T - ONE
    gb = GroebnerBasis(list(simp.rows), k, budget=SPLIT_BUDGET)
    pool = _witness_pool(k)
    c1 = [v for v in pool if gb.contains(_scale_vec(t_minus_2, v))]
    c2 = [v for v in pool if gb.contains(_scale_vec(two_t_minus_1, v))]
    for v1 in c1:
        for v2 in c2:
            stacked = GroebnerBasis(
                list(simp.rows) + [v1, v2], k, budget=SPLIT_BUDGET
            )
            if all(stacked.contains(_unit_vector(k, i)) for i in range(k)):
                w1 = _lift(v1, kept, module.ncols)
                w2 = _lift(v2, kept, module.ncols)
                basis = _verify_split(module, w1, w2)
                return SplitReport("split", order, w1, w2, basis=basis)
    return SplitReport(
        "undetermined",
        order,
        note="order matches but no witness pair found in the search pool",
    )


def _verify_split(module, v1, v2):
    """Re-check the certificate against the original, unsimplified matrix.

    Returns the tracked basis over ``[v1, v2] + rows`` that shows the
    witnesses generate.
    """
    k = module.ncols
    if not module.basis.contains(_scale_vec(T - 2 * ONE, v1)):
        raise VerificationFailed("witness 1 is not killed by t - 2")
    if not module.basis.contains(_scale_vec(2 * T - ONE, v2)):
        raise VerificationFailed("witness 2 is not killed by 2t - 1")
    stacked = GroebnerBasis(
        [v1, v2] + list(module.rows), k, track=True, budget=SPLIT_BUDGET
    )
    if not all(stacked.contains(_unit_vector(k, i)) for i in range(k)):
        raise VerificationFailed("the witnesses do not generate the module")
    return stacked
