"""Exact submodule arithmetic over the integral Laurent ring.

Membership questions about submodules of Lambda^k, where Lambda is the
ring of integer Laurent polynomials in t, are translated into polynomial
questions: introduce a second variable u standing for the inverse of t
and add the relations (t*u - 1)e_j.  The kernel of Z[t,u]^k -> Lambda^k
is generated by exactly those vectors, so membership upstairs and
downstairs agree.  Over the coefficient ring Z we compute strong
Groebner bases in the sense of Kandri-Rody/Kapur: besides S-polynomials
the basis absorbs gcd combinations of leading coefficients, after which
ordinary reduction decides membership (normal form zero if and only if
the vector lies in the submodule).

A complete basis can be extended by further generators without a new
completion: the extension copies the base's elements and forms only the
pairs that involve a new element.  The old pairs keep their standard
representations in the larger basis, so the result is a strong basis of
the base module plus the new generators.

A module term t^i u^j e_pos is stored under the key (i + j, i, -pos).
The order is graded (total degree, then t-degree), with ties broken
towards the lower position, which is exactly the tuple order of the
keys, so a leading term is a plain ``max``.

Each basis element is stored with its leading monomial and leading
coefficient, computed once when it joins the basis, and is indexed by
the module position of that monomial.  A reduction step scans only the
elements at the position of the term it reduces, in basis order, and
subtracts the chosen multiple from the working vector in place.  The
reducer chosen at each step is the one a scan of the whole basis would
choose, so the basis and its work count do not depend on the index.

The work budget counts steps, not the size of the integers they touch,
and over Z the coefficients of a completion can grow without bound while
the step count stays small.  So a basis element whose largest coefficient
exceeds ``_COEFF_BITS`` bits also raises ``BudgetExceeded`` as it joins.
"""

from __future__ import annotations

from math import gcd

from .errors import BudgetExceeded
from .words import ring_add

__all__ = [
    "vector_to_tu",
    "GroebnerBasis",
    "module_contains",
]


# far above the bundled knots' bases (5 bits) and the small random
# submodules of the tests (25 bits, one of 311 that completes), and reached
# within milliseconds once coefficient growth runs away
_COEFF_BITS = 1024


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _balanced_div(a, b):
    """q with |a - q*b| <= |b|/2, ties resolved so iteration terminates."""
    ab = abs(b)
    q, r = divmod(a, ab)
    if 2 * r > ab:
        q += 1
    return -q if b < 0 else q


def vector_to_tu(vec):
    """Laurent vector -> {(i + j, i, -pos): int} for t^i u^j e_pos, u = t^-1."""
    out = {}
    for pos, p in enumerate(vec):
        for d, c in p.coeffs.items():
            key = (d, d, -pos) if d >= 0 else (-d, 0, -pos)
            out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def _scale_shift(elem, c, i, j):
    """c * t^i * u^j * elem."""
    return {(d + i + j, a + i, p): c * v for (d, a, p), v in elem.items()}


class GroebnerBasis:
    """Strong Groebner basis of a submodule of Lambda^width.

    ``generators``: list of Laurent vectors.  ``base``, a complete basis
    of the same width, makes this its extension by ``generators``, as the
    module docstring describes.
    """

    def __init__(self, generators, width, budget=200000, base=None):
        self.width = width
        self.budget = budget
        self._work = 0
        # (elem, leading monomial, leading coefficient)
        self.basis = []
        self._by_pos = [[] for _ in range(width)]  # basis order per position
        self._pairs = []
        gens = []
        for vec in generators:
            if len(vec) != width:
                raise ValueError("generator width mismatch")
            elem = vector_to_tu(vec)
            if elem:
                gens.append(elem)
        if base is None:
            for pos in range(width):
                gens.append({(2, 1, -pos): 1, (0, 0, -pos): -1})
        elif base.width != width:
            raise ValueError("base width mismatch")
        else:
            # every pair among the base's elements was formed when it completed
            self.basis = list(base.basis)
            self._by_pos = [list(entries) for entries in base._by_pos]
        self._complete(gens)

    def _tick(self):
        self._work += 1
        if self._work > self.budget:
            raise BudgetExceeded("groebner computation exceeded its budget")

    def _append(self, elem):
        """Add a reduced element, queueing its pairs with every earlier one."""
        if max(map(abs, elem.values())).bit_length() > _COEFF_BITS:
            raise BudgetExceeded("groebner coefficients exceeded their size bound")
        m = max(elem)
        entry = (elem, m, elem[m])
        n = len(self.basis)
        self._pairs.extend((k, n) for k in range(n))
        self.basis.append(entry)
        self._by_pos[-m[2]].append(entry)

    def _reduce_full(self, elem):
        """Normal form of ``elem``."""
        result = {}
        work = dict(elem)
        by_pos = self._by_pos
        while work:
            self._tick()
            m = max(work)
            c = work[m]
            md, mi, npos = m
            mj = md - mi
            # prefer a reducer whose leading coefficient divides exactly;
            # in a strong basis every member's lead admits one, so exact
            # steps alone decide membership and partial steps only help.
            # Among partial reducers the smallest |lc| wins, the first on
            # ties.
            exact = None
            partial = None
            plc = 0
            for entry in by_pos[-npos]:
                bm = entry[1]
                if bm[1] > mi or bm[0] - bm[1] > mj:
                    continue
                lc = entry[2]
                if c % lc == 0:
                    exact = (entry, c // lc)
                    break
                q = _balanced_div(c, lc)
                if q and (partial is None or abs(lc) < plc):
                    partial, plc = (entry, q), abs(lc)
            hit = exact or partial
            if hit is None:
                result[m] = c
                del work[m]
                continue
            (belem, bm, _), q = hit
            d, i = md - bm[0], mi - bm[1]
            for (a, b, p), v in belem.items():
                key = (a + d, b + i, p)
                w = work.get(key, 0) - q * v
                if w:
                    work[key] = w
                else:
                    del work[key]
        return result

    def _complete(self, gens):
        basis = self.basis
        pairs = self._pairs
        for elem in gens:
            red = self._reduce_full(elem)
            if red:
                self._append(red)
        while pairs:
            self._tick()
            k1, k2 = pairs.pop()
            e1, m1, a1 = basis[k1]
            e2, m2, a2 = basis[k2]
            if m1[2] != m2[2]:
                continue
            # t^i u^j shifts taking each leading term to their lcm
            li, lj = max(m1[1], m2[1]), max(m1[0] - m1[1], m2[0] - m2[1])
            i1, j1 = li - m1[1], lj - m1[0] + m1[1]
            i2, j2 = li - m2[1], lj - m2[0] + m2[1]
            new_items = []
            # S-combination: cancel leading terms
            g = gcd(a1, a2)
            s1 = a2 // g
            s2 = a1 // g
            new_items.append(ring_add(
                _scale_shift(e1, s1, i1, j1), _scale_shift(e2, -s2, i2, j2)
            ))
            # G-combination: realise gcd of leading coefficients
            if a1 % a2 and a2 % a1:
                g, x1, x2 = _xgcd(a1, a2)
                new_items.append(ring_add(
                    _scale_shift(e1, x1, i1, j1), _scale_shift(e2, x2, i2, j2)
                ))
            for elem in new_items:
                red = self._reduce_full(elem)
                if red:
                    self._append(red)

    def contains(self, vec) -> bool:
        return not self._reduce_full(vector_to_tu(vec))


def module_contains(rows, width, vec, budget=200000) -> bool:
    return GroebnerBasis(rows, width, budget=budget).contains(vec)
