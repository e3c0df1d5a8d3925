"""The solvable Baumslag-Solitar group <a, c | a c a^-1 = c^2> and friends.

Elements are normal forms (k, q) in Z x Z[1/2] with multiplication
(k1, q1)(k2, q2) = (k1 + k2, q1 + 2^k1 q2): the semidirect product where
the Z factor acts on dyadic rationals by multiplication by two.  The
letter a is (1, 0), the letter c is (0, 1).

Finite quotients replace Z by Z/n and Z[1/2] by Z/m for odd m with
2^n = 1 mod m, which makes the action well defined.  These quotients
drive the homology cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import IncompatibleParameters, NotSurjective, RelatorViolation
from .groebner import _xgcd
from .laurent import DyadicRational, LaurentPoly
from .words import Word

__all__ = [
    "BS12",
    "BS12_A",
    "BS12_C",
    "Bs12Group",
    "FiniteMetabelian",
    "evaluate_word",
    "check_relators",
    "bs12_surjective",
    "ring_add",
    "ring_mul",
    "ring_apply",
    "shadow",
]


@dataclass(frozen=True)
class BS12:
    k: int
    q: DyadicRational

    def __mul__(self, other: "BS12") -> "BS12":
        return BS12(self.k + other.k, self.q + other.q.times_power_of_two(self.k))

    def inverse(self) -> "BS12":
        return BS12(-self.k, (-self.q).times_power_of_two(-self.k))

    def __pow__(self, e: int) -> "BS12":
        base = self if e >= 0 else self.inverse()
        out = BS12(0, DyadicRational(0))
        for _ in range(abs(e)):
            out = out * base
        return out

    def is_identity(self) -> bool:
        return self.k == 0 and not self.q

    def __repr__(self):
        return f"BS12(k={self.k}, q={self.q})"


BS12_A = BS12(1, DyadicRational(0))
BS12_C = BS12(0, DyadicRational(1))


class Bs12Group:
    """Target-group operations bundle for generic word evaluation."""

    @staticmethod
    def identity():
        return BS12(0, DyadicRational(0))

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def inv(x):
        return x.inverse()


class FiniteMetabelian:
    """Z/n semidirect Z/m with the 2-action; needs 2^n = 1 mod m, m odd.

    Elements are plain tuples (k, q) with 0 <= k < n, 0 <= q < m.
    """

    def __init__(self, n: int, m: int):
        # an even m > 1 fails the congruence too: 2^n is even mod m
        if n < 1 or m < 1 or pow(2, n, m) != 1 % m:
            raise IncompatibleParameters(
                f"incompatible parameters ({n},{m}): need n >= 1, m >= 1"
                " and 2^n = 1 mod m, so that the action descends"
            )
        self.n = n
        self.m = m

    @cached_property
    def _pow2(self):
        # 2^k mod m for 0 <= k < n, the action of k; built on first use, so
        # a target that a size cap refuses never builds it
        return [pow(2, k, self.m) for k in range(self.n)]

    def identity(self):
        return (0, 0)

    def mul(self, x, y):
        return ((x[0] + y[0]) % self.n, (x[1] + self._pow2[x[0]] * y[1]) % self.m)

    def inv(self, x):
        k = -x[0] % self.n
        return (k, -self._pow2[k] * x[1] % self.m)

    def order(self) -> int:
        return self.n * self.m

    def elements(self):
        return [(k, q) for k in range(self.n) for q in range(self.m)]

    def element_index(self):
        return {e: i for i, e in enumerate(self.elements())}

    def left_multiples(self, k, offset=0):
        """``offset`` plus the index of u*k, for every u in element order:
        u = (a, b) sends k to (a + k0, b + 2^a k1), a rotated run of m."""
        n, m = self.n, self.m
        out = []
        for a in range(n):
            base = offset + (a + k[0]) % n * m
            s = self._pow2[a] * k[1] % m
            out += range(base + s, base + m)
            out += range(base, base + s)
        return out

    def __repr__(self):
        return f"FiniteMetabelian(n={self.n}, m={self.m})"


def evaluate_word(word: Word, images, target):
    out = target.identity()
    for g, e in word.letters:
        x = images[g] if e == 1 else target.inv(images[g])
        out = target.mul(out, x)
    return out


def check_relators(pres, images, target) -> None:
    """Raise RelatorViolation unless the generator images satisfy every
    relator."""
    for r in pres.relators:
        v = evaluate_word(r, images, target)
        if v != target.identity():
            raise RelatorViolation(f"relator {r!r} maps to {v!r}")


def _odd_part(v: int) -> int:
    v = abs(v)
    while v and v % 2 == 0:
        v //= 2
    return v


def _unit_section(images) -> BS12:
    """Some product of the images whose a-exponent is exactly one."""
    cur = BS12(0, DyadicRational(0))
    for g in images:
        if g.k == 0:
            continue
        if cur.k == 0:
            cur = g
            continue
        d, x, y = _xgcd(cur.k, g.k)
        cur = (cur ** x) * (g ** y)
    if cur.k == -1:
        cur = cur.inverse()
    if cur.k != 1:
        raise NotSurjective("a-exponents of the images do not generate Z")
    return cur


def bs12_surjective(images) -> bool:
    """Surjectivity onto BS(1,2).

    The image hits all of Z exactly when the a-exponents have gcd one.
    Fix a product h of images with a-exponent one and translation tau;
    a Schreier transversal by powers of h shows the kernel's translation
    part is the Z[1/2]-span of q_i + tau*(1 - 2^k_i) over the images
    (k_i, q_i).  That span is all of Z[1/2] exactly when the odd parts
    of those numbers have gcd one.
    """
    kg = 0
    for g in images:
        kg = gcd(kg, g.k)
    if kg != 1:
        return False
    tau = _unit_section(images).q
    qg = 0
    for g in images:
        delta = g.q + tau - tau.times_power_of_two(g.k)
        qg = gcd(qg, _odd_part(delta.num))
    return qg == 1


def ring_add(x: dict, y: dict, sign: int = 1) -> dict:
    """``x + sign * y``; group-ring elements are {element: nonzero int}."""
    out = dict(x)
    for g, c in y.items():
        v = out.get(g, 0) + sign * c
        if v:
            out[g] = v
        else:
            out.pop(g, None)
    return out


def ring_mul(x: dict, y: dict, target) -> dict:
    """Product in the integral group ring of ``target``."""
    out: dict = {}
    for g, cg in x.items():
        for h, ch in y.items():
            k = target.mul(g, h)
            v = out.get(k, 0) + cg * ch
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def ring_apply(x: dict, fn) -> dict:
    """Push a group-ring element through a group map."""
    out: dict = {}
    for g, c in x.items():
        k = fn(g)
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def shadow(x: dict) -> LaurentPoly:
    """Image in Lambda = Z[t, t^-1] under (k, q) -> t^k: the dyadic part dies."""
    return LaurentPoly(ring_apply(x, lambda g: g.k))
