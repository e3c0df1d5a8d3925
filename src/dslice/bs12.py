"""The solvable Baumslag-Solitar group <a, c | a c a^-1 = c^2> and friends.

Elements are normal forms (k, q) in Z x Z[1/2] with multiplication
(k1, q1)(k2, q2) = (k1 + k2, q1 + 2^k1 q2): the semidirect product where
the Z factor acts on dyadic rationals by multiplication by two.  The
translation q is an int or a ``fractions.Fraction``, and 2^k1 acts by
``laurent.times_power_of_two``, so no float ever arises.  The letter a is
(1, 0), the letter c is (0, 1).  ``bs12_surjective`` decides whether
images generate BS(1,2), and ``check_relators`` checks images against
any target.

Finite quotients replace Z by Z/n and Z[1/2] by Z/m for odd m with
2^n = 1 mod m, which makes the action well defined.  These quotients
drive the homology cross-checks.  ``check_metabelian_relators`` checks a
whole list of maps to one such quotient in one pass over each relator:
maps that share their a-exponents share every letter's a-coordinate and
multiplier, so only the translations are computed map by map.
Group-ring sums and products over any of these targets are
``words.ring_add`` and ``words.ring_mul``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import (
    IncompatibleParameters,
    NotSurjective,
    RelatorViolation,
    VerificationFailed,
)
from .groebner import _xgcd
from .laurent import times_power_of_two
from .words import Word

__all__ = [
    "BS12",
    "BS12_A",
    "BS12_C",
    "Bs12Group",
    "FiniteMetabelian",
    "evaluate_word",
    "check_relators",
    "check_metabelian_relators",
    "bs12_surjective",
]


@dataclass(frozen=True)
class BS12:
    k: int
    q: int | Fraction

    def __mul__(self, other: "BS12") -> "BS12":
        return BS12(self.k + other.k, self.q + times_power_of_two(other.q, self.k))

    def inverse(self) -> "BS12":
        return BS12(-self.k, times_power_of_two(-self.q, -self.k))

    def __pow__(self, e: int) -> "BS12":
        # repeated squaring: about 2 log2|e| products, exact by associativity
        base = self if e >= 0 else self.inverse()
        e = abs(e)
        out = BS12(0, 0)
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def is_identity(self) -> bool:
        return self.k == 0 and not self.q

    def __repr__(self):
        return f"BS12(k={self.k}, q={self.q})"


BS12_A = BS12(1, 0)
BS12_C = BS12(0, 1)


class Bs12Group:
    """Target-group operations bundle for generic word evaluation."""

    @staticmethod
    def identity():
        return BS12(0, 0)

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def inv(x):
        return x.inverse()


class FiniteMetabelian:
    """Z/n semidirect Z/m with the 2-action; needs 2^n = 1 mod m, m odd.

    Elements are plain tuples (k, q) with 0 <= k < n, 0 <= q < m.  The
    group law, ``mul`` and ``inv``, is bound once per target as closures
    over n, m and the 2^k table, built on first use.
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
        # 2^k mod m for 0 <= k < n, the action of k; built on first use, as
        # the group law is, so a target that a size cap refuses never builds it
        return [pow(2, k, self.m) for k in range(self.n)]

    @cached_property
    def mul(self):
        n, m, pow2 = self.n, self.m, self._pow2

        def mul(x, y):
            a, b = x
            c, d = y
            return ((a + c) % n, (b + pow2[a] * d) % m)

        return mul

    @cached_property
    def inv(self):
        n, m, pow2 = self.n, self.m, self._pow2

        def inv(x):
            a, b = x
            k = -a % n
            return (k, -pow2[k] * b % m)

        return inv

    def identity(self):
        return (0, 0)

    def order(self) -> int:
        return self.n * self.m

    def elements(self):
        return [(k, q) for k in range(self.n) for q in range(self.m)]

    def scale(self, x, u):
        """The automorphism (k, q) -> (k, u*q) for a unit u of Z/m."""
        return (x[0], u * x[1] % self.m)

    def __repr__(self):
        return f"FiniteMetabelian(n={self.n}, m={self.m})"


def evaluate_word(word: Word, images, target):
    mul, inv = target.mul, target.inv
    out = target.identity()
    for g, e in word.letters:
        out = mul(out, images[g] if e == 1 else inv(images[g]))
    return out


def check_relators(pres, images, target) -> None:
    """Raise RelatorViolation unless the generator images satisfy every
    relator."""
    for r in pres.relators:
        v = evaluate_word(r, images, target)
        if v != target.identity():
            raise RelatorViolation(f"relator {r!r} maps to {v!r}")


def check_metabelian_relators(pres, homs, target) -> None:
    """Check every map in ``homs`` on every relator of ``pres`` at once.

    ``homs`` lists maps to the FiniteMetabelian ``target``, each a tuple
    of (k, q) generator images, all with the same a-exponents k; maps
    whose a-exponents differ raise VerificationFailed.  Each relator is
    read letter by letter, once.  The a-coordinate a before a letter and
    the letter's multiplier are common to all maps: with image (k, q),
    the letter x_g moves a to a + k and adds 2^a q to the translation,
    and x_g^-1 moves a to a - k and adds -2^(a - k) q, exactly as
    ``evaluate_word`` multiplies by the image or its inverse.  Each map's
    translation is then the sum of the multipliers times that map's q,
    taken mod m.  Raises RelatorViolation, naming the relator, when the
    value of some map is not the identity.
    """
    if not homs:
        return
    n, m, pow2 = target.n, target.m, target._pow2
    exps = tuple(x[0] for x in homs[0])
    if any(tuple(x[0] for x in images) != exps for images in homs):
        raise VerificationFailed("the maps' a-exponents differ")
    translations = [tuple(x[1] for x in images) for images in homs]
    for r in pres.relators:
        a = 0
        steps = []  # (generator, multiplier) per letter
        for g, e in r.letters:
            if e == 1:
                steps.append((g, pow2[a]))
                a = (a + exps[g]) % n
            else:
                a = (a - exps[g]) % n
                steps.append((g, -pow2[a]))
        for h, qs in enumerate(translations):
            v = (a, sum(c * qs[g] for g, c in steps) % m)
            if v != (0, 0):
                raise RelatorViolation(f"relator {r!r} maps to {v!r} under map {h}")


def _odd_part(v: int) -> int:
    v = abs(v)
    while v and v % 2 == 0:
        v //= 2
    return v


def _unit_section(images) -> BS12:
    """Some product of the images whose a-exponent is exactly one."""
    cur = BS12(0, 0)
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
        delta = g.q + tau - times_power_of_two(tau, g.k)
        qg = gcd(qg, _odd_part(delta.numerator))
    return qg == 1
