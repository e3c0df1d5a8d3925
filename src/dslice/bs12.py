"""The solvable Baumslag-Solitar group <a, c | a c a^-1 = c^2> and friends.

Elements are normal forms (k, q) in Z x Z[1/2] with multiplication
(k1, q1)(k2, q2) = (k1 + k2, q1 + 2^k1 q2): the semidirect product where
the Z factor acts on dyadic rationals by multiplication by two.  The
translation q is an int or a ``fractions.Fraction``, and 2^k1 acts by
``laurent.times_power_of_two``, so no float ever arises.  The letter a is
(1, 0), the letter c is (0, 1).  ``bs12_surjective`` decides whether
images generate BS(1,2), and ``check_relators`` checks images against
any target.

Words are evaluated in BS(1,2) with integers only.  By Fox's
crossed-homomorphism identity (Fox, Free differential calculus I, Ann.
Math. 57, 1953), the translation of a word is a sum over its letters of
+-2^a q_g, a being the a-exponent of the prefix before x_g (after it, for
x_g^-1).  ``_DyadicImages`` writes every image translation q_g as Q_g /
2^s over one common power of two and keeps the running sum as num * 2^lo
with int shifts, so a word costs one normalisation, and a relator check
none: a relator holds exactly when its a-exponent and num are both zero.
``evaluate_word`` and ``check_relators`` take this path for BS(1,2) and
the generic product loop for any other target.

Finite quotients replace Z by Z/n and Z[1/2] by Z/m for odd m with
2^n = 1 mod m, which makes the action well defined.  These quotients
drive the homology cross-checks.  ``check_metabelian_relators`` checks a
whole list of maps to one such quotient in one pass over each relator:
maps that share their a-exponents share every letter's a-coordinate and
multiplier, so only the translations are computed map by map.  The same
observation makes a relator's translation Z/m-linear in the vector of
translations once the a-exponents are fixed, so a span of maps holds
every relator exactly when the zero map and the span's generators do;
``groups.metabelian_quotient_homs`` checks only those.
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


def _dyadic(q) -> tuple:
    """``(num, e)`` with q = num / 2^e for an int or a dyadic Fraction."""
    if type(q) is int:
        return q, 0
    d = q.denominator
    if d & (d - 1):
        raise ValueError(f"translation {q} is not in Z[1/2]")
    return q.numerator, d.bit_length() - 1


class _DyadicImages:
    """Generator images in BS(1,2), each as (k_g, Q_g) with q_g = Q_g / 2^s
    for one common s, for evaluating words with integers only."""

    __slots__ = ("s", "pairs")

    def __init__(self, images):
        split = [(x.k, *_dyadic(x.q)) for x in images]
        self.s = s = max((e for _, _, e in split), default=0)
        self.pairs = tuple((k, num << (s - e)) for k, num, e in split)

    def fold(self, letters) -> tuple:
        """``(k, num, lo)``: the word's value is (k, num * 2^(lo - s)).

        x_g adds 2^a Q_g before moving a by k_g; x_g^-1 moves a by -k_g
        and then adds -2^a Q_g, exactly as multiplying by the image or
        its inverse does.  A term below 2^lo shifts num up instead.
        """
        pairs = self.pairs
        a = num = lo = 0
        for g, e in letters:
            k, t = pairs[g]
            if e == 1:
                at = a
                a += k
            else:
                a -= k
                at = a
                t = -t
            if not t:
                continue
            if at >= lo:
                num += t << (at - lo)
            else:
                num = (num << (lo - at)) + t
                lo = at
        return a, num, lo

    def value(self, letters) -> BS12:
        """The word's BS12 value: an int translation when it is whole,
        otherwise one Fraction with a power-of-two denominator."""
        k, num, lo = self.fold(letters)
        e = lo - self.s  # the translation is num * 2^e
        if e >= 0:
            return BS12(k, num << e)
        if not num:
            return BS12(k, 0)
        # cancel the factors of two that num shares with 2^-e
        z = min((num & -num).bit_length() - 1, -e)
        num >>= z
        e += z
        return BS12(k, num if not e else Fraction(num, 1 << -e))


def evaluate_word(word: Word, images, target):
    if target is Bs12Group:
        return _DyadicImages(images).value(word.letters)
    mul, inv = target.mul, target.inv
    out = target.identity()
    for g, e in word.letters:
        out = mul(out, images[g] if e == 1 else inv(images[g]))
    return out


def check_relators(pres, images, target) -> None:
    """Raise RelatorViolation unless the generator images satisfy every
    relator.  In BS(1,2) a relator holds exactly when its a-exponent and
    its scaled translation are both zero, so no Fraction is built."""
    if target is Bs12Group:
        dyadic = _DyadicImages(images)
        for r in pres.relators:
            k, num, _ = dyadic.fold(r.letters)
            if k or num:
                raise RelatorViolation(
                    f"relator {r!r} maps to {dyadic.value(r.letters)!r}"
                )
        return
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

    That sum is Z/m-linear in the map's translations, with the common
    a-coordinate as its a-part, so the maps whose translation vectors
    lie in the Z/m-span of some checked maps' vectors hold every relator
    once the checked maps and the zero map do.
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
    return v // (v & -v) if v else 0


def _unit_section(images) -> BS12:
    """The first product of the images whose a-exponent is +-1, inverted
    to exponent one if need be."""
    cur = BS12(0, 0)
    for g in images:
        if g.k == 0:
            continue
        if cur.k == 0:
            cur = g
        else:
            d, x, y = _xgcd(cur.k, g.k)
            cur = (cur ** x) * (g ** y)
        if cur.k in (1, -1):
            break
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

    Any such h gives the same answer: conjugation by (0, tau), an
    automorphism, sends h to a and each image to (k_i, q_i + tau*(1 -
    2^k_i)), so the test asks whether the conjugated subgroup, which
    contains a, is everything, and that holds exactly when the image
    itself is everything.  So ``_unit_section`` stops at the first
    product of a-exponent +-1.  The numbers are read over the images'
    common power of two, times 2^-k_i when k_i < 0, which leaves odd
    parts unchanged, so each is an int.
    """
    kg = 0
    for g in images:
        kg = gcd(kg, g.k)
    if kg != 1:
        return False
    pairs = _DyadicImages([*images, _unit_section(images)]).pairs
    _, tau = pairs[-1]
    qg = 0
    for k, q in pairs[:-1]:
        delta = q + tau - (tau << k) if k >= 0 else ((q + tau) << -k) - tau
        qg = gcd(qg, _odd_part(delta))
    return qg == 1
