"""Exact Laurent polynomials over Z and Z[1/2], and dyadic rationals.

``LaurentPoly`` stores a sparse map ``degree -> coefficient``.  Coefficients
are Python ints for the ring Z[t, t^-1] and may be dyadic
:class:`DyadicRational` values for Z[1/2][t, t^-1].  All arithmetic is
exact; nothing here ever touches floats.

Two Laurent polynomials are *associate* when they differ by a unit
``+-t^k``.  ``canonical()`` picks the representative with lowest degree 0
and positive trailing coefficient, so associates compare equal after
canonicalisation.

``maximal_minors`` evaluates a matrix once: each row is shifted to lowest
degree 0 and t is replaced by ``2**B`` (Kronecker substitution), so every
minor is an integer minor of one integer matrix.  ``2**(B-1)`` exceeds the
product over the rows of max(1, l1-norm of the row's coefficients).
Expanding a minor over permutations, each term takes one entry per row,
so that product bounds the l1-norm of every minor, on any columns.  Each
coefficient then lies strictly between ``-2**(B-1)`` and ``2**(B-1)``,
and balanced base-``2**B`` digits, being unique, give the coefficients
back exactly.  Only integer coefficients are accepted.  Each minor takes
one forward Bareiss pass on its square integer submatrix (Bareiss, Math.
Comp. 22, 1968); every division there, and in the Gauss-Jordan
elimination the generator weights use, is checked with ``divmod``, and a
remainder raises ``VerificationFailed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import VerificationFailed

__all__ = [
    "DyadicRational",
    "LaurentPoly",
    "maximal_minors",
    "poly_gcd",
    "ZERO",
    "ONE",
    "T",
]


@dataclass(frozen=True)
class DyadicRational:
    """A rational of the form num / 2**exp with num odd or zero.

    >>> DyadicRational(6, 2)          # 6/4 normalises to 3/2
    DyadicRational(num=3, exp=1)
    """

    num: int
    exp: int = 0

    def __post_init__(self):
        num, exp = self.num, self.exp
        if num == 0:
            exp = 0
        else:
            while num % 2 == 0:
                num //= 2
                exp -= 1
            if exp < 0:
                num <<= -exp
                exp = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __add__(self, other):
        other = _as_dyadic(other)
        e = max(self.exp, other.exp)
        return DyadicRational(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    __radd__ = __add__

    def __neg__(self):
        return DyadicRational(-self.num, self.exp)

    def __sub__(self, other):
        return self + (-_as_dyadic(other))

    def __rsub__(self, other):
        return _as_dyadic(other) + (-self)

    def __mul__(self, other):
        other = _as_dyadic(other)
        return DyadicRational(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def times_power_of_two(self, k: int) -> "DyadicRational":
        """Multiply by 2**k (k may be negative)."""
        return DyadicRational(self.num, self.exp - k)

    def __bool__(self):
        return self.num != 0

    def __repr__(self):
        return f"DyadicRational(num={self.num}, exp={self.exp})"

    def __str__(self):
        return str(self.num) if self.exp == 0 else f"{self.num}/2^{self.exp}"


def _as_dyadic(x):
    if isinstance(x, DyadicRational):
        return x
    if isinstance(x, int):
        return DyadicRational(x, 0)
    raise TypeError(f"cannot coerce {x!r} to a dyadic rational")


def _czero(c) -> bool:
    return not c


class LaurentPoly:
    """Sparse Laurent polynomial; immutable by convention."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {d: c for d, c in (coeffs or {}).items() if not _czero(c)}

    @staticmethod
    def constant(c) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def monomial(c, d: int) -> "LaurentPoly":
        return LaurentPoly({d: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def min_degree(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def max_degree(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def __add__(self, other):
        d = dict(self.coeffs)
        for k, c in other.coeffs.items():
            d[k] = d.get(k, 0) + c
        return LaurentPoly(d)

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({k: c * other for k, c in self.coeffs.items()})
        d: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                d[k] = d.get(k, 0) + c1 * c2
        return LaurentPoly(d)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return LaurentPoly({d + k: c for d, c in self.coeffs.items()})

    def mirror(self) -> "LaurentPoly":
        """Substitute t -> t^-1."""
        return LaurentPoly({-d: c for d, c in self.coeffs.items()})

    def evaluate_int(self, x: int):
        """Evaluate at an integer with no negative degrees present."""
        if any(d < 0 for d in self.coeffs):
            raise ValueError("negative degrees: use evaluate_dyadic")
        return sum(c * x ** d for d, c in self.coeffs.items())

    def evaluate_dyadic(self, k: int) -> DyadicRational:
        """Evaluate exactly at t = 2**k (k = +-1 are the cases that matter)."""
        total = DyadicRational(0)
        for d, c in self.coeffs.items():
            total = total + _as_dyadic(c).times_power_of_two(k * d)
        return total

    def evaluate_mod(self, x: int, m: int) -> int:
        """Evaluate at ``x`` modulo ``m``; negative degrees use x^-1 mod m."""
        inv = pow(x, -1, m) if any(d < 0 for d in self.coeffs) else None
        total = 0
        for d, c in self.coeffs.items():
            b = pow(x, d, m) if d >= 0 else pow(inv, -d, m)
            total = (total + c * b) % m
        return total

    def content(self) -> int:
        g = 0
        for c in self.coeffs.values():
            g = gcd(g, abs(int(c)))
        return g

    def canonical(self) -> "LaurentPoly":
        """Associate-class representative: min degree 0, trailing coeff > 0."""
        if not self.coeffs:
            return LaurentPoly()
        lo = self.min_degree()
        sign = 1 if self.coeffs[lo] > 0 else -1
        return LaurentPoly({d - lo: sign * c for d, c in self.coeffs.items()})

    def is_associate(self, other: "LaurentPoly") -> bool:
        return self.canonical() == other.canonical()

    def is_symmetric(self) -> bool:
        """True when p(t) and p(1/t) are associates (Alexander symmetry)."""
        return self.is_associate(self.mirror())

    def __repr__(self):
        return f"LaurentPoly({dict(sorted(self.coeffs.items()))!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            if d == 0:
                parts.append(f"{c}")
            elif d == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{d}")
        return " + ".join(parts).replace("+ -", "- ")


ZERO = LaurentPoly()
ONE = LaurentPoly.constant(1)
T = LaurentPoly.monomial(1, 1)


def _as_dense(p: LaurentPoly):
    """Integer coefficient list of the shifted ordinary polynomial."""
    if p.is_zero():
        return [], 0
    lo = p.min_degree()
    hi = p.max_degree()
    return [int(p.coeffs.get(d, 0)) for d in range(lo, hi + 1)], lo

def _primitive(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    if not c:
        return c
    g = 0
    for x in c:
        g = gcd(g, abs(x))
    c = [x // g for x in c]
    if c[-1] < 0:
        c = [-x for x in c]
    return c


def _pseudo_rem(f: list, g: list) -> list:
    """Pseudo-remainder of dense integer polys (lists, lowest degree first)."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(f) - 1 >= dg and f:
        df = len(f) - 1
        lf = f[-1]
        f = [x * lg for x in f]
        shift = df - dg
        for i, gi in enumerate(g):
            f[i + shift] -= lf * gi
        while f and f[-1] == 0:
            f.pop()
    return f


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Gcd in Z[t,t^-1], returned in canonical associate form.

    Uses the primitive polynomial remainder sequence over Z[t]; the content
    is carried separately so the answer is an honest gcd, not just of the
    primitive parts.
    """
    if a.is_zero():
        return b.canonical()
    if b.is_zero():
        return a.canonical()
    ca, cb = a.content(), b.content()
    f, _ = _as_dense(a)
    g, _ = _as_dense(b)
    f, g = _primitive(f), _primitive(g)
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _pseudo_rem(f, g)
        f, g = g, _primitive(r)
    prim = LaurentPoly({i: c for i, c in enumerate(f)})
    return (prim * gcd(ca, cb)).canonical()


def _kronecker(mat):
    """Rows shifted to degree 0 and evaluated at t = 2**B; B; the shift."""
    if not all(isinstance(c, int)
               for row in mat for p in row for c in p.coeffs.values()):
        raise TypeError("determinants need integer coefficients")
    lows = [min((p.min_degree() for p in row if p), default=0) for row in mat]
    bound = 1
    for row in mat:
        bound *= max(1, sum(abs(c) for p in row for c in p.coeffs.values()))
    bits = bound.bit_length() + 1
    ints = [
        [sum(c << bits * (d - lo) for d, c in p.coeffs.items()) for p in row]
        for row, lo in zip(mat, lows)
    ]
    return ints, bits, sum(lows)


def _int_det(rows: list) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix.

    Works in place on ``rows``.  Every division is checked: a remainder
    raises ``VerificationFailed``.
    """
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        prow = rows[k]
        pivot = prow[k]
        for i in range(k + 1, n):
            row = rows[i]
            a = row[k]
            for j in range(k + 1, n):
                q, r = divmod(row[j] * pivot - a * prow[j], prev)
                if r:
                    raise VerificationFailed("Bareiss division must be exact")
                row[j] = q
        prev = pivot
    return sign * rows[-1][-1] if rows else 1


def _gauss_jordan(rows: list):
    """Fraction-free Gauss-Jordan (Bareiss-Montante) elimination, in place.

    ``rows`` is a k x n integer matrix.  Row i takes its pivot in its first
    nonzero column outside the earlier pivots, so no row is swapped.  A row
    left with no such column depends on the rows above it; it is skipped,
    and stays zero outside the pivot columns.  Returns ``(pivots, d)``,
    where ``pivots`` maps each pivot column to its row and ``d`` is the
    determinant on the pivot rows and columns, taken in row order.  Only
    the other columns are updated: on the pivot rows the pivot columns
    would hold ``d`` times the identity, and nothing reads them.  Every
    division is checked: a remainder raises ``VerificationFailed``.
    """
    pivots: dict = {}
    free = list(range(len(rows[0])))
    prev = 1
    for i, prow in enumerate(rows):
        p = next((c for c in free if prow[c]), None)
        if p is None:
            continue
        free.remove(p)
        a = prow[p]
        for j, row in enumerate(rows):
            if j == i:
                continue
            b = row[p]
            for c in free:
                q, r = divmod(a * row[c] - b * prow[c], prev)
                if r:
                    raise VerificationFailed("Bareiss division must be exact")
                row[c] = q
        pivots[p] = i
        prev = a
    return pivots, prev


def _decode(value: int, bits: int, low: int) -> LaurentPoly:
    """Balanced base-2**bits digits of value, as coefficients from low up."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    coeffs = {}
    d = low
    while value:
        c = value & mask
        if c >= half:
            c -= 1 << bits
        if c:
            coeffs[d] = c
        value = (value - c) >> bits
        d += 1
    return LaurentPoly(coeffs)


def maximal_minors(mat, subsets):
    """Yield the k x k minor of the k-row matrix ``mat`` on each column subset.

    The matrix is evaluated once (see the module docstring), and each
    minor is one Bareiss determinant, computed as the iteration asks for
    it.  Raises ``TypeError`` on a non-integer coefficient and
    ``ValueError`` on a subset of the wrong size.
    """
    k = len(mat)
    ints, bits, low = _kronecker(mat)
    for cols in subsets:
        if len(cols) != k:
            raise ValueError(f"a maximal minor of {k} rows needs {k} columns")
        value = _int_det([[row[c] for c in cols] for row in ints])
        yield _decode(value, bits, low)
