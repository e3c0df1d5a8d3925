"""Freely reduced words, group presentations and Fox calculus.

Words are tuples of ``(generator_index, exponent)`` letters with exponent
``+1`` or ``-1``; concatenation reduces eagerly, so two words are equal in
the free group iff they are equal as tuples.

The free differential calculus follows the usual rules

    d(x)/dx = 1,   d(x^-1)/dx = -x^-1,   d(uv)/dx = du/dx + u * dv/dx,

so every term of dw/dx_g is a prefix of ``w``, times x_g^-1 when the
letter is inverted.  ``fox_row`` therefore pushes a whole row of
derivatives through a map phi in one pass along ``w``: it keeps
phi(prefix), adds +phi(prefix) to column g before a letter x_g, and
-phi(prefix * x_g^-1) after a letter x_g^-1.  The map is given by the
images of the generators in a *target*, any bundle with ``identity()``,
``mul(x, y)`` and ``inv(x)``; each entry comes back as an element of the
integral group ring, ``{element: nonzero int}``.  The Alexander
Jacobian (target Z = <t> by the weights), the twisted Jacobians
(BS(1,2) and its finite quotients) and ``fox_derivative`` itself (the
free group on ``Word``) are all this one pass.  The fundamental identity

    sum_i (dw/dx_i) * (x_i - 1) = w - 1

holds for every word ``w`` and is used as a property test downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Word",
    "FoxPolynomial",
    "fox_derivative",
    "fox_row",
    "fox_rows",
    "FreeGroup",
    "GroupPresentation",
]


def _reduce(letters):
    out = []
    for g, e in letters:
        if e not in (1, -1):
            raise ValueError(f"letter exponent must be +-1, got {e}")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in generators indexed by non-negative ints."""

    letters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce(self.letters))

    @staticmethod
    def gen(i: int, e: int = 1) -> "Word":
        return Word(((i, 1),) * e if e > 0 else ((i, -1),) * (-e))

    @staticmethod
    def identity() -> "Word":
        return Word(())

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def conjugate(self, by: "Word") -> "Word":
        """Return ``by * self * by^-1``."""
        return by * self * by.inverse()

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def exponent_sum(self, i: int | None = None) -> int:
        """Total exponent of generator ``i``, or of all letters if None."""
        if i is None:
            return sum(e for _, e in self.letters)
        return sum(e for g, e in self.letters if g == i)

    def max_generator(self) -> int:
        return max((g for g, _ in self.letters), default=-1)

    def shift(self, offset: int) -> "Word":
        """Reindex every generator by ``offset`` (used when amalgamating)."""
        return Word(tuple((g + offset, e) for g, e in self.letters))

    def substitute(self, images: dict) -> "Word":
        """Replace each generator by a word; missing indices map to self."""
        out = Word.identity()
        for g, e in self.letters:
            w = images.get(g, Word.gen(g))
            out = out * (w if e == 1 else w.inverse())
        return out

    def __repr__(self):
        return f"Word({list(self.letters)!r})"


@dataclass(frozen=True)
class FoxPolynomial:
    """Finite integer combination of free-group words."""

    terms: tuple = ()  # tuple of (Word, int), canonically sorted

    @staticmethod
    def from_dict(d: dict) -> "FoxPolynomial":
        items = tuple(
            sorted(((w, c) for w, c in d.items() if c != 0),
                   key=lambda t: t[0].letters)
        )
        return FoxPolynomial(items)

    @staticmethod
    def zero() -> "FoxPolynomial":
        return FoxPolynomial(())

    @staticmethod
    def of(w: Word, c: int = 1) -> "FoxPolynomial":
        return FoxPolynomial.from_dict({w: c})

    def as_dict(self) -> dict:
        return dict(self.terms)

    def __add__(self, other: "FoxPolynomial") -> "FoxPolynomial":
        d = self.as_dict()
        for w, c in other.terms:
            d[w] = d.get(w, 0) + c
        return FoxPolynomial.from_dict(d)

    def __neg__(self) -> "FoxPolynomial":
        return FoxPolynomial(tuple((w, -c) for w, c in self.terms))

    def __sub__(self, other: "FoxPolynomial") -> "FoxPolynomial":
        return self + (-other)

    def left_mul(self, w: Word, c: int = 1) -> "FoxPolynomial":
        d = {}
        for v, k in self.terms:
            u = w * v
            d[u] = d.get(u, 0) + c * k
        return FoxPolynomial.from_dict(d)

    def word_mul(self, other: "FoxPolynomial") -> "FoxPolynomial":
        d = {}
        for u, a in self.terms:
            for v, b in other.terms:
                w = u * v
                d[w] = d.get(w, 0) + a * b
        return FoxPolynomial.from_dict(d)

    def is_zero(self) -> bool:
        return not self.terms


def fox_row(word: Word, n: int, images, target) -> tuple:
    """Free derivatives of ``word`` by x_0..x_{n-1}, pushed into Z[target].

    One pass along the word, keeping the image of the prefix read so far.
    """
    row = tuple({} for _ in range(n))
    mul = target.mul
    prefix = target.identity()
    for g, e in word.letters:
        if e == -1:
            prefix = mul(prefix, target.inv(images[g]))
        entry = row[g]
        c = entry.get(prefix, 0) + e
        if c:
            entry[prefix] = c
        else:
            del entry[prefix]
        if e == 1:
            prefix = mul(prefix, images[g])
    return row


def fox_rows(pres: GroupPresentation, images, target) -> list:
    """The Fox matrix of ``pres`` in Z[target], one ``fox_row`` per relator."""
    n = len(pres.names)
    return [fox_row(r, n, images, target) for r in pres.relators]


class FreeGroup:
    """The free group on ``Word``, as a ``fox_row`` target."""

    identity = staticmethod(Word.identity)
    mul = staticmethod(Word.__mul__)
    inv = staticmethod(Word.inverse)


def fox_derivative(w: Word, i: int) -> FoxPolynomial:
    """Free derivative of ``w`` with respect to generator ``i``."""
    n = max(w.max_generator(), i) + 1
    images = [Word.gen(g) for g in range(n)]
    return FoxPolynomial.from_dict(fox_row(w, n, images, FreeGroup)[i])


@dataclass(frozen=True)
class GroupPresentation:
    """Finite presentation: named generators plus relator words.

    Relators are stored freely reduced; an empty relator is dropped by the
    caller, never here (a presentation may legitimately carry one while a
    Tietze pass is in flight).
    """

    names: tuple
    relators: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for r in self.relators:
            if any(not 0 <= g < len(self.names) for g, _ in r.letters):
                raise ValueError("relator uses an undeclared generator")

    @property
    def num_generators(self) -> int:
        return len(self.names)

    def abelianization_matrix(self):
        """Rows = relators, columns = generators, entries = exponent sums."""
        return [
            [r.exponent_sum(i) for i in range(len(self.names))]
            for r in self.relators
        ]