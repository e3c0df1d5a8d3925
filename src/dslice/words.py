"""Freely reduced words, group presentations, Fox calculus and group rings.

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
free group on ``Word``, entries ``{Word: int}``) are all this one pass.
The fundamental identity

    sum_i (dw/dx_i) * (x_i - 1) = w - 1

holds for every word ``w`` and is used as a property test downstream.

``ring_add`` and ``ring_mul`` are the package's one sparse sum and one
sparse product of such group-ring elements, over any target.  This
module imports nothing from the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Word",
    "fox_derivative",
    "fox_row",
    "fox_rows",
    "FreeGroup",
    "GroupPresentation",
    "ring_add",
    "ring_mul",
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


def _inverse_letters(ls: tuple) -> tuple:
    return tuple((h, -f) for h, f in reversed(ls))


def _substitute(letters: tuple, images: dict) -> tuple:
    """``letters`` with each generator g of ``images`` replaced by the
    word ``images[g]``, freely reduced as it is concatenated: the letters
    and the images are reduced, so each piece cancels only where it
    meets what precedes it."""
    out = []
    for x in letters:
        w = images.get(x[0])
        if w is None:
            w = (x,)
        else:
            w = w.letters if x[1] == 1 else _inverse_letters(w.letters)
        k, m = 0, len(w)
        while k < m and out and out[-1][0] == w[k][0] and out[-1][1] != w[k][1]:
            out.pop()
            k += 1
        out.extend(w[k:] if k else w)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in generators indexed by non-negative ints."""

    letters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce(self.letters))

    @classmethod
    def _reduced(cls, letters: tuple) -> "Word":
        """A word on a letter tuple that is already freely reduced, with
        exponents +-1, such as a slice or the inverse of a word."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    @staticmethod
    def gen(i: int, e: int = 1) -> "Word":
        return Word(((i, 1),) * e if e > 0 else ((i, -1),) * (-e))

    @staticmethod
    def identity() -> "Word":
        return Word(())

    def __mul__(self, other: "Word") -> "Word":
        # both are reduced, so letters cancel only where they meet
        a, b = self.letters, other.letters
        k, m = 0, min(len(a), len(b))
        while k < m and a[-1 - k][0] == b[k][0] and a[-1 - k][1] != b[k][1]:
            k += 1
        return Word._reduced(a[:len(a) - k] + b[k:])

    def inverse(self) -> "Word":
        return Word._reduced(_inverse_letters(self.letters))

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
        return Word._reduced(_substitute(self.letters, images))

    def __repr__(self):
        return f"Word({list(self.letters)!r})"


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


def fox_derivative(w: Word, i: int) -> dict:
    """Free derivative of ``w`` with respect to generator ``i``, as an
    element ``{Word: nonzero int}`` of the free group's ring."""
    n = max(w.max_generator(), i) + 1
    images = [Word.gen(g) for g in range(n)]
    return fox_row(w, n, images, FreeGroup)[i]


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