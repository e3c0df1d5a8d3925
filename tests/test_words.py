"""Free words and Fox calculus: axioms, a worked example, random identity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dslice.bs12 import BS12, Bs12Group, FiniteMetabelian, evaluate_word
from dslice.modules import _Degree
from dslice.words import (
    FreeGroup,
    GroupPresentation,
    Word,
    fox_derivative,
    fox_row,
    ring_add,
    ring_mul,
)


def w(*pairs):
    return Word(tuple(pairs))


def test_free_reduction():
    assert w((0, 1), (0, -1)) == Word.identity()
    assert w((0, 1), (1, 1), (1, -1), (0, 1)).letters == ((0, 1), (0, 1))
    assert (w((0, 1)) * w((0, -1))) == Word.identity()


def test_inverse_and_conjugate():
    u = w((0, 1), (1, -1), (2, 1))
    assert (u * u.inverse()) == Word.identity()
    v = u.conjugate(w((1, 1)))
    assert v.letters[0] == (1, 1)


letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from([1, -1])),
    max_size=12,
)


@given(letters, letters)
def test_mul_associative_via_reduction(a, b):
    x, y = Word(tuple(a)), Word(tuple(b))
    assert (x * y).letters == Word(tuple(a) + tuple(b)).letters


def _fold_substitute(word, images):
    # the product of the images, one reducing multiplication per letter
    out = Word.identity()
    for g, e in word.letters:
        v = images.get(g, Word.gen(g))
        out = out * (v if e == 1 else v.inverse())
    return out


@given(letters, st.dictionaries(st.integers(0, 3), letters, max_size=4))
def test_substitute_is_the_folded_product(a, images):
    word = Word(tuple(a))
    images = {g: Word(tuple(v)) for g, v in images.items()}
    assert word.substitute(images) == _fold_substitute(word, images)



@given(letters, letters, st.integers(0, 12))
def test_product_cancels_at_the_junction(a, b, k):
    # y opens with up to k letters of x^-1, so the junction cancels deeply
    x = Word(tuple(a))
    y = Word(x.inverse().letters[:k] + tuple(b))
    assert x * y == Word(x.letters + y.letters)


def _concatenated(word, images):
    # every image's letters in a row, reduced once by the checked constructor
    out = []
    for g, e in word.letters:
        v = images.get(g, Word.gen(g))
        out += v.letters if e == 1 else v.inverse().letters
    return Word(tuple(out))


@given(letters, letters, letters)
def test_substitute_cancels_across_images(a, u, v):
    # x_1's image opens with x_0's inverted, and x_2's undoes v
    word, u, v = Word(tuple(a)), Word(tuple(u)), Word(tuple(v))
    images = {0: u, 1: u.inverse() * v, 2: v.inverse()}
    assert word.substitute(images) == _fold_substitute(word, images)
    assert word.substitute(images) == _concatenated(word, images)

def test_fox_derivative_generator():
    x = Word.gen(0)
    assert fox_derivative(x, 0) == {Word.identity(): 1}
    assert fox_derivative(x.inverse(), 0) == {x.inverse(): -1}


def test_fox_derivative_worked_example():
    # d(x y x^-1)/dx = 1 - x y x^-1
    x, y = Word.gen(0), Word.gen(1)
    u = x * y * x.inverse()
    assert fox_derivative(u, 0) == {Word.identity(): 1, u: -1}
    # product rule against a manual split
    v = y * x
    lhs = fox_derivative(u * v, 0)
    rhs = ring_add(
        fox_derivative(u, 0), ring_mul({u: 1}, fox_derivative(v, 0), FreeGroup)
    )
    assert lhs == rhs


def _check_fundamental_identity(word: Word, ngens: int):
    one = {Word.identity(): 1}
    total = {}
    for i in range(ngens):
        xi = ring_add({Word.gen(i): 1}, one, -1)
        total = ring_add(total, ring_mul(fox_derivative(word, i), xi, FreeGroup))
    assert total == ring_add({word: 1}, one, -1)


def test_fundamental_identity_random_words():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        ltrs = tuple(
            (rng.randrange(n), rng.choice([1, -1]))
            for _ in range(rng.randint(0, 14))
        )
        _check_fundamental_identity(Word(ltrs), n)


def test_presentation_rejects_undeclared_generators():
    for g in (-1, 2):
        with pytest.raises(ValueError, match="undeclared generator"):
            GroupPresentation(("x", "y"), (w((g, 1), (0, 1)),))


# ------------------------------------------------------------- fox_row

NGENS = 3
short_words = st.lists(
    st.tuples(st.integers(0, NGENS - 1), st.sampled_from([1, -1])),
    max_size=14,
).map(lambda ls: Word(tuple(ls)))


def _images(elements):
    return st.lists(elements, min_size=NGENS, max_size=NGENS)


# each target with a strategy for the images of x_0 .. x_{NGENS-1}
TARGETS = {
    "degree": (_Degree, _images(st.integers(-3, 3))),
    "bs12": (Bs12Group, _images(st.builds(
        BS12,
        st.integers(-3, 3),
        st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 4, 8])),
    ))),
    "finite": (FiniteMetabelian(3, 7), _images(
        st.tuples(st.integers(0, 2), st.integers(0, 6)))),
    "free": (FreeGroup, _images(short_words)),
}


def _naive_row(word, n, images, target):
    """Each term from its own prefix, rebuilt and evaluated from scratch:
    +prefix before a letter x_g, -(prefix x_g^-1) for a letter x_g^-1."""
    row = [{} for _ in range(n)]
    letters = word.letters
    for k, (g, e) in enumerate(letters):
        end = k if e == 1 else k + 1
        row[g] = ring_add(
            row[g], {evaluate_word(Word(letters[:end]), images, target): e}
        )
    return tuple(row)


@pytest.mark.parametrize("name", sorted(TARGETS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fox_row_is_the_pushed_free_derivative(name, data):
    target, images = TARGETS[name]
    word, images = data.draw(short_words), data.draw(images)
    row = fox_row(word, NGENS, images, target)
    assert row == _naive_row(word, NGENS, images, target)
    # Fox's fundamental formula in Z[target]
    one = {target.identity(): 1}
    total = {}
    for entry, x in zip(row, images):
        total = ring_add(total, ring_mul(entry, ring_add({x: 1}, one, -1), target))
    assert total == ring_add({evaluate_word(word, images, target): 1}, one, -1)


def test_outside_letters_are_still_validated():
    with pytest.raises(ValueError, match="exponent"):
        Word(((0, 2),))
    with pytest.raises(ValueError, match="exponent"):
        Word(((0, 1), (1, 0)))


def test_inverse_and_cyclic_reduction_match_full_reduction():
    # both build words from letters that are already reduced, without
    # reducing again; reducing from scratch gives the same words
    from dslice.groups import _cyclic_reduce

    rng = random.Random(30)
    for _ in range(500):
        word = Word(tuple(
            (rng.randrange(3), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 16))
        ))
        inverse = Word(tuple((g, -e) for g, e in reversed(word.letters)))
        assert word.inverse() == inverse
        assert word.inverse().letters == inverse.letters
        ls = word.letters
        while len(ls) >= 2 and ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1]:
            ls = ls[1:-1]
        assert _cyclic_reduce(word.letters) == ls
