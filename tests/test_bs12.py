from fractions import Fraction
from math import gcd
from random import Random

from hypothesis import given
from hypothesis import strategies as st
import pytest

from dslice.bs12 import (
    BS12,
    BS12_A,
    BS12_C,
    Bs12Group,
    FiniteMetabelian,
    _unit_section,
    bs12_surjective,
    check_relators,
    evaluate_word,
)
from dslice.errors import IncompatibleParameters, RelatorViolation
from dslice.groebner import _xgcd
from dslice.laurent import times_power_of_two
from dslice.words import GroupPresentation, Word, ring_mul


def dy(num, exp=0):
    return Fraction(num, 1 << exp)


dyadics = st.builds(dy, st.integers(min_value=-9, max_value=9),
                    st.integers(min_value=0, max_value=3))
elements = st.builds(BS12, st.integers(min_value=-4, max_value=4), dyadics)
# translation parts as plain ints or as Fractions
exact_elements = st.builds(
    BS12,
    st.integers(min_value=-4, max_value=4),
    st.one_of(st.integers(min_value=-9, max_value=9), dyadics),
)


@given(exact_elements, exact_elements, st.integers(min_value=-5, max_value=5))
def test_translations_stay_exact(x, y, e):
    # 2**k with k < 0 would be a float; the action must stay in Z[1/2]
    for z in (x * y, x.inverse(), y.inverse(), x ** e, y ** e, (x * y) ** e):
        assert type(z.q) in (int, Fraction), z


@given(elements, elements, elements)
def test_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements)
def test_inverse_and_identity(x):
    e = Bs12Group.identity()
    assert x * x.inverse() == e
    assert x.inverse() * x == e
    assert x * e == x and e * x == x


@given(exact_elements)
def test_powers(x):
    # repeated squaring against repeated products, int and Fraction
    # translations, every exponent in -20..20
    for n in range(-20, 21):
        out = Bs12Group.identity()
        step = x if n >= 0 else x.inverse()
        for _ in range(abs(n)):
            out = out * step
        assert x ** n == out


def test_defining_relation():
    a, c = BS12_A, BS12_C
    assert a * c * a.inverse() == c * c
    assert a * c * a.inverse() * (c * c).inverse() == Bs12Group.identity()


def test_evaluate_word():
    # a c a^-1 c^-2 is the defining relator
    r = (Word.gen(0) * Word.gen(1) * Word.gen(0, -1)
         * Word.gen(1, -1) * Word.gen(1, -1))
    assert evaluate_word(r, (BS12_A, BS12_C), Bs12Group).is_identity()
    w = Word.gen(1) * Word.gen(0)
    assert evaluate_word(w, (BS12_A, BS12_C), Bs12Group) == BS12(1, dy(1))


def test_check_relators_raises():
    pres = GroupPresentation(
        ("a", "c"),
        (Word.gen(0) * Word.gen(1) * Word.gen(0, -1)
         * Word.gen(1, -1) * Word.gen(1, -1),),
    )
    check_relators(pres, (BS12_A, BS12_C), Bs12Group)
    with pytest.raises(RelatorViolation):
        check_relators(pres, (BS12_C, BS12_A), Bs12Group)
    # a -> (2, 0) leaves a-exponent 0 but translation 2, and a, c -> (1, 0)
    # leave translation 0 but a-exponent -1
    for forged in ((BS12(2, 0), BS12_C), (BS12_A, BS12_A)):
        with pytest.raises(RelatorViolation):
            check_relators(pres, forged, Bs12Group)
    # c -> (0, 1/8) still satisfies the relator; a -> (2, 1/8) does not
    check_relators(pres, (BS12_A, BS12(0, dy(1, 3))), Bs12Group)
    with pytest.raises(RelatorViolation, match="maps to BS12"):
        check_relators(pres, (BS12(2, dy(1, 3)), BS12_C), Bs12Group)


def test_surjectivity_criterion():
    a, c = BS12_A, BS12_C
    assert bs12_surjective([a, c])
    assert bs12_surjective([a, c * c])          # 2 is a unit in Z[1/2]
    assert not bs12_surjective([a * a, c])      # index two in the Z part
    assert not bs12_surjective([a])             # no translations at all
    assert not bs12_surjective([a, BS12(0, dy(3))])
    assert bs12_surjective([BS12(1, dy(3)), BS12(0, dy(1, 2))])


def test_surjectivity_needs_section_adjustment():
    # (1, 1) alone generates a copy of Z, not the whole group: its
    # translation 1 is explained by the section itself.
    assert not bs12_surjective([BS12(1, dy(1))])
    assert bs12_surjective([BS12(1, dy(1)), BS12_C])


def test_finite_quotient_parameters():
    FiniteMetabelian(1, 1)
    FiniteMetabelian(2, 3)
    FiniteMetabelian(4, 15)
    FiniteMetabelian(3, 7)
    FiniteMetabelian(4, 5)
    with pytest.raises(IncompatibleParameters):
        FiniteMetabelian(1, 3)   # 2 != 1 mod 3
    with pytest.raises(IncompatibleParameters):
        FiniteMetabelian(3, 5)   # 8 = 3 mod 5
    with pytest.raises(IncompatibleParameters):
        FiniteMetabelian(2, 4)   # even m
    with pytest.raises(IncompatibleParameters):
        FiniteMetabelian(0, 1)


def test_finite_group_axioms_exhaustive():
    q = FiniteMetabelian(2, 3)
    els = q.elements()
    assert len(els) == 6
    e = q.identity()
    for x in els:
        assert q.mul(x, q.inv(x)) == e
        assert q.mul(x, e) == x
        for y in els:
            for z in els:
                assert q.mul(q.mul(x, y), z) == q.mul(x, q.mul(y, z))


def test_group_law_is_bound_on_first_use():
    from dslice.errors import BudgetExceeded
    from dslice.groups import _check_regular_budget

    # a target the cap refuses builds neither the 2^k table nor the law
    huge = FiniteMetabelian(20, 1048575)
    with pytest.raises(BudgetExceeded):
        _check_regular_budget(huge)
    assert set(vars(huge)) == {"n", "m"}
    q = FiniteMetabelian(4, 15)
    assert q.mul((3, 7), (2, 11)) == ((3 + 2) % 4, (7 + 8 * 11) % 15)
    assert q.inv((3, 7)) == (1, -2 * 7 % 15)
    assert set(vars(q)) == {"n", "m", "_pow2", "mul", "inv"}


def test_finite_is_nonabelian_when_action_nontrivial():
    q = FiniteMetabelian(2, 3)  # this is the symmetric group on 3 letters
    x, y = (1, 0), (0, 1)
    assert q.mul(x, y) != q.mul(y, x)


@pytest.mark.parametrize("n,m", [(2, 3), (3, 7), (4, 5), (4, 15)])
def test_unit_scaling_is_a_bijective_homomorphism(n, m):
    # (k, q) -> (k, u*q) for every unit u of Z/m, including u = 1
    q = FiniteMetabelian(n, m)
    els = q.elements()
    units = [u for u in range(1, m) if gcd(u, m) == 1]
    assert 1 in units and len(units) > 1
    for u in units:
        image = [q.scale(x, u) for x in els]
        assert sorted(image) == els
        s = dict(zip(els, image))
        for x in els:
            for y in els:
                assert s[q.mul(x, y)] == q.mul(s[x], s[y])
    # a non-unit collapses two elements, so only units are automorphisms
    if m % 3 == 0:
        assert len({q.scale(x, 3) for x in els}) < len(els)


def test_group_ring_ops():
    e = Bs12Group.identity()
    a = BS12_A
    one_plus_a = {e: 1, a: 1}
    one_minus_a = {e: 1, a: -1}
    prod = ring_mul(one_plus_a, one_minus_a, Bs12Group)
    assert prod == {e: 1, a * a: -1}


# ------------------------------------------- integer evaluation of words


def _random_translation(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-40, 40)
    return Fraction(rng.randint(-40, 40), 1 << rng.randint(0, 6))


def _random_images(rng, n):
    return tuple(
        BS12(rng.randint(-3, 3), _random_translation(rng)) for _ in range(n)
    )


def _fold(word, images):
    out = BS12(0, 0)
    for g, e in word.letters:
        out = out * (images[g] if e == 1 else images[g].inverse())
    return out


def test_integer_evaluation_matches_the_product_fold():
    rng = Random(30)
    words = [Word()]
    while len(words) < 600:
        n = rng.randint(0, 24)
        words.append(Word(tuple(
            (rng.randrange(4), rng.choice((1, -1))) for _ in range(n)
        )))
    for word in words:
        images = _random_images(rng, 4)
        v = evaluate_word(word, images, Bs12Group)
        assert v == _fold(word, images), (word, images)
        # a whole translation is an int, any other one a reduced Fraction
        if v.q == int(v.q):
            assert type(v.q) is int
        else:
            assert type(v.q) is Fraction
    assert evaluate_word(Word(), _random_images(rng, 2), Bs12Group) == BS12(0, 0)


def test_integer_evaluation_refuses_non_dyadic_translations():
    with pytest.raises(ValueError, match="Z\\[1/2\\]"):
        evaluate_word(Word.gen(0), (BS12(1, Fraction(1, 3)),), Bs12Group)


def _old_unit_section(images):
    # the section before it stopped early: every image is folded in
    cur = BS12(0, 0)
    for g in images:
        if g.k == 0:
            continue
        if cur.k == 0:
            cur = g
            continue
        d, x, y = _xgcd(cur.k, g.k)
        cur = (cur ** x) * (g ** y)
    return cur.inverse() if cur.k == -1 else cur


def _old_surjective(images):
    kg = 0
    for g in images:
        kg = gcd(kg, g.k)
    if kg != 1:
        return False
    tau = _old_unit_section(images).q
    qg = 0
    for g in images:
        delta = g.q + tau - times_power_of_two(tau, g.k)
        v = abs(delta.numerator)
        while v and v % 2 == 0:
            v //= 2
        qg = gcd(qg, v)
    return qg == 1


def test_surjectivity_matches_the_full_unit_section():
    rng = Random(31)
    answers, moved = [], 0
    for _ in range(400):
        images = _random_images(rng, rng.randint(1, 4))
        answers.append(bs12_surjective(images))
        assert answers[-1] == _old_surjective(images), images
        if answers[-1] or gcd(*(g.k for g in images)) == 1:
            moved += _unit_section(images) != _old_unit_section(images)
    # both answers occur, and many sections stop before the last image
    assert 50 < sum(answers) < 350
    assert moved > 50
