from fractions import Fraction
from math import gcd

from hypothesis import given
from hypothesis import strategies as st
import pytest

from dslice.bs12 import (
    BS12,
    BS12_A,
    BS12_C,
    Bs12Group,
    FiniteMetabelian,
    bs12_surjective,
    check_relators,
    evaluate_word,
)
from dslice.errors import IncompatibleParameters, RelatorViolation
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
