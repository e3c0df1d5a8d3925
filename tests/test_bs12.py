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
    ring_apply,
    ring_mul,
)
from dslice.errors import IncompatibleParameters, RelatorViolation
from dslice.laurent import DyadicRational
from dslice.words import GroupPresentation, Word


def dy(num, exp=0):
    return DyadicRational(num, exp)


elements = st.builds(
    BS12,
    st.integers(min_value=-4, max_value=4),
    st.builds(dy, st.integers(min_value=-9, max_value=9),
              st.integers(min_value=0, max_value=3)),
)


@given(elements, elements, elements)
def test_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements)
def test_inverse_and_identity(x):
    e = Bs12Group.identity()
    assert x * x.inverse() == e
    assert x.inverse() * x == e
    assert x * e == x and e * x == x


@given(elements, st.integers(min_value=-5, max_value=5))
def test_powers(x, n):
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


def test_finite_is_nonabelian_when_action_nontrivial():
    q = FiniteMetabelian(2, 3)  # this is the symmetric group on 3 letters
    x, y = (1, 0), (0, 1)
    assert q.mul(x, y) != q.mul(y, x)


@pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 7), (4, 5), (4, 15)])
def test_left_multiples_index_every_product(n, m):
    q = FiniteMetabelian(n, m)
    idx = q.element_index()
    for k in q.elements():
        want = [idx[q.mul(u, k)] for u in q.elements()]
        assert q.left_multiples(k) == want
        assert q.left_multiples(k, 5 * q.order()) == [
            5 * q.order() + i for i in want
        ]


def test_group_ring_ops():
    e = Bs12Group.identity()
    a = BS12_A
    one_plus_a = {e: 1, a: 1}
    one_minus_a = {e: 1, a: -1}
    prod = ring_mul(one_plus_a, one_minus_a, Bs12Group)
    assert prod == {e: 1, a * a: -1}
    pushed = ring_apply({a: 2, a * a: 5}, lambda g: (g.k % 2, 0))
    assert pushed == {(1, 0): 2, (0, 0): 5}
    collapsed = ring_apply({a: 1, BS12(1, dy(3)): -1}, lambda g: g.k)
    assert collapsed == {}
