import random
from math import gcd

import pytest

from dslice.bs12 import BS12, Bs12Group, FiniteMetabelian, evaluate_word
from dslice.corpus import bundled_pattern
from dslice.diagrams import Diagram, wirtinger, zero_surgery
from dslice.errors import HypothesisNotMet, VerificationFailed
from dslice import groups
from dslice.groebner import module_contains
from dslice.groups import (
    MetabelianHom,
    finite_cover_homology,
    metabelian_quotient_homs,
    second_derived_certificate,
    simplify_presentation,
    summand_homs,
)
from dslice.laurent import DyadicRational, LaurentPoly
from dslice.modules import (
    alexander_module,
    alexander_polynomial,
    infinite_cyclic_weights,
)
from dslice.words import GroupPresentation, Word, fox_row

from synthpres import (
    as_surgery,
    brute_metabelian_homs,
    brute_surjective,
    presentation_from_rows,
)

TREFOIL = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
FIG8 = [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)]

# Seifert-form presentation matrix of the pretzel knot with two rows of
# three positive half-twists and one of three negative ones
ROWS_946 = [
    [{1: 3, 0: -3}, {1: 2, 0: -1}],
    [{1: 1, 0: -2}, {}],
]


def commutator(u, v):
    return u * v * u.inverse() * v.inverse()


def trefoil_group():
    lg = wirtinger(Diagram(TREFOIL))
    return lg.group, lg.meridians[0]


# ---------------------------------------------------------------- Tietze


def test_simplify_trefoil_presentation():
    pres, meridian = trefoil_group()
    small, images = simplify_presentation(pres, keep={meridian})
    assert small.num_generators < pres.num_generators
    # the kept meridian is still a plain generator
    (pair,) = images[meridian].letters
    new_meridian = pair[0]
    assert pair[1] == 1
    assert (alexander_polynomial(small, new_meridian)
            == alexander_polynomial(pres, meridian))


def test_simplify_images_transport_homs():
    pres, meridian = trefoil_group()
    small, images = simplify_presentation(pres, keep={meridian})
    new_meridian = images[meridian].letters[0][0]
    target, homs = metabelian_quotient_homs(as_surgery(small, new_meridian), 2, 3)
    homs = brute_surjective(homs, target)
    assert homs
    for hom in homs:
        composite = tuple(
            evaluate_word(images[i], hom, target)
            for i in range(pres.num_generators)
        )
        for r in pres.relators:
            assert evaluate_word(r, composite, target) == target.identity()
        assert composite[meridian][0] == 1


def test_simplify_preserves_cover_homology():
    pres, meridian = trefoil_group()
    small, images = simplify_presentation(pres, keep={meridian})
    new_meridian = images[meridian].letters[0][0]
    q = FiniteMetabelian(2, 1)
    big_images = tuple(
        (w % 2, 0) for w in infinite_cyclic_weights(pres, meridian)
    )
    small_images = tuple(
        (w % 2, 0) for w in infinite_cyclic_weights(small, new_meridian)
    )
    assert (finite_cover_homology(pres, big_images, q)
            == finite_cover_homology(small, small_images, q))


def test_simplify_kills_pinned_generator():
    # y is forced equal to a word in x, so only x survives
    pres = GroupPresentation(
        ("x", "y"),
        (Word.gen(1) * Word.gen(0, -2),),
    )
    small, images = simplify_presentation(pres)
    assert small.num_generators == 1
    assert small.relators == ()
    assert images[1] == Word.gen(0) * Word.gen(0)


# ------------------------------------------------------- summand homs


def test_summand_homs_on_split_module():
    pres = presentation_from_rows(ROWS_946)
    assert infinite_cyclic_weights(pres, 0) == [1, 0, 0]
    module = alexander_module(pres, 0)
    assert list(module.rows[0]) == [
        LaurentPoly({1: 3, 0: -3}),
        LaurentPoly({1: 2, 0: -1}),
    ]
    assert list(module.rows[1]) == [LaurentPoly({1: 1, 0: -2}), LaurentPoly({})]
    plain = as_surgery(pres)
    assert plain.module == module
    report = plain.splitting
    assert report.certified
    plus, minus = summand_homs(plain)
    assert (plus, minus) == plain.summands
    assert isinstance(plus, MetabelianHom)
    assert plus.merid_exponent == 1 and minus.merid_exponent == -1
    assert plus.factor == "t-2" and minus.factor == "2t-1"
    assert plus.images[0] == BS12(1, DyadicRational(0))
    assert minus.images[0] == BS12(-1, DyadicRational(0))
    # e1 is the first witness, e2 the difference of the two
    assert plus.images[1] == BS12(0, DyadicRational(1))
    assert plus.images[2] == BS12(0, DyadicRational(-1))
    assert minus.images[1] == BS12(0, DyadicRational(0))
    assert minus.images[2] == BS12(0, DyadicRational(1))
    assert plus.surjective and minus.surjective
    # the maps respect every relator
    for r in pres.relators:
        assert plus(r).is_identity()
        assert minus(r).is_identity()


def test_summand_homs_need_certificate():
    plain = as_surgery(*trefoil_group())
    assert plain.splitting.verdict == "no_split"
    with pytest.raises(HypothesisNotMet):
        summand_homs(plain)
    with pytest.raises(HypothesisNotMet):
        plain.summands


# ------------------------------------------- finite metabelian quotients


def test_quotient_homs_match_brute_force_trefoil():
    pres, meridian = trefoil_group()
    weights = infinite_cyclic_weights(pres, meridian)
    for n, m in [(2, 3), (4, 5), (2, 1)]:
        target, homs = metabelian_quotient_homs(as_surgery(pres, meridian), n, m)
        brute = brute_metabelian_homs(pres, weights, target)
        assert sorted(homs) == sorted(brute)


def test_quotient_homs_match_brute_force_synthetic():
    pres = presentation_from_rows(ROWS_946)
    weights = infinite_cyclic_weights(pres, 0)
    target, homs = metabelian_quotient_homs(as_surgery(pres), 2, 3)
    assert len(homs) == 27
    brute = brute_metabelian_homs(pres, weights, target)
    assert sorted(homs) == sorted(brute)
    target5, homs5 = metabelian_quotient_homs(as_surgery(pres), 4, 5)
    assert len(homs5) == 25
    assert sorted(homs5) == sorted(brute_metabelian_homs(pres, weights, target5))


# --------------------------------------------------------- finite covers


def test_trefoil_cyclic_cover_homology():
    pres, _ = trefoil_group()
    q2 = FiniteMetabelian(2, 1)
    images2 = tuple((1, 0) for _ in range(pres.num_generators))
    assert finite_cover_homology(pres, images2, q2) == (1, [3])
    q3 = FiniteMetabelian(3, 1)
    images3 = tuple((1, 0) for _ in range(pres.num_generators))
    assert finite_cover_homology(pres, images3, q3) == (1, [2, 2])


def test_fig8_double_cover_homology():
    lg = wirtinger(Diagram(FIG8))
    q = FiniteMetabelian(2, 1)
    images = tuple((1, 0) for _ in range(lg.group.num_generators))
    assert finite_cover_homology(lg.group, images, q) == (1, [5])


def test_unknot_cover_homology():
    pres = GroupPresentation(("x",), ())
    q = FiniteMetabelian(2, 1)
    assert finite_cover_homology(pres, ((1, 0),), q) == (1, [])


def test_metabelian_cover_homology_is_class_invariant():
    # scaling the translation vector by a unit re-parametrises the same
    # kernel, so the cover homology cannot change
    pres = presentation_from_rows(ROWS_946)
    target, homs = metabelian_quotient_homs(as_surgery(pres), 2, 3)
    surj = brute_surjective(homs, target)
    hom = surj[0]
    scaled = tuple((k, 2 * q % 3) for k, q in hom)
    assert scaled in set(surj)
    assert (finite_cover_homology(pres, hom, target)
            == finite_cover_homology(pres, scaled, target))


# ------------------------------------------------- second derived series


def test_second_derived_unknot():
    plain = as_surgery(GroupPresentation(("x",), ()))
    assert second_derived_certificate(plain, Word.identity())
    assert not second_derived_certificate(plain, Word.gen(0))


def test_second_derived_trefoil():
    pres, meridian = trefoil_group()
    plain = as_surgery(pres, meridian)
    gens = [i for i in range(pres.num_generators)]
    u = commutator(Word.gen(gens[0]), Word.gen(gens[1]))
    # a commutator generates the infinite cyclic cover's homology: not
    # in the second derived subgroup
    assert not second_derived_certificate(plain, u)
    # ... and some finite metabelian quotient must see that
    target, homs = metabelian_quotient_homs(plain, 2, 3)
    surj = brute_surjective(homs, target)
    seen = [evaluate_word(u, hom, target) for hom in surj]
    assert any(v != target.identity() for v in seen)
    # a commutator of two commutator-subgroup elements dies metabelianly
    v = Word.gen(gens[0]) * u * Word.gen(gens[0], -1)
    w = commutator(u, v)
    assert second_derived_certificate(plain, w)
    for hom in surj:
        assert evaluate_word(w, hom, target) == target.identity()


def test_second_derived_conjugation_invariance():
    plain = as_surgery(*trefoil_group())
    u = commutator(Word.gen(0), Word.gen(1))
    v = Word.gen(1) * u * Word.gen(1, -1)
    w = commutator(u, v)
    for c in [Word.gen(0), Word.gen(1, -1) * Word.gen(0)]:
        assert second_derived_certificate(plain, c * w * c.inverse())


def _full_jacobian_membership(plain, word):
    """The reference test: winding zero and the Fox vector in the row span
    of the full Jacobian, every column kept."""
    weights = plain.weights
    if sum(e * weights[g] for g, e in word.letters) != 0:
        return False
    n = plain.group.num_generators
    vec = tuple(
        LaurentPoly(e) for e in fox_row(word, n, weights, groups._Degree)
    )
    return module_contains(plain.jacobian, n, vec)


def _random_word(rng, n, length):
    return Word(tuple(
        (rng.randrange(n), rng.choice((1, -1))) for _ in range(length)
    ))


def _weight_zero(rng, plain, length):
    """A random nonempty word closed up by meridian powers to winding zero."""
    while True:
        w = _random_word(rng, plain.group.num_generators, length)
        winding = sum(e * plain.weights[g] for g, e in w.letters)
        if winding:
            w = w * Word.gen(plain.meridian, -winding)
        if w:
            return w


def _sample_words(rng, plain):
    n = plain.group.num_generators
    words = [_random_word(rng, n, rng.randint(1, 6)) for _ in range(6)]
    words += [_weight_zero(rng, plain, rng.randint(1, 5)) for _ in range(6)]
    words += [
        commutator(_weight_zero(rng, plain, 3), _weight_zero(rng, plain, 3))
        for _ in range(4)
    ]
    doubles = []
    while len(doubles) < 3:
        a, b, c, d = (_weight_zero(rng, plain, 2) for _ in range(4))
        w = commutator(commutator(a, b), commutator(c, d))
        if w:
            doubles.append(w)
    for w in doubles:
        x = _random_word(rng, n, 2)
        words += [w, x * w * x.inverse()]
    return words


@pytest.mark.parametrize("knot", ["trefoil", "figure-8", "9_46"])
def test_alexander_module_test_matches_full_jacobian(knot):
    if knot == "9_46":
        _, plain, _ = bundled_pattern("946")
        words = [plain.curve_words[c] for c in
                 ("eta1", "eta2", "gamma1", "gamma2", "meridian")]
        want = [True, True, False, False, False]
        assert [_full_jacobian_membership(plain, w) for w in words] == want
    else:
        pd = TREFOIL if knot == "trefoil" else FIG8
        plain, words = zero_surgery(Diagram(pd), 0), []
    rng = random.Random(f"second derived:{knot}")
    words += _sample_words(rng, plain)
    got = [second_derived_certificate(plain, w) for w in words]
    assert got == [_full_jacobian_membership(plain, w) for w in words]
    # the double commutators and their conjugates are true cases
    assert all(got[-6:])
    assert not all(got)


def test_forged_fox_vector_breaks_the_fundamental_formula(monkeypatch):
    _, plain, _ = bundled_pattern("946")
    word = plain.curve_words["eta1"]
    assert second_derived_certificate(plain, word)
    inner = groups.fox_row
    other = next(i for i in range(plain.group.num_generators)
                 if i != plain.meridian)

    def forged(word, n, images, target):
        row = list(inner(word, n, images, target))
        row[other] = {**row[other], 0: row[other].get(0, 0) + 1}
        return tuple(row)

    monkeypatch.setattr(groups, "fox_row", forged)
    with pytest.raises(VerificationFailed, match="fundamental formula"):
        second_derived_certificate(plain, word)


# --------------------------------------------------------------- fox_row


def test_fox_row_values():
    # the defining BS relator a c a^-1 c^-2, pushed by the identity map
    r = (Word.gen(0) * Word.gen(1) * Word.gen(0, -1)
         * Word.gen(1, -1) * Word.gen(1, -1))
    from dslice.bs12 import BS12_A, BS12_C

    da, dc = fox_row(r, 2, (BS12_A, BS12_C), Bs12Group)
    e = Bs12Group.identity()
    assert da == {e: 1, BS12(0, DyadicRational(2)): -1}
    assert dc == {
        BS12_A: 1,
        BS12(0, DyadicRational(1)): -1,
        e: -1,
    }
