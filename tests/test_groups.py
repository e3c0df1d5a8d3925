import itertools
import random
from math import gcd

import pytest

from dslice.bs12 import (
    BS12,
    Bs12Group,
    FiniteMetabelian,
    check_metabelian_relators,
    check_relators,
    evaluate_word,
)
from dslice.corpus import bundled_pattern
from dslice.diagrams import Diagram, wirtinger, zero_surgery
from dslice.errors import HypothesisNotMet, RelatorViolation, VerificationFailed
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
from dslice.laurent import ONE, T, ZERO, LaurentPoly
from dslice.modules import (
    LambdaModule,
    SplitReport,
    alexander_module,
    alexander_polynomial,
    fox_jacobian,
    infinite_cyclic_weights,
)
from dslice.words import GroupPresentation, Word, fox_row

from synthpres import (
    as_surgery,
    brute_metabelian_homs,
    brute_surjective,
    presentation_from_rows,
)
from test_modules import STEVEDORE

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
    small, images, _, _ = simplify_presentation(pres, keep={meridian})
    assert small.num_generators < pres.num_generators
    # the kept meridian is still a plain generator
    (pair,) = images[meridian].letters
    new_meridian = pair[0]
    assert pair[1] == 1
    assert (alexander_polynomial(small, new_meridian)
            == alexander_polynomial(pres, meridian))


def test_simplify_images_transport_homs():
    pres, meridian = trefoil_group()
    small, images, _, _ = simplify_presentation(pres, keep={meridian})
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
    small, images, _, _ = simplify_presentation(pres, keep={meridian})
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
    small, images, kept, record = simplify_presentation(pres)
    assert small.num_generators == 1
    assert small.relators == ()
    assert kept == (0,)
    assert images[1] == Word.gen(0) * Word.gen(0)
    assert record == ((1, 0, Word.gen(0) * Word.gen(0)),)
    groups.check_tietze(pres, (small, images, kept), record)


# the "kink07-" Reidemeister-I kink of 9_46 from test_cli.py
KINK07 = [
    [13, 1, 14, 20], [1, 13, 2, 12], [11, 3, 12, 2], [5, 15, 6, 14],
    [15, 5, 16, 4], [3, 17, 4, 16], [6, 19, 7, 20], [18, 9, 19, 10],
    [10, 17, 11, 18], [7, 8, 8, 9],
]


def test_simplify_reports_kept_generators_of_a_kink():
    plain = zero_surgery(Diagram(KINK07), 0)
    small, images, kept = plain.simplified
    assert (plain.group.num_generators, small.num_generators) == (10, 3)
    assert kept == (0, 5, 7)
    for j, i in enumerate(kept):
        assert images[i] == Word.gen(j)
    # an eliminated generator's image is also a single kept letter, so
    # reading kept off the one-letter images would name generator 4
    assert images[4] == images[5] == Word.gen(1)


def _tietze_case(diagram):
    plain = zero_surgery(diagram, 0)
    pres = plain.group
    small, words, kept, record = simplify_presentation(pres, keep={plain.meridian})
    return pres, (small, words, kept), record


def _tietze_cases():
    # 6_1's small relators 0 and 1 are inverse rotations of each other
    return [
        _tietze_case(Diagram(pd)) for pd in (KINK07, TREFOIL, FIG8, STEVEDORE)
    ] + [_tietze_case(bundled_pattern("946")[0])]


def test_stevedore_small_relators_repeat_up_to_rotation_and_inversion():
    # both repeated small relators are images of full relators, so the
    # coverage check credits every class an image matches
    _, (small, _, _), _ = _tietze_case(Diagram(STEVEDORE))
    r0, r1 = small.relators[:2]
    doubled = r0.inverse().letters * 2
    assert any(
        doubled[k:k + len(r1)] == r1.letters for k in range(len(r1))
    )


def test_check_tietze_accepts_the_simplifier_output():
    for pres, simplified, record in _tietze_cases():
        assert len(record) == pres.num_generators - len(simplified[2])
        groups.check_tietze(pres, simplified, record)


def test_check_tietze_forward_refuses_a_changed_or_dropped_small_relator():
    # the last small relator: 6_1 repeats its first, whose images a
    # changed or dropped copy leaves matched
    for pres, (small, words, kept), record in _tietze_cases():
        if not small.relators:
            continue
        changed = small.relators[:-1] + (small.relators[-1] * Word.gen(0),)
        for relators in (changed, small.relators[:-1]):
            forged = GroupPresentation(small.names, relators)
            with pytest.raises(VerificationFailed, match="maps to no small"):
                groups.check_tietze(pres, (forged, words, kept), record)


def test_check_tietze_coverage_refuses_an_extra_small_relator():
    pres, (small, words, kept), record = _tietze_case(bundled_pattern("946")[0])
    extra = commutator(Word.gen(1), Word.gen(2))
    forged = GroupPresentation(small.names, small.relators + (extra,))
    with pytest.raises(VerificationFailed, match="image of no relator"):
        groups.check_tietze(pres, (forged, words, kept), record)


def test_check_tietze_backward_refuses_a_forged_record():
    pres, simplified, record = _tietze_case(bundled_pattern("946")[0])
    small, words, kept = simplified
    (g, ri, wg), rest = record[0], record[1:]
    # a wrong solution, and a relator that does not hold the generator
    ri2 = record[1][1]
    for forged, match in (
        (((g, ri, wg * Word.gen(kept[0])),) + rest, "does not solve"),
        (((g, ri2, wg),) + rest, "holds generator"),
    ):
        with pytest.raises(VerificationFailed, match=match):
            groups.check_tietze(pres, simplified, forged)
    # an eliminated generator's Tietze word that is not its solution
    changed = list(words)
    changed[g] = changed[g] * Word.gen(0)
    with pytest.raises(VerificationFailed, match="misses its solution"):
        groups.check_tietze(pres, (small, tuple(changed), kept), record)


def test_check_tietze_refuses_a_changed_kept_word_or_a_lost_elimination():
    pres, simplified, record = _tietze_case(bundled_pattern("946")[0])
    small, words, kept = simplified
    changed = list(words)
    changed[kept[1]] = Word.gen(0)
    with pytest.raises(VerificationFailed, match="kept generator"):
        groups.check_tietze(pres, (small, tuple(changed), kept), record)
    with pytest.raises(VerificationFailed, match="partition"):
        groups.check_tietze(pres, simplified, record[1:])
    with pytest.raises(VerificationFailed, match="lacks"):
        groups.check_tietze(pres, simplified, ((record[0][0], 99, record[0][2]),) + record[1:])


def test_check_tietze_refuses_a_solution_moved_after_its_dependent():
    # solution i holds generator j, eliminated later; swapped, the check
    # replays j's solution before the one that introduces x_j
    pres, simplified, record = _tietze_case(bundled_pattern("946")[0])
    swaps = [
        (i, j)
        for i, (_, _, wi) in enumerate(record)
        for j in range(i + 1, len(record))
        if any(h == record[j][0] for h, _ in wi.letters)
    ]
    assert len(swaps) == 3
    for i, j in swaps:
        forged = list(record)
        forged[i], forged[j] = forged[j], forged[i]
        with pytest.raises(VerificationFailed, match="does not solve|holds generator"):
            groups.check_tietze(pres, simplified, tuple(forged))


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
    assert plus.images[0] == BS12(1, 0)
    assert minus.images[0] == BS12(-1, 0)
    # e1 is the first witness, e2 the difference of the two
    assert plus.images[1] == BS12(0, 1)
    assert plus.images[2] == BS12(0, -1)
    assert minus.images[1] == BS12(0, 0)
    assert minus.images[2] == BS12(0, 1)
    assert plus.surjective and minus.surjective
    # the maps respect every relator
    for r in pres.relators:
        assert plus(r).is_identity()
        assert minus(r).is_identity()


def _split_946_style():
    plain = as_surgery(presentation_from_rows(ROWS_946))
    assert plain.splitting.certified
    return plain


def test_summand_read_refuses_rows_with_two_free_columns():
    # t - 2 kills both rows' entries, so at t = 2 the rows vanish and
    # leave both columns free: no functional is singled out
    plain = _split_946_style()
    plain.__dict__["module"] = LambdaModule.make(
        [(T - 2 * ONE, ZERO), (ZERO, T * T - 2 * T)], 2
    )
    with pytest.raises(VerificationFailed, match="2 free columns"):
        summand_homs(plain)


def test_summand_read_refuses_a_v2_that_survives_at_t_2():
    # v2 = v1 = e1 is not killed by the functional at t = 2, which a
    # witness of the 2t - 1 summand must be
    plain = _split_946_style()
    e1 = plain.splitting.v1
    assert e1 == (ONE, ZERO)
    order = plain.splitting.order
    plain.__dict__["splitting"] = SplitReport("split", order, e1, e1)
    with pytest.raises(VerificationFailed, match="at t = 2 misreads"):
        summand_homs(plain)
    # the functional at t = 2 is (-3, 3): it kills e1 + e2, but reads
    # 3 e2 as 9, so the columns would translate by -1/3 and 1/3
    plain.__dict__["splitting"] = SplitReport(
        "split", order, (ZERO, 3 * ONE), (ONE, ONE)
    )
    with pytest.raises(VerificationFailed, match="not dyadic"):
        summand_homs(plain)


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


def _first_violation(pres, homs, target):
    """The first relator some map breaks, by per-map evaluation."""
    return next(
        r for r in pres.relators
        if any(evaluate_word(r, h, target) != target.identity() for h in homs)
    )


def _corrupted(rng, homs, m):
    """A copy of ``homs`` with some maps' translations redrawn."""
    out = []
    for h in homs:
        if rng.random() < 0.2:
            h = tuple((k, rng.randrange(m)) if rng.random() < 0.5 else (k, q)
                      for k, q in h)
        out.append(h)
    return out


def _synthetic_rows(seed):
    # entries c0 + c1 t with the identity matrix at t = 1, so H1 is Z
    rng = random.Random(seed)
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            c1 = rng.randint(-2, 2)
            row.append({0: int(i == j) - c1, 1: c1})
        out.append(row)
    return out


_ONE_PASS_CASES = {
    "946-3-7": ("946", 3, 7),
    "946-2-3": ("946", 2, 3),
    "trefoil-4-15": ("trefoil", 4, 15),
    "figure8-4-5": ("figure8", 4, 5),
    "synthetic-2-3": (1, 2, 3),
    "synthetic-4-5": (2, 4, 5),
    "synthetic-3-7": (3, 3, 7),
}


@pytest.mark.parametrize("case", sorted(_ONE_PASS_CASES))
def test_one_pass_check_agrees_with_per_map_checks(case):
    # random lists of maps, some translations corrupted: the one-pass
    # check raises exactly when some map breaks a relator, and names the
    # first relator any map breaks
    source, n, m = _ONE_PASS_CASES[case]
    if isinstance(source, str):
        plain = bundled_pattern(source)[1]
    else:
        plain = as_surgery(presentation_from_rows(_synthetic_rows(source)))
    pres = plain.group
    target, homs = metabelian_quotient_homs(plain, n, m)
    assert homs
    rng = random.Random(case)
    raised = 0
    for _ in range(40):
        sample = _corrupted(rng, rng.sample(homs, rng.randint(1, len(homs))), m)
        broken = 0
        for h in sample:
            try:
                check_relators(pres, h, target)
            except RelatorViolation:
                broken += 1
        if not broken:
            check_metabelian_relators(pres, sample, target)
            continue
        raised += 1
        with pytest.raises(RelatorViolation) as err:
            check_metabelian_relators(pres, sample, target)
        bad = _first_violation(pres, sample, target)
        assert str(err.value).startswith(f"relator {bad!r} maps to")
    assert 0 < raised < 40


# (2,9) breaks 2^n = 1 mod 9, so the composite modulus 9 comes with n = 6
_BASIS_CASES = {
    f"{source}-{n}-{m}": (source, n, m)
    for source in ("946", 4, 7)
    for n, m in ((2, 3), (3, 7), (4, 15), (6, 9))
}


def _span(basis, m):
    """Every Z/m combination of ``basis``, enumerated independently of
    ``metabelian_quotient_homs``."""
    ng = len(basis[0])
    return {
        tuple(sum(k * b[i] for k, b in zip(ks, basis)) % m for i in range(ng))
        for ks in itertools.product(range(m), repeat=len(basis))
    }


@pytest.mark.parametrize("case", sorted(_BASIS_CASES))
def test_quotient_maps_are_checked_on_their_kernel_generators(case, monkeypatch):
    # one kernel generator replaced: the enumeration refuses exactly when
    # some map of the corrupted span breaks a relator, so checking the
    # zero map and the generators checks every map; a check of the zero
    # map alone, or none, lets the broken spans through
    source, n, m = _BASIS_CASES[case]
    if isinstance(source, str):
        plain = bundled_pattern(source)[1]
    else:
        plain = as_surgery(presentation_from_rows(_synthetic_rows(source)))
    pres = plain.group
    target, homs = metabelian_quotient_homs(plain, n, m)
    basis = plain.kernel_mod(m)
    assert basis
    zero = (0,) * pres.num_generators
    assert tuple(q for _, q in homs[0]) == zero
    exps = [x for x, _ in homs[0]]
    rng = random.Random(case)
    outcomes = []
    for _ in range(12):
        j = rng.randrange(len(basis))
        if rng.random() < 0.5:
            # a random shift, which some relator usually refuses
            delta = [rng.randrange(m) for _ in zero]
        else:
            # a shift inside the kernel, which every relator accepts
            delta = [0] * len(zero)
            for b in basis:
                k = rng.randrange(m)
                delta = [x + k * y for x, y in zip(delta, b)]
        corrupted = list(basis)
        corrupted[j] = tuple((x + d) % m for x, d in zip(basis[j], delta))
        corrupted = tuple(corrupted)
        monkeypatch.setitem(plain._kernels, m, corrupted)
        span = sorted(_span(corrupted, m))
        broken = False
        for chi in span:
            try:
                check_relators(pres, tuple(zip(exps, chi)), target)
            except RelatorViolation:
                broken = True
                break
        outcomes.append(broken)
        if broken:
            with pytest.raises(RelatorViolation):
                metabelian_quotient_homs(plain, n, m)
            continue
        got = metabelian_quotient_homs(plain, n, m)[1]
        assert got == [tuple(zip(exps, chi)) for chi in span]
        assert tuple(q for _, q in got[0]) == zero
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("where", ("first", "middle", "last"))
def test_one_pass_check_catches_a_forged_map(where):
    plain = bundled_pattern("946")[1]
    target, homs = metabelian_quotient_homs(plain, 3, 7)
    # every translation but one shifted: a map of the right a-exponents
    # that some relator refuses
    forged = tuple((k, (q + (i > 0)) % 7) for i, (k, q) in enumerate(homs[5]))
    with pytest.raises(RelatorViolation):
        check_relators(plain.group, forged, target)
    at = {"first": 0, "middle": len(homs) // 2, "last": len(homs)}[where]
    sample = homs[:at] + [forged] + homs[at:]
    with pytest.raises(RelatorViolation, match=f"under map {at}$"):
        check_metabelian_relators(plain.group, sample, target)


def test_one_pass_check_refuses_differing_a_exponents():
    plain = bundled_pattern("946")[1]
    target, homs = metabelian_quotient_homs(plain, 3, 7)
    shifted = ((homs[-1][0][0] + 1, homs[-1][0][1]),) + homs[-1][1:]
    with pytest.raises(VerificationFailed, match="a-exponents"):
        check_metabelian_relators(plain.group, homs[:-1] + [shifted], target)
    with pytest.raises(VerificationFailed, match="a-exponents"):
        check_metabelian_relators(plain.group, homs + [homs[0][:-1]], target)


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
    return module_contains(fox_jacobian(plain.group, weights), n, vec)


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
    assert da == {e: 1, BS12(0, 2): -1}
    assert dc == {
        BS12_A: 1,
        BS12(0, 1): -1,
        e: -1,
    }


def test_summand_maps_build_at_most_one_fraction_per_image(workloads, monkeypatch):
    # words are evaluated and relators checked with ints; a Fraction is
    # built only for a translation that is not whole, once per image
    import dslice.bs12
    import dslice.laurent
    from fractions import Fraction

    from dslice.corpus import bundled_document
    from dslice.documents import diagram_from_document

    pd = workloads.mirror_pd(bundled_document("946")["pd"])
    plain = zero_surgery(diagram_from_document({"pd": pd})[0], 0)
    plain.splitting
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    for module in (dslice.bs12, groups, dslice.laurent):
        monkeypatch.setattr(module, "Fraction", counting)
    plus, minus = plain.summands
    images = plus.images + minus.images
    assert len(images) == 2 * plain.group.num_generators == 18
    assert len(made) <= len(images)
    assert any(type(x.q) is Fraction for x in images)


def _pinned_inputs(workloads):
    """Every bundled knot, the 9_46 mirror and seeded kinks of seeds 1-3,
    and 9_46 with 50 seeded kinks, as (tag, Diagram) pairs."""
    from random import Random

    from dslice.corpus import bundled_diagram, bundled_document, bundled_names
    from dslice.diagrams import diagram_hash
    from dslice.documents import diagram_from_document

    out = []
    for name in bundled_names():
        d = bundled_diagram(name)
        if d is not None and d.num_components == 1:
            out.append((name, d))
    base = bundled_document("946")
    for seed in (1, 2, 3):
        docs = workloads.unregistered_documents(
            seed, base, diagram_from_document, diagram_hash, set()
        )
        out += [(f"{seed} {tag}", diagram_from_document(doc)[0]) for tag, doc in docs]
    rng = Random(1)
    pd = base["pd"]
    for _ in range(50):
        d = Diagram(pd)
        edge = rng.randrange(1, len(d.edges) + 1)
        pd = workloads.kink_pd(pd, d.signs, edge, rng.random() < 0.5)
    out.append(("50 kinks", Diagram(pd)))
    return out


def test_tietze_output_and_diagram_hashes_are_pinned(workloads):
    # one digest over (small, words, kept, record) of every input's
    # zero-surgery, and one over their diagram hashes; both were recorded
    # before the elimination loop moved to letter tuples
    import hashlib
    import json

    from dslice.diagrams import diagram_hash

    inputs = _pinned_inputs(workloads)
    assert len(inputs) == 4 + 3 * 7 + 1
    tietze, hashes = [], []
    for tag, d in inputs:
        pres = zero_surgery(d, 0)
        small, words, kept, record = simplify_presentation(
            pres.group, keep={pres.meridian}
        )
        tietze.append([
            tag,
            list(small.names),
            [list(r.letters) for r in small.relators],
            [list(w.letters) for w in words],
            list(kept),
            [[g, ri, list(w.letters)] for g, ri, w in record],
        ])
        hashes.append([tag, diagram_hash(d)])
    digest = lambda x: hashlib.sha256(json.dumps(x).encode()).hexdigest()
    assert digest(tietze) == (
        "734c94a329b748ba46c8c1d6478e852d38670f0f31b425a1f5f60f15a9267018"
    )
    assert digest(hashes) == (
        "22c99c53926fb3cca234949e7388f810f28734274701bf8dfc4e167c713e86ae"
    )
