import random
from math import gcd

import pytest

from dslice.bs12 import FiniteMetabelian, check_relators, evaluate_word
from dslice.certify import _family_record
from dslice.corpus import bundled_document
from dslice.diagrams import (
    Diagram,
    SurgeryPresentation,
    attach_curve_words,
    infect,
    wirtinger,
    zero_surgery,
)
from dslice.errors import BudgetExceeded, VerificationFailed
from dslice.documents import diagram_from_document
from dslice.groups import (
    coset_action,
    finite_cover_homology,
    metabelian_quotient_homs,
    summand_homs,
)
from dslice.modules import infinite_cyclic_weights
from dslice import groups, twisted
from dslice.snf import abelian_invariants
from dslice.twisted import (
    MetabelianHom,
    TransportRecord,
    _regular_blocks,
    crowell_check,
    crowell_compares,
    summand_specialization_check,
    transport_record,
    twisted_invariants,
)
from dslice.words import GroupPresentation, Word

from synthpres import (
    as_surgery,
    brute_orbit_count,
    brute_scaled_orbit_count,
    brute_subgroup,
    brute_surjective,
    presentation_from_rows,
)

TREFOIL = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
FIG8 = [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)]
KINK = [(1, 2, 2, 1)]

# trefoil with a small meridian circle around its lowest arc
TREFOIL_MERID = [
    (3, 6, 4, 7), (5, 8, 6, 1), (7, 4, 8, 5), (1, 10, 2, 9), (10, 3, 9, 2),
]
TREFOIL_MERID_SIGNS = [-1, -1, -1, 1, 1]

# kinked unknot (edges 1-4) with a second circle (edges 5-6) that passes
# under it twice with opposite signs: linking number zero, and the circle
# slides off, so infections along it are no-ops
UNLINK_W = [(5, 2, 6, 1), (6, 2, 5, 3), (3, 1, 4, 4)]
UNLINK_W_SIGNS = [1, -1, 1]

ROWS_946 = [
    [{1: 3, 0: -3}, {1: 2, 0: -1}],
    [{1: 1, 0: -2}, {}],
]


def all_ones_images(pres, n):
    weights = infinite_cyclic_weights_of(pres)
    return tuple((w % n, 0) for w in weights)


def infinite_cyclic_weights_of(pres):
    # meridian index 0 works for every presentation used here
    return infinite_cyclic_weights(pres, 0)


# ------------------------------------------------------- two-path oracle


def test_twisted_invariants_trefoil_cyclic():
    lg = wirtinger(Diagram(TREFOIL))
    pres = lg.group
    q2 = FiniteMetabelian(2, 1)
    images = tuple((1, 0) for _ in pres.names)
    assert twisted_invariants(pres, images, q2) == (2, [3])
    q3 = FiniteMetabelian(3, 1)
    assert twisted_invariants(pres, images, q3) == (3, [2, 2])


def test_twisted_invariants_fig8_double():
    lg = wirtinger(Diagram(FIG8))
    images = tuple((1, 0) for _ in lg.group.names)
    assert twisted_invariants(lg.group, images, FiniteMetabelian(2, 1)) == (2, [5])


def test_crowell_check_cyclic_covers():
    for code in (TREFOIL, FIG8):
        lg = wirtinger(Diagram(code))
        for n in (2, 3):
            q = FiniteMetabelian(n, 1)
            images = tuple((1, 0) for _ in lg.group.names)
            assert crowell_check(lg.group, images, q)


def test_crowell_check_metabelian_covers():
    lg = wirtinger(Diagram(TREFOIL))
    target, homs = metabelian_quotient_homs(
        as_surgery(lg.group, lg.meridians[0]), 2, 3
    )
    homs = brute_surjective(homs, target)
    assert homs
    assert crowell_check(lg.group, homs[0], target)


def test_crowell_check_synthetic_module_presentation():
    pres = presentation_from_rows(ROWS_946)
    target, homs = metabelian_quotient_homs(as_surgery(pres), 2, 3)
    for hom in homs[:5]:
        assert crowell_check(pres, hom, target)


def test_crowell_check_non_surjective_images():
    # trivial images: the "cover" is |Q| disjoint copies of the base
    lg = wirtinger(Diagram(TREFOIL))
    q = FiniteMetabelian(2, 1)
    images = tuple((0, 0) for _ in lg.group.names)
    assert crowell_check(lg.group, images, q)


def test_crowell_compare_returns_both_paths():
    lg = wirtinger(Diagram(TREFOIL))
    q = FiniteMetabelian(2, 1)
    images = all_ones_images(lg.group, 2)
    cover, twisted, agree = next(crowell_compares(lg.group, [images], q))
    assert cover == (1, [3])
    assert twisted == twisted_invariants(lg.group, images, q) == (2, [3])
    assert agree is crowell_check(lg.group, images, q) is True


def test_regular_blocks_cap_is_checked_before_building():
    # 2^20 = 1 mod 2^20 - 1: a group of order about 2 * 10^7, far too large
    # to enumerate, so only the up-front check can make this return quickly
    big = FiniteMetabelian(20, 2**20 - 1)
    with pytest.raises(BudgetExceeded):
        _regular_blocks([({(0, 0): 1},)], big, 1, [(0, 0)])
    lg = wirtinger(Diagram(TREFOIL))
    with pytest.raises(BudgetExceeded):
        twisted_invariants(lg.group, tuple((1, 0) for _ in lg.group.names), big)


def test_regular_cap_counts_target_elements(monkeypatch):
    # the cap counts group elements, as coset_action's does, not
    # order x generators: a target of order 6 with three generators (18
    # columns) is inside a cap of 6, and the refusal at 5 comes before
    # the cover path runs
    lg = wirtinger(Diagram(TREFOIL))
    q, homs = metabelian_quotient_homs(as_surgery(lg.group), 2, 3)
    assert q.order() == 6 and lg.group.num_generators == 3 and homs
    monkeypatch.setattr(groups, "_REGULAR_CAP", 6)
    assert next(crowell_compares(lg.group, [homs[0]], q))[2]
    monkeypatch.setattr(groups, "_REGULAR_CAP", 5)

    def cover_must_not_run(*args):
        raise AssertionError("cover path ran past the twisted budget")

    monkeypatch.setattr(twisted, "coset_action", cover_must_not_run)
    with pytest.raises(BudgetExceeded):
        next(crowell_compares(lg.group, [homs[0]], q))


def test_one_cap_binding_moves_every_twisted_check(monkeypatch):
    # twisted.py reads the cap through groups, so patching groups alone
    # moves both of its checks, as it moves metabelian_quotient_homs
    lg = wirtinger(Diagram(TREFOIL))
    q, homs = metabelian_quotient_homs(as_surgery(lg.group), 2, 3)
    rows = twisted.twisted_rows(lg.group, homs[0], q)
    assert _regular_blocks(rows, q, 3, q.elements())
    monkeypatch.setattr(groups, "_REGULAR_CAP", 5)
    with pytest.raises(BudgetExceeded):
        _regular_blocks(rows, q, 3, q.elements())
    with pytest.raises(BudgetExceeded):
        next(crowell_compares(lg.group, [homs[0]], q))
    with pytest.raises(BudgetExceeded):
        metabelian_quotient_homs(as_surgery(lg.group), 2, 3)


def _zero_surgery(name):
    diagram, _ = diagram_from_document(bundled_document(name))
    return zero_surgery(diagram, 0)


def test_quotient_maps_read_the_kept_generators():
    # each map is read on the kept generators with no check per map: the
    # read map meets every small relator, and the Tietze words carry it
    # back to the enumerated map
    plain = _zero_surgery("946")
    target, homs = metabelian_quotient_homs(plain, 3, 7)
    small, words, kept = plain.simplified
    pres, _, maps = twisted._quotient_maps(plain, 3, 7)
    assert pres is small and len(kept) < len(homs[0])
    assert len(maps) == len(homs)
    for images, full in zip(maps, homs):
        assert images == tuple(full[i] for i in kept)
        check_relators(small, images, target)
        assert tuple(evaluate_word(w, images, target) for w in words) == full


@pytest.mark.parametrize("name,n,m", [("trefoil", 4, 15), ("946", 2, 3)])
def test_first_cover_check_is_the_first_of_cover_compares(name, n, m):
    plain = _zero_surgery(name)
    results = list(twisted.cover_compares(plain, n, m))
    assert len(results) > 1 and all(agree for _, _, agree in results)
    assert twisted.first_cover_check(plain, n, m) == (len(results), True)


def _count_snf(monkeypatch):
    calls = []
    inner = twisted.abelian_invariants

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(twisted, "abelian_invariants", counting)
    return calls


@pytest.mark.parametrize("name", ["trefoil", "figure8", "946", "rows946"])
@pytest.mark.parametrize("n,m", [(2, 3), (3, 7)])
def test_crowell_compares_equals_the_per_map_paths(name, n, m, monkeypatch):
    # rows946 has generators of weights 1, 0 and 0, where conjugating
    # every image by g differs from multiplying it by g; in a knot
    # diagram's presentation every generator has weight 1
    if name == "rows946":
        plain = as_surgery(presentation_from_rows(ROWS_946))
    else:
        plain = _zero_surgery(name)
    pres = plain.group
    target, homs = metabelian_quotient_homs(plain, n, m)
    expected = []
    for h in homs:
        cover = finite_cover_homology(pres, h, target)
        tw = twisted_invariants(pres, h, target)
        s = len(brute_subgroup(h, target))
        d = target.order() // s
        agree = (tw[0], sorted(tw[1])) == (
            d * (cover[0] + s - 1), sorted(cover[1] * d)
        )
        expected.append((cover, tw, agree))
    actions = len({coset_action(pres, h, target) for h in homs})
    orbits = brute_scaled_orbit_count(homs, target)
    built = _count_builders(monkeypatch)
    calls = _count_snf(monkeypatch)
    assert list(crowell_compares(pres, homs, target)) == expected
    assert all(agree for _, _, agree in expected)
    # only each orbit's representative, under conjugation and unit
    # scaling, builds its action, its rows and its twisted matrix, and
    # reduces one cover and one twisted matrix
    assert built == {
        "coset_action": orbits, "twisted_rows": orbits,
        "_regular_blocks": orbits,
    }
    assert len(calls) == 2 * orbits
    if (name, n, m) == ("946", 3, 7):
        assert (actions, orbits, brute_orbit_count(homs, target)) == (2, 2, 3)


def _units(m):
    return [u for u in range(1, m) if gcd(u, m) == 1]


def _image_elements(images, target):
    return sorted(brute_subgroup(images, target))


@pytest.mark.parametrize("name,n,m", [
    ("946", 2, 3), ("946", 3, 7), ("trefoil", 4, 15), ("figure8", 3, 7),
])
def test_whole_target_invariants_are_copies_of_the_image_subgroups(name, n, m):
    # the whole-target matrix is, up to a permutation of rows and columns,
    # one copy of the image subgroup's matrix per coset, so its invariants
    # are each of the subgroup's repeated d times
    pres, target, maps = twisted._quotient_maps(_zero_surgery(name), n, m)
    ng = pres.num_generators
    indices = set()
    for images in maps:
        sub = _image_elements(images, target)
        d = target.order() // len(sub)
        rows = twisted.twisted_rows(pres, images, target)
        free, torsion = abelian_invariants(*_regular_blocks(rows, target, ng, sub))
        assert twisted_invariants(pres, images, target) == (
            d * free, sorted(torsion * d)
        )
        indices.add(d)
    if name == "trefoil":
        assert {5, 15} <= indices


def test_fox_key_outside_the_image_subgroup_is_refused(monkeypatch):
    pres, target, maps = twisted._quotient_maps(_zero_surgery("trefoil"), 4, 15)
    images = next(
        im for im in maps if len(brute_subgroup(im, target)) < target.order()
    )
    sub = _image_elements(images, target)
    outside = next(x for x in target.elements() if x not in sub)

    def forge(rows):
        return [(row[0] | {outside: 1},) + row[1:] for row in rows]

    rows = twisted.twisted_rows(pres, images, target)
    ng = pres.num_generators
    assert _regular_blocks(rows, target, ng, sub)
    with pytest.raises(VerificationFailed):
        _regular_blocks(forge(rows), target, ng, sub)
    genuine = twisted.twisted_rows
    monkeypatch.setattr(
        twisted, "twisted_rows", lambda *args: forge(genuine(*args))
    )
    with pytest.raises(VerificationFailed):
        next(crowell_compares(pres, [images], target))


def _count_builders(monkeypatch):
    built = {"coset_action": 0, "twisted_rows": 0, "_regular_blocks": 0}

    def counting(fname):
        inner = getattr(twisted, fname)

        def wrapper(*args):
            built[fname] += 1
            return inner(*args)
        return wrapper

    for fname in built:
        monkeypatch.setattr(twisted, fname, counting(fname))
    return built


def _automorphism(target, g, u):
    """x -> s_u(g*x*g^-1), with s_u the scaling (k, q) -> (k, u*q)."""
    gi = target.inv(g)
    return lambda x: target.scale(target.mul(target.mul(g, x), gi), u)


def _tree_elements(action, images, target):
    elements = [target.identity()]
    for p, i in action[1]:
        elements.append(target.mul(elements[p], images[i]))
    return elements


@pytest.mark.parametrize("name,n,m", [
    ("946", 3, 7), ("trefoil", 4, 15), ("figure8", 4, 5),
])
def test_automorphic_maps_build_the_same_action_and_matrix(name, n, m):
    # the lemma behind crowell_compares' reuse: for an automorphism alpha
    # of the target, alpha(h) has h's coset action, h's group-ring rows
    # with every key moved by alpha, and so h's regular-block matrix over
    # its image elements; checked for random conjugations, unit scalings
    # and composites of the two
    pres, target, maps = twisted._quotient_maps(_zero_surgery(name), n, m)
    ng = pres.num_generators
    rng = random.Random(f"{name}-{n}-{m}")
    whole = target.elements()
    identity = target.identity()
    kinds = set()
    for images in maps:
        action = coset_action(pres, images, target)
        rows = twisted.twisted_rows(pres, images, target)
        mat = _regular_blocks(rows, target, ng, _tree_elements(action, images, target))
        for g, u in [
            (rng.choice(whole), 1),
            (identity, rng.choice(_units(m))),
            (rng.choice(whole), rng.choice(_units(m))),
        ]:
            alpha = _automorphism(target, g, u)
            moved = tuple(alpha(x) for x in images)
            kinds.add((moved == images, g == identity, u == 1))
            moved_action = coset_action(pres, moved, target)
            assert moved_action == action
            moved_rows = twisted.twisted_rows(pres, moved, target)
            assert moved_rows == [
                tuple({alpha(k): c for k, c in e.items()} for e in row)
                for row in rows
            ]
            elements = _tree_elements(moved_action, moved, target)
            assert _regular_blocks(moved_rows, target, ng, elements) == mat
    # every kind of automorphism moved some map
    assert {(False, True, False), (False, False, True), (False, False, False)} <= kinds


# ----------------------------------------------- summand specialization


def test_summand_specialization():
    plain = as_surgery(presentation_from_rows(ROWS_946))
    plus, minus = summand_homs(plain)
    assert summand_specialization_check(plain, plus)
    assert summand_specialization_check(plain, minus)
    # lying about the meridian exponent flips the expected mirror
    doctored = MetabelianHom(plus.images, -1, plus.factor, plus.surjective)
    assert not summand_specialization_check(plain, doctored)


# ------------------------------------------------------------ infection


def test_collapse_noop_infection():
    d = Diagram(UNLINK_W, signs=UNLINK_W_SIGNS)
    inf = infect(d, 0, {1: Diagram(TREFOIL)})
    assert abelian_invariants(
        inf.group.abelianization_matrix(), inf.group.num_generators
    ) == (1, [])
    images_mod = tuple(
        (w % 2, 0) for w in infinite_cyclic_weights(inf.group, inf.meridian)
    )
    assert crowell_check(inf.group, images_mod, FiniteMetabelian(2, 1))


def test_collapse_meridian_infection():
    d = Diagram(TREFOIL_MERID, signs=TREFOIL_MERID_SIGNS)
    inf = infect(d, 0, {1: Diagram(FIG8)})
    images_mod = tuple(
        (w % 2, 0) for w in infinite_cyclic_weights(inf.group, inf.meridian)
    )
    assert crowell_check(inf.group, images_mod, FiniteMetabelian(2, 1))


# ------------------------------------------------------------ transport


def test_transport_record_winding_zero_second_derived():
    d = Diagram(UNLINK_W, signs=UNLINK_W_SIGNS)
    # the circle passes under edge 2 twice, with opposite signs
    plain = attach_curve_words(zero_surgery(d, 0), {"w": [(2, 1), (2, -1)]})
    assert plain.curve_linking["w"] == 0
    assert plain.curve_words["w"] == Word.identity()
    rec = transport_record(plain, "w", None)
    assert rec.winding == 0 and rec.second_derived
    assert rec.valid
    # with companions attached the verdict only improves
    slot = {"curve": "w", "companion": Diagram(TREFOIL)}
    rec2 = _family_record(plain, slot, "trefoil", {})
    assert rec2.valid and rec2.companion_alexander_trivial is False


def test_transport_record_winding_one_fails():
    d = Diagram(TREFOIL_MERID, signs=TREFOIL_MERID_SIGNS)
    # the meridian circle passes under edge 3 once, positively
    plain = attach_curve_words(zero_surgery(d, 0), {"m": [(3, 1)]})
    assert plain.curve_linking["m"] == 1
    rec = transport_record(plain, "m", None)
    assert rec.winding == 1
    assert not rec.valid


def test_transport_record_trivial_companion_branch():
    fake = SurgeryPresentation(
        group=GroupPresentation(("x",), ()),
        meridian=0,
        longitude=Word.identity(),
        curve_words={"c": Word.gen(0)},
        curve_linking={"c": 0},
    )
    # the curve survives in homology, so only a trivial companion helps
    rec_plain = transport_record(fake, "c", None)
    assert not rec_plain.valid and not rec_plain.second_derived
    orders = {}
    slot = {"curve": "c", "companion": Diagram(KINK)}
    rec_kink = _family_record(fake, slot, "kink", orders)
    assert rec_kink.companion_alexander_trivial and rec_kink.valid
    slot = {"curve": "c", "companion": Diagram(TREFOIL)}
    rec_tref = _family_record(fake, slot, "trefoil", orders)
    assert not rec_tref.valid
    assert orders == {"kink": True, "trefoil": False}


def test_transport_record_is_frozen_data():
    rec = TransportRecord("c", 0, True, None)
    assert rec.valid
    rec2 = TransportRecord("c", 2, True, True)
    assert not rec2.valid
