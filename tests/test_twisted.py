import hashlib

import pytest

from dslice.bs12 import FiniteMetabelian
from dslice.cache import ENV_CACHE_DIR
from dslice.cli import main
from dslice.corpus import bundled_document
from dslice.diagrams import Diagram, SurgeryPresentation, infect, wirtinger, zero_surgery
from dslice.errors import BudgetExceeded, TargetMismatch
from dslice.documents import diagram_from_document, dump_document
from dslice.groups import (
    coset_action,
    finite_cover_homology,
    metabelian_quotient_homs,
    summand_homs,
)
from dslice.modules import infinite_cyclic_weights
from dslice import twisted
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
        _regular_blocks([({(0, 0): 1},)], big, 1)
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
    monkeypatch.setattr(twisted, "_REGULAR_CAP", 6)
    assert next(crowell_compares(lg.group, [homs[0]], q))[2]
    monkeypatch.setattr(twisted, "_REGULAR_CAP", 5)

    def cover_must_not_run(*args):
        raise AssertionError("cover path ran past the twisted budget")

    monkeypatch.setattr(twisted, "coset_action", cover_must_not_run)
    with pytest.raises(BudgetExceeded):
        next(crowell_compares(lg.group, [homs[0]], q))


def _zero_surgery(name):
    diagram, _ = diagram_from_document(bundled_document(name))
    return zero_surgery(diagram, 0)


def _count_snf(monkeypatch):
    calls = []
    inner = twisted.abelian_invariants

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(twisted, "abelian_invariants", counting)
    return calls


@pytest.mark.parametrize("name", ["trefoil", "figure8", "946"])
@pytest.mark.parametrize("n,m", [(2, 3), (3, 7)])
def test_crowell_compares_equals_the_per_map_paths(name, n, m, monkeypatch):
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
    orbits = brute_orbit_count(homs, target)
    built = _count_builders(monkeypatch)
    calls = _count_snf(monkeypatch)
    assert list(crowell_compares(pres, homs, target)) == expected
    assert all(agree for _, _, agree in expected)
    # every map builds both inputs; every equality check passed: one cover
    # Smith form per distinct coset action, one twisted one per orbit
    assert built == {"coset_action": len(homs), "_regular_blocks": len(homs)}
    assert len(calls) == actions + orbits
    if (name, n, m) == ("946", 3, 7):
        assert (actions, orbits) == (2, 3)


def _count_builders(monkeypatch):
    built = {"coset_action": 0, "_regular_blocks": 0}

    def counting(fname):
        inner = getattr(twisted, fname)

        def wrapper(*args):
            built[fname] += 1
            return inner(*args)
        return wrapper

    for fname in built:
        monkeypatch.setattr(twisted, fname, counting(fname))
    return built


class _Unequal(tuple):
    """A tuple equal only to itself, so no cache lookup can match it."""

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


def _oracle_946_3_7(monkeypatch, tmp_path, capsys):
    from test_cli import ORACLE_DIGESTS

    monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "cache"))
    path = tmp_path / "946.json"
    dump_document(bundled_document("946"), str(path))
    code = main(["oracle", "--knot", str(path), "--n", "3", "--m", "7",
                 "--no-cache"])
    text = capsys.readouterr().out
    assert text.count("\nmap ") == 49
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (code, digest) == ORACLE_DIGESTS[("946", 3, 7, "text")]


def test_forged_twisted_comparison_recomputes_every_twisted_smith_form(
    monkeypatch, tmp_path, capsys
):
    # each matrix compares unequal to every other, so no map of an orbit
    # reuses its first map's twisted Smith form; the 2 coset actions still
    # share theirs
    genuine = twisted._regular_blocks
    monkeypatch.setattr(
        twisted, "_regular_blocks", lambda *args: _Unequal(genuine(*args))
    )
    calls = _count_snf(monkeypatch)
    _oracle_946_3_7(monkeypatch, tmp_path, capsys)
    assert len(calls) == 49 + 2


def test_forged_coset_actions_recompute_every_cover_smith_form(
    monkeypatch, tmp_path, capsys
):
    # each action compares unequal to every other, so every map gets its
    # own cover Smith form; the 3 orbits still share their twisted ones
    genuine = twisted.coset_action
    monkeypatch.setattr(
        twisted, "coset_action", lambda *args: _Unequal(genuine(*args))
    )
    calls = _count_snf(monkeypatch)
    _oracle_946_3_7(monkeypatch, tmp_path, capsys)
    assert len(calls) == 49 + 3


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
    plain = zero_surgery(d, 0, curves={"w": 1})
    assert plain.curve_linking["w"] == 0
    assert plain.curve_words["w"] == Word.identity()
    rec = transport_record(plain, "w")
    assert rec.winding == 0 and rec.second_derived
    assert rec.valid
    # with companions attached the verdict only improves
    rec2 = transport_record(plain, "w", companion=Diagram(TREFOIL))
    assert rec2.valid and rec2.companion_alexander_trivial is False


def test_transport_record_winding_one_fails():
    d = Diagram(TREFOIL_MERID, signs=TREFOIL_MERID_SIGNS)
    plain = zero_surgery(d, 0, curves={"m": 1})
    rec = transport_record(plain, "m")
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
    rec_plain = transport_record(fake, "c")
    assert not rec_plain.valid and not rec_plain.second_derived
    rec_kink = transport_record(fake, "c", companion=Diagram(KINK))
    assert rec_kink.companion_alexander_trivial and rec_kink.valid
    rec_tref = transport_record(fake, "c", companion=Diagram(TREFOIL))
    assert not rec_tref.valid


def test_transport_record_is_frozen_data():
    rec = TransportRecord("c", 0, True, None)
    assert rec.valid
    rec2 = TransportRecord("c", 2, True, True)
    assert not rec2.valid
