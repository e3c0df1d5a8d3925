"""Diagram parsing, sign inference, arcs, presentations.

The trefoil-with-meridian fixture is fully hand-checked: restricting it
to the knot must reproduce the plain trefoil code, and the meridian's
word must come out as one meridian generator.
"""

from dataclasses import FrozenInstanceError, replace

import pytest

from dslice.diagrams import (
    Diagram,
    SurgeryPresentation,
    attach_curve_words,
    canonical_code,
    diagram_hash,
    infect,
    wirtinger,
    zero_surgery,
)
from dslice.errors import InvalidDiagram, MissingSigns, NotAKnot
from dslice.snf import abelian_invariants
from dslice.words import GroupPresentation, Word

TREFOIL = [(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)]
FIG8 = [(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)]
HOPF = [(1, 3, 2, 4), (3, 1, 4, 2)]
KINK = [(1, 2, 2, 1)]
# trefoil with a meridian loop around the edge entering crossing 0
TREFOIL_MERID = [
    (3, 6, 4, 7),
    (5, 8, 6, 1),
    (7, 4, 8, 5),
    (1, 10, 2, 9),
    (10, 3, 9, 2),
]


def test_trefoil_basic():
    d = Diagram(TREFOIL)
    assert d.num_components == 1
    assert d.signs == (-1, -1, -1)
    assert d.self_writhe(0) == -3
    assert d.arcs() == ((1, 6), (2, 3), (4, 5))


def test_fig8_basic():
    d = Diagram(FIG8)
    assert d.num_components == 1
    assert d.self_writhe(0) == 0
    assert sorted(d.signs) == [-1, -1, 1, 1]
    assert len(d.arcs()) == 4


def test_hopf_basic():
    d = Diagram(HOPF)
    assert d.components == ((1, 2), (3, 4))
    assert d.signs == (1, 1)
    assert d.linking_number(0, 1) == 1


def test_kink_unknot():
    d = Diagram(KINK)
    assert d.num_components == 1
    assert d.signs == (-1,)
    assert d.self_writhe(0) == -1
    s = zero_surgery(d, 0)
    assert len(s.group.names) == 1
    assert s.group.relators == ()
    assert not s.longitude


def test_bad_inputs():
    with pytest.raises(InvalidDiagram):
        Diagram([(1, 2, 3, 4)])  # edges used once
    with pytest.raises(InvalidDiagram):
        Diagram([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 4)])
    with pytest.raises(InvalidDiagram):
        Diagram(TREFOIL, signs=(1, 1))
    with pytest.raises(InvalidDiagram):
        Diagram(TREFOIL, signs=(1, 1, 1))  # geometrically impossible here
    with pytest.raises(NotAKnot):
        canonical_code(Diagram(HOPF))


AMBIG = [(3, 4, 4, 1), (1, 6, 2, 5), (2, 5, 3, 6)]


def test_ambiguous_two_edge_component():
    with pytest.raises(MissingSigns):
        Diagram(AMBIG)
    d = Diagram(AMBIG, signs=[-1, 1, 1])
    assert d.components == ((1, 2, 3, 4), (5, 6))
    d2 = Diagram(AMBIG, signs=[-1, -1, -1])
    assert d2.components == d.components
    with pytest.raises(InvalidDiagram):
        Diagram(AMBIG, signs=[-1, 1, -1])


def test_wirtinger_trefoil():
    lg = wirtinger(Diagram(TREFOIL))
    assert len(lg.group.names) == 3
    assert len(lg.group.relators) == 3
    assert lg.meridians == (0,)
    # knot complement abelianizes to Z
    assert abelian_invariants(lg.group.abelianization_matrix(), 3) == (1, [])
    lam = lg.longitudes[0]
    assert lam.letters == ((2, -1), (0, -1), (1, -1), (0, 1), (0, 1), (0, 1))
    assert lam.exponent_sum() == 0


def test_longitude_nullhomologous_in_complement():
    for code in (TREFOIL, FIG8):
        lg = wirtinger(Diagram(code))
        # all generators map to 1 in H_1, so the zero-framed longitude
        # must have total exponent zero
        assert lg.longitudes[0].exponent_sum() == 0


def test_trefoil_merid_fixture():
    d = Diagram(TREFOIL_MERID)
    assert d.signs == (-1, -1, -1, 1, 1)
    assert d.components == (tuple(range(1, 9)), (9, 10))
    assert d.linking_number(0, 1) == 1
    sub, edge_map = d.restricted([0])
    assert sub.crossings == tuple(TREFOIL)
    assert sub.signs == (-1, -1, -1)
    assert edge_map[1] == edge_map[2] == edge_map[3] == 1
    assert edge_map[8] == 6


def test_zero_surgery_with_curve():
    d = Diagram(TREFOIL_MERID)
    # the meridian loop passes under edge 3 once, positively
    s = attach_curve_words(zero_surgery(d, 0), {"m": [(3, 1)]})
    assert s.curve_words["m"] == Word(((0, 1),))
    assert s.curve_linking["m"] == 1
    assert s.meridian == 0
    # 0-surgery on a knot has H_1 = Z
    m = s.group.abelianization_matrix()
    assert abelian_invariants(m, len(s.group.names)) == (1, [])


def test_zero_surgery_homology_fig8():
    s = zero_surgery(Diagram(FIG8), 0)
    m = s.group.abelianization_matrix()
    assert abelian_invariants(m, len(s.group.names)) == (1, [])


def test_surgery_presentation_data_belongs_to_one_object():
    # <x0, x1 | x0 x1>: H_1 = Z, and the meridian fixes the weights' sign
    based = SurgeryPresentation(
        group=GroupPresentation(("x0", "x1"), (Word.gen(0) * Word.gen(1),)),
        meridian=0,
        longitude=Word.identity(),
        curve_words={},
    )
    assert based.weights == (1, -1)
    moved = replace(based, meridian=1)
    assert moved.weights == (-1, 1)
    assert based.weights == (1, -1)
    with pytest.raises(FrozenInstanceError):
        based.meridian = 1


def test_canonical_code_relabelling_invariance():
    d = Diagram(TREFOIL)
    # shift every edge by 2 (mod 6)
    shifted = [tuple((e - 1 + 2) % 6 + 1 for e in cr) for cr in TREFOIL]
    d2 = Diagram(shifted)
    assert canonical_code(d) == canonical_code(d2)
    assert diagram_hash(d) == diagram_hash(d2)
    assert diagram_hash(d) != diagram_hash(Diagram(FIG8))



def _kinked_knots(workloads):
    """Every bundled knot, its mirror, and both with seeded kinks."""
    from random import Random

    from dslice.corpus import bundled_document, bundled_names

    out = []
    for name in bundled_names():
        pd = bundled_document(name).get("pd")
        if pd is None:
            continue
        for seed, start in enumerate((pd, workloads.mirror_pd(pd))):
            rng, pd_k = Random(seed), start
            out.append(Diagram(start))
            for _ in range(6):
                d = Diagram(pd_k)
                edge = rng.randrange(1, len(d.edges) + 1)
                pd_k = workloads.kink_pd(pd_k, d.signs, edge, rng.random() < 0.5)
                out.append(Diagram(pd_k))
    return [d for d in out if d.num_components == 1]


def test_canonical_code_is_the_least_over_every_relabelling(workloads):
    # the code sorts only the relabellings that send some crossing's a to
    # 1; the least over all 2n of them must be the same
    knots = _kinked_knots(workloads)
    assert len(knots) == 56
    for d in knots:
        n = len(d.edges)
        every = min(
            tuple(sorted(
                tuple((e - 1 + shift) % n + 1 for e in cr) + (s,)
                for cr, s in zip(d.crossings, d.signs)
            ))
            for shift in range(n)
        )
        assert canonical_code(d) == every


def test_restricting_a_knot_keeps_its_diagram_and_edges(workloads):
    # with a split kink beside it, the knot goes through the general
    # relabelling; alone, restricted returns the knot itself
    for d in _kinked_knots(workloads):
        n = len(d.edges)
        split = Diagram(d.crossings + ((n + 1, n + 2, n + 2, n + 1),))
        sub, edge_map = split.restricted([0])
        assert sub == d and sub.components == d.components
        assert edge_map == {e: e for e in d.edges}
        same, identity = d.restricted([0])
        assert same == d and identity == edge_map
    with pytest.raises(InvalidDiagram, match="no component 1"):
        Diagram(TREFOIL).restricted([1])

def test_infect_with_unknot_keeps_homology():
    d = Diagram(TREFOIL_MERID)
    s = infect(d, 0, {1: Diagram(KINK)})
    m = s.group.abelianization_matrix()
    assert abelian_invariants(m, len(s.group.names)) == (1, [])


def test_infect_with_trefoil_keeps_homology():
    d = Diagram(TREFOIL_MERID)
    s = infect(d, 0, {1: Diagram(TREFOIL)})
    m = s.group.abelianization_matrix()
    assert abelian_invariants(m, len(s.group.names)) == (1, [])
