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
    s = zero_surgery(d, 0, curves={"m": 1})
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
