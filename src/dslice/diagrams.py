"""Planar diagram combinatorics for knots and links.

A diagram is a list of crossings ``(a, b, c, d)`` read counterclockwise
starting from the incoming under-strand ``a``; the under-strand exits at
``c`` and the over-strand occupies ``b`` and ``d``.  Edges are labelled
``1..2n`` and each component's labels form a consecutive block, ascending
in the direction of orientation.  A crossing is positive when the
over-strand runs ``d -> b`` and negative when it runs ``b -> d``.

Most diagrams determine their crossing signs: each edge starts exactly
once and ends exactly once, which usually leaves a single consistent
over-strand direction at every crossing.  When that bookkeeping is not
enough (some two-edge components) the document must carry an explicit
``signs`` list and we raise :class:`MissingSigns` otherwise.

Besides the combinatorial layer this module builds the group-theoretic
objects downstream code consumes: arc presentations of link complements,
zero-framed longitudes, words of marked curves, zero-surgery
presentations, and the glued presentation obtained by replacing a tubular
neighbourhood of a marked curve with a knot exterior.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import (
    InvalidDiagram,
    MalformedInput,
    MissingMark,
    MissingSigns,
    NotAKnot,
)
from .groups import check_tietze, simplify_presentation, summand_homs
from .laurent import LaurentPoly
from .modules import (
    _Degree,
    deleted_column_module,
    detect_splitting,
    fox_jacobian,
    infinite_cyclic_weights,
)
from .snf import nullspace_mod
from .words import GroupPresentation, Word, fox_row

__all__ = [
    "Diagram",
    "LinkGroup",
    "SurgeryPresentation",
    "wirtinger",
    "zero_surgery",
    "infect",
    "canonical_code",
    "diagram_hash",
]


def _find(parent: dict, x):
    """Root of ``x`` in the union-find forest ``parent``, halving paths."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: dict, x, y) -> None:
    """Merge the classes of ``x`` and ``y`` under the smaller root."""
    rx, ry = _find(parent, x), _find(parent, y)
    if rx != ry:
        parent[max(rx, ry)] = min(rx, ry)


class Diagram:
    """Validated planar diagram with inferred orientations and signs."""

    def __init__(self, crossings, signs=None):
        self.crossings = tuple(
            tuple(int(x) for x in cr) for cr in crossings
        )
        for cr in self.crossings:
            if len(cr) != 4 or any(e < 1 for e in cr):
                raise InvalidDiagram(f"bad crossing tuple {cr}")
        if not self.crossings:
            raise InvalidDiagram("a diagram needs at least one crossing")
        self._check_edge_census()
        if signs is not None:
            signs = tuple(int(s) for s in signs)
            if len(signs) != len(self.crossings) or any(
                s not in (1, -1) for s in signs
            ):
                raise InvalidDiagram("signs must be +-1, one per crossing")
        self.signs = self._resolve_orientations(signs)
        self.succ = self._successor_map()
        self.components = self._component_cycles()
        self.edge_component = {
            e: i for i, comp in enumerate(self.components) for e in comp
        }
        self._arcs = None

    # -- validation ----------------------------------------------------

    def _check_edge_census(self):
        seen: dict[int, int] = {}
        for cr in self.crossings:
            for e in cr:
                seen[e] = seen.get(e, 0) + 1
        self.edges = sorted(seen)
        n = len(self.crossings)
        if self.edges != list(range(1, 2 * n + 1)):
            raise InvalidDiagram(
                f"edge labels must be 1..{2 * n}, got {self.edges}"
            )
        bad = [e for e, k in seen.items() if k != 2]
        if bad:
            raise InvalidDiagram(f"edges not used exactly twice: {bad}")

    def _resolve_orientations(self, signs):
        """Fix the over-strand direction at every crossing.

        Interpretation ``+1``: over-strand runs d -> b, so d ends and b
        starts here.  ``-1``: b -> d.  An edge ends exactly once and
        starts exactly once in the whole diagram; under-strands pin down
        half of that census for free and we propagate until every
        crossing is forced.
        """
        ends = {}
        starts = {}

        def claim(table, edge, k, what):
            if edge in table:
                raise InvalidDiagram(
                    f"edge {edge} {what} at both crossing {table[edge]}"
                    f" and crossing {k}"
                )
            table[edge] = k

        for k, (a, _, c, _) in enumerate(self.crossings):
            claim(ends, a, k, "ends")
            claim(starts, c, k, "starts")

        def legal(k, s):
            _, b, _, d = self.crossings[k]
            inc, out = (d, b) if s == 1 else (b, d)
            # ascending labels: successor is e+1 or wraps downward
            if out != inc + 1 and out > inc:
                return False
            if inc in ends or out in starts:
                return False
            return True

        # a declared sign is its crossing's only candidate, so declared
        # signs resolve in one pass, in crossing order
        candidates = [(s,) for s in signs] if signs else [(1, -1)] * len(self.crossings)
        resolved = [0] * len(self.crossings)
        pending = set(range(len(self.crossings)))
        while pending:
            progress = False
            for k in sorted(pending):
                ok = [s for s in candidates[k] if legal(k, s)]
                if not ok:
                    raise InvalidDiagram(
                        f"declared sign {signs[k]:+d} impossible at crossing {k}"
                        if signs else
                        f"no consistent over-strand direction at crossing {k}"
                    )
                if len(ok) == 1:
                    s = ok[0]
                    resolved[k] = s
                    _, b, _, d = self.crossings[k]
                    inc, out = (d, b) if s == 1 else (b, d)
                    claim(ends, inc, k, "ends")
                    claim(starts, out, k, "starts")
                    pending.discard(k)
                    progress = True
            if not progress:
                raise MissingSigns(
                    "cannot infer crossing signs at crossings "
                    f"{sorted(pending)}; supply an explicit signs list"
                )
        return tuple(resolved)

    def _successor_map(self):
        succ = {}
        for k, (a, b, c, d) in enumerate(self.crossings):
            succ[a] = c
            if self.signs[k] == 1:
                succ[d] = b
            else:
                succ[b] = d
        if sorted(succ) != self.edges:
            raise InvalidDiagram("orientation bookkeeping left gaps")
        return succ

    def _component_cycles(self):
        comps = []
        remaining = set(self.edges)
        while remaining:
            start = min(remaining)
            cyc = [start]
            e = self.succ[start]
            while e != start:
                if e not in remaining or e in cyc:
                    raise InvalidDiagram("successor map is not a union of cycles")
                cyc.append(e)
                e = self.succ[e]
            remaining.difference_update(cyc)
            if cyc != list(range(start, start + len(cyc))):
                raise InvalidDiagram(
                    f"component through edge {start} is not labelled by a"
                    " consecutive ascending block"
                )
            comps.append(tuple(cyc))
        return tuple(comps)

    # -- elementary invariants ------------------------------------------

    @property
    def num_components(self):
        return len(self.components)

    def crossing_strands(self, k):
        """Component indices (under, over) at crossing ``k``."""
        a, b, _, _ = self.crossings[k]
        return self.edge_component[a], self.edge_component[b]

    def self_writhe(self, comp: int) -> int:
        w = 0
        for k in range(len(self.crossings)):
            u, o = self.crossing_strands(k)
            if u == comp and o == comp:
                w += self.signs[k]
        return w

    def linking_number(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("linking number needs two distinct components")
        tot = 0
        for k in range(len(self.crossings)):
            u, o = self.crossing_strands(k)
            if {u, o} == {i, j}:
                tot += self.signs[k]
        if tot % 2:
            raise InvalidDiagram("odd signed crossing count between components")
        return tot // 2

    # -- arcs -----------------------------------------------------------

    def arcs(self):
        """Over-arcs: edges merged wherever the strand passes over."""
        if self._arcs is not None:
            return self._arcs
        parent = {e: e for e in self.edges}
        for _, b, _, d in self.crossings:
            _union(parent, b, d)
        classes: dict[int, list[int]] = {}
        for e in self.edges:
            classes.setdefault(_find(parent, e), []).append(e)
        arcs = tuple(tuple(sorted(v)) for _, v in sorted(classes.items()))
        self._arcs = arcs
        return arcs

    def arc_of_edge(self):
        return {e: i for i, arc in enumerate(self.arcs()) for e in arc}

    # -- canonical form ---------------------------------------------------

    def restricted(self, comps):
        """Sub-diagram on the given components.

        Crossings involving a discarded component disappear and the edges
        of the kept strand running through them merge.  Returns the new
        diagram together with the old-edge -> new-edge map.  Keeping a
        knot's only component returns the diagram itself and the identity
        map: its edges already ascend 1..2n along the orientation, which
        is the relabelling below.
        """
        comps = sorted(set(comps))
        for i in comps:
            if not 0 <= i < self.num_components:
                raise InvalidDiagram(f"no component {i}")
        if comps == [0] and self.num_components == 1:
            return self, {e: e for e in self.edges}
        keep = set(comps)
        parent = {
            e: e
            for i in comps
            for e in self.components[i]
        }
        kept_k = []
        for k, (a, b, c, d) in enumerate(self.crossings):
            u, o = self.crossing_strands(k)
            if u in keep and o in keep:
                kept_k.append(k)
            elif u in keep:
                _union(parent, a, c)
            elif o in keep:
                _union(parent, b, d)

        edge_map = {}
        label = 1
        for i in comps:
            cyc = self.components[i]
            reps = []
            for e in cyc:
                r = _find(parent, e)
                if r not in reps:
                    reps.append(r)
            if len(reps) < 2:
                raise InvalidDiagram(
                    f"component {i} keeps no crossings; cannot encode it"
                )
            for r in reps:
                for e in cyc:
                    if _find(parent, e) == r:
                        edge_map[e] = label
                label += 1
        new_crossings = [
            tuple(edge_map[e] for e in self.crossings[k]) for k in kept_k
        ]
        new_signs = [self.signs[k] for k in kept_k]
        sub = Diagram(new_crossings, signs=new_signs)
        return sub, edge_map

    def __eq__(self, other):
        return (
            isinstance(other, Diagram)
            and self.crossings == other.crossings
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.crossings, self.signs))

    def __repr__(self):
        return f"Diagram({len(self.crossings)} crossings, {self.num_components} components)"


def canonical_code(diagram: Diagram):
    """Relabelling-invariant code for a one-component diagram.

    Minimises the sorted crossing list over all cyclic relabellings of
    the (single) component.  Mirrors and orientation reversal are NOT
    quotiented out; recognition is deliberately conservative.

    Each edge is the incoming under-strand ``a`` of one crossing at
    most, and some relabelling sends a crossing's ``a`` to 1, so the
    least code starts with that crossing: its relabelling is one of
    these, one per crossing.  Only those whose crossing then reads least
    can win, and only their full codes are sorted.
    """
    if diagram.num_components != 1:
        raise NotAKnot("canonical codes are only defined for knots here")
    n = len(diagram.edges)
    crossings = tuple(zip(diagram.crossings, diagram.signs))

    def relabelled(shift, cr, s):
        return tuple((e - 1 + shift) % n + 1 for e in cr) + (s,)

    heads = {}  # the shift sending a crossing's a to 1: that crossing
    for cr, s in crossings:
        shift = (1 - cr[0]) % n
        heads[shift] = relabelled(shift, cr, s)
    least = min(heads.values())
    return min(
        tuple(sorted(relabelled(shift, cr, s) for cr, s in crossings))
        for shift, head in heads.items() if head == least
    )


def diagram_hash(diagram: Diagram) -> str:
    blob = json.dumps(canonical_code(diagram)).encode()
    return hashlib.sha256(blob).hexdigest()


# -- presentations ------------------------------------------------------


@dataclass
class LinkGroup:
    """Arc presentation of a link complement with framing data.

    ``group`` has one generator per over-arc and one relator per
    crossing.  ``meridians[i]`` is the generator of the arc through
    component ``i``'s lowest edge.  ``longitudes[i]`` is the zero-framed
    longitude: the product of over-arc generators at the component's
    underpasses, corrected by meridian^(-self writhe).
    """

    diagram: Diagram
    group: GroupPresentation
    meridians: tuple
    longitudes: tuple


def _underpass_word(diagram, comp, gen_of):
    """Product of generators along a component's underpasses.

    ``gen_of`` maps an over-strand edge to the generator of its arc; an
    underpass beneath an edge the map lacks (a strand of an erased
    component) contributes nothing, and overpasses never do.
    """
    ends = {a: k for k, (a, _, _, _) in enumerate(diagram.crossings)}
    letters = []
    for e in diagram.components[comp]:
        k = ends.get(e)
        over = None if k is None else diagram.crossings[k][1]
        if over in gen_of:
            letters.append((gen_of[over], diagram.signs[k]))
    return Word(tuple(letters))


def wirtinger(diagram: Diagram) -> LinkGroup:
    """Arc presentation of the link complement."""
    arcs = diagram.arcs()
    arc_of = diagram.arc_of_edge()
    names = tuple(f"x{arc[0]}" for arc in arcs)
    relators = []
    for k, (a, b, c, d) in enumerate(diagram.crossings):
        xo = Word.gen(arc_of[b])
        xa = Word.gen(arc_of[a])
        xc = Word.gen(arc_of[c])
        # conjugation direction chosen so that the zero-framed longitude
        # below is nullhomologous in the infinite cyclic cover and a
        # +1-linked lasso around an arc reads as that arc's generator
        if diagram.signs[k] == 1:
            w = xo.inverse() * xa * xo * xc.inverse()
        else:
            w = xo * xa * xo.inverse() * xc.inverse()
        if w:
            relators.append(w)
    group = GroupPresentation(names, tuple(relators))
    meridians = tuple(arc_of[comp[0]] for comp in diagram.components)
    longitudes = []
    for i in range(diagram.num_components):
        lam = _underpass_word(diagram, i, arc_of)
        w = diagram.self_writhe(i)
        if w:
            step = -1 if w > 0 else 1
            lam = lam * Word(tuple([(meridians[i], step)] * abs(w)))
        longitudes.append(lam)
    return LinkGroup(
        diagram=diagram,
        group=group,
        meridians=meridians,
        longitudes=tuple(longitudes),
    )


@dataclass(frozen=True)
class SurgeryPresentation:
    """pi_1 of the manifold obtained by zero-surgery on one knot component.

    ``curve_words`` expresses each marked curve as a word in the
    presentation's generators (well defined up to conjugation);
    ``attach_curve_words`` adds curves given as edge words.
    ``meridian`` indexes the distinguished meridian generator.
    ``orig_edge_gen`` maps edges of the *input* diagram to the base
    generator of the arc they land on, which is what later stages use to
    line presentations over the same diagram up with each other.

    Every verdict-bearing stage reads invariants of the group with its
    map to Z, so it runs on ``simplified``, the Tietze-simplified
    presentation whose isomorphism ``check_tietze`` has checked, and its
    result is carried back to ``group`` through the Tietze words by
    Fox's chain rule (R. H. Fox, Free differential calculus I, Ann.
    Math. 57, 1953).  ``small_weights``, ``small_jacobian``, ``module``
    and ``splitting`` live on the small generators, the module's columns
    being the small generators without ``small_meridian``.  ``weights``,
    ``summands`` and ``kernel_mod(m)`` are carried back to the full
    generators, and every map built from them still meets every full
    relator.  All of them are computed on first use and kept on this
    frozen object, which every stage reads; ``dataclasses.replace``
    gives an object with its own.  ``kernel_mod(m)`` is kept once per
    modulus m, which the quotient-map enumeration and stage B's rank
    both read.  The module keeps its own Groebner basis, ``module.basis``,
    built on first use and never when the module's order or its dimension
    over F_3 at t = 2 refutes the splitting; the splitting search, its
    judge and every second-derived membership test of the object share
    it, and the judge extends it by each witness pair it tries.
    ``summands`` reads its translations off the module's rows at t = 2
    and t = 1/2, with no basis.
    """

    group: GroupPresentation
    meridian: int
    longitude: Word
    curve_words: dict
    curve_linking: dict = field(default_factory=dict)
    orig_edge_gen: dict = field(default_factory=dict)

    @cached_property
    def simplified(self) -> tuple:
        """``group`` Tietze-simplified with the meridian kept, as
        ``(small, words, kept)`` from ``simplify_presentation``, with the
        isomorphism checked once here by ``check_tietze``."""
        small, words, kept, record = simplify_presentation(
            self.group, keep={self.meridian}
        )
        check_tietze(self.group, (small, words, kept), record)
        return small, words, kept

    @property
    def small_meridian(self) -> int:
        """The meridian's index among the small generators."""
        return self.simplified[2].index(self.meridian)

    @cached_property
    def small_weights(self) -> tuple:
        """Exponent of each small generator under the map onto H_1 = Z."""
        small = self.simplified[0]
        return tuple(infinite_cyclic_weights(small, self.small_meridian))

    @cached_property
    def weights(self) -> tuple:
        """Exponent of each generator under the map onto H_1 = Z: the
        exponent sum of its Tietze word under ``small_weights``."""
        sw = self.small_weights
        return tuple(
            sum(sw[g] * e for g, e in w.letters) for w in self.simplified[1]
        )

    @cached_property
    def small_jacobian(self) -> tuple:
        """The small presentation's Fox matrix pushed into Lambda, one row
        per small relator."""
        return tuple(fox_jacobian(self.simplified[0], self.small_weights))

    @cached_property
    def module(self):
        """The Alexander module: ``small_jacobian`` without the meridian
        column."""
        return deleted_column_module(
            self.small_jacobian,
            self.small_meridian,
            self.simplified[0].num_generators,
        )

    @cached_property
    def splitting(self):
        """Whether ``module`` is Lambda/(t-2) + Lambda/(2t-1), with witnesses."""
        return detect_splitting(self.module)

    @cached_property
    def summands(self) -> tuple:
        """The two maps onto BS(1,2) a certified splitting induces."""
        return summand_homs(self)

    @cached_property
    def _kernels(self) -> dict:
        return {}

    def kernel_mod(self, m: int) -> tuple:
        """Generators of the kernel of the full Fox Jacobian at t = 2 over
        Z/m, computed on first use for each m.

        A translation vector of the small generators satisfies the small
        relators exactly when the small Jacobian at t = 2 kills it, and
        generator i's translation is then the Fox row of its Tietze word
        at t = 2 applied to it.  Composing with the Tietze isomorphism is
        a bijection of the maps, and linear, so the small kernel from
        ``snf.nullspace_mod``, sent through the Tietze words' Fox matrix,
        spans the full kernel, with as many generators: the full and the
        small kernel mod each prime p dividing m have one dimension.
        """
        if m not in self._kernels:
            small, words, _ = self.simplified
            ns, sw = small.num_generators, self.small_weights
            rows = [[p.evaluate_mod(2, m) for p in row] for row in self.small_jacobian]
            tietze = [
                [LaurentPoly(e).evaluate_mod(2, m) for e in fox_row(w, ns, sw, _Degree)]
                for w in words
            ]
            self._kernels[m] = tuple(
                tuple(sum(a * x for a, x in zip(row, v)) % m for row in tietze)
                for v in nullspace_mod(rows, m, ncols=ns)
            )
        return self._kernels[m]


def zero_surgery(diagram: Diagram, pattern: int) -> SurgeryPresentation:
    """Zero-surgery on the ``pattern`` component, other components erased."""
    sub, edge_map = diagram.restricted([pattern])
    pres = wirtinger(sub)
    lam = pres.longitudes[0]
    group = GroupPresentation(
        pres.group.names, pres.group.relators + ((lam,) if lam else ())
    )
    sub_arc_of = sub.arc_of_edge()
    return SurgeryPresentation(
        group=group,
        meridian=pres.meridians[0],
        longitude=lam,
        curve_words={},
        orig_edge_gen={e: sub_arc_of[ne] for e, ne in edge_map.items()},
    )


def attach_curve_words(plain: SurgeryPresentation, edge_words: dict) -> SurgeryPresentation:
    """Add marked curves given as words over original diagram edges.

    ``edge_words`` maps a curve name to a list of (edge, sign) pairs; each
    pair contributes the Wirtinger generator of the arc through that edge.
    The curve's linking number with the pattern is the signed letter count,
    since every arc generator is a meridian.
    """
    words = dict(plain.curve_words)
    linking = dict(plain.curve_linking)
    for name, letters in edge_words.items():
        out = []
        for edge, sign in letters:
            if edge not in plain.orig_edge_gen:
                raise MissingMark(f"curve {name!r}: edge {edge} not on the pattern")
            if sign not in (1, -1):
                raise MalformedInput(f"curve {name!r}: bad sign {sign!r}")
            out.append((plain.orig_edge_gen[edge], sign))
        words[name] = Word(tuple(out))
        linking[name] = sum(s for _, s in letters)
    return replace(plain, curve_words=words, curve_linking=linking)


# No stage calls ``infect``; it stays because the benchmark traces it as
# the ``diagrams.infect`` span.
def infect(
    diagram: Diagram,
    pattern: int,
    companions: dict,
    curves=None,
) -> SurgeryPresentation:
    """Glue knot exteriors into tubes around marked curves.

    ``companions`` maps infection-curve component indices to companion
    knot :class:`Diagram` objects.  The result presents pi_1 of the
    zero-surgered manifold after each tube around an infection curve is
    replaced by the companion's exterior (meridian and zero-framed
    longitude swapped by the gluing).  ``curves`` marks further curves
    whose words should be carried through; they must avoid the infection
    sites, which holds automatically whenever they share no crossings.
    """
    companions = dict(companions)
    curves = dict(curves or {})
    sites = sorted(companions)
    for comp in sites:
        if not 0 <= comp < diagram.num_components or comp == pattern:
            raise MissingMark(f"infection site {comp} is not a usable component")
        if companions[comp].num_components != 1:
            raise NotAKnot("companions must be knots")
    kept = [pattern] + sites
    sub, edge_map = diagram.restricted(kept)
    pres = wirtinger(sub)
    comp_new = {}
    for old in kept:
        e_new = edge_map[diagram.components[old][0]]
        comp_new[old] = sub.edge_component[e_new]
    names = list(pres.group.names)
    relators = list(pres.group.relators)
    lam_pattern = pres.longitudes[comp_new[pattern]]
    if lam_pattern:
        relators.append(lam_pattern)
    offset = len(names)
    for comp in sites:
        cpres = wirtinger(companions[comp])
        mu_eta = Word.gen(pres.meridians[comp_new[comp]])
        lam_eta = pres.longitudes[comp_new[comp]]
        mu_j = Word.gen(cpres.meridians[0] + offset)
        lam_j = cpres.longitudes[0].shift(offset)
        names.extend(f"y{comp}_{n}" for n in cpres.group.names)
        relators.extend(r.shift(offset) for r in cpres.group.relators)
        relators.append(mu_j * lam_eta.inverse())
        relators.append(lam_j * mu_eta.inverse())
        offset += len(cpres.group.names)
    sub_arc_of = sub.arc_of_edge()
    gen_of = {e: sub_arc_of[ne] for e, ne in edge_map.items()}
    words = {}
    linking = {}
    for name, comp in curves.items():
        if comp == pattern or comp in companions:
            raise MissingMark(f"curve {name!r} clashes with surgered components")
        words[name] = _underpass_word(diagram, comp, gen_of)
        linking[name] = diagram.linking_number(comp, pattern)
    group = GroupPresentation(tuple(names), tuple(r for r in relators if r))
    return SurgeryPresentation(
        group=group,
        meridian=pres.meridians[comp_new[pattern]],
        longitude=lam_pattern,
        curve_words=words,
        curve_linking=linking,
        orig_edge_gen=gen_of,
    )
