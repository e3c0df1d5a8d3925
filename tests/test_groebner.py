"""Membership engine checked against independent criteria.

For principal ideals (t-2) and (2t-1) membership is equivalent to the
polynomial vanishing at t=2 (respectively t=1/2, evaluated exactly over
dyadic rationals), which gives an oracle that never touches the
Groebner code.
"""

import hashlib
import random
import time

import pytest

from dslice.corpus import bundled_document
from dslice.diagrams import zero_surgery
from dslice.documents import diagram_from_document
from dslice.errors import BudgetExceeded
from dslice.groebner import GroebnerBasis
from dslice.laurent import ONE, T, ZERO, LaurentPoly
from dslice.modules import (
    _witness_pool,
    alexander_module,
    fox_jacobian,
    infinite_cyclic_weights,
)


def rand_poly(rng, span=4, hi=5):
    return LaurentPoly(
        {
            rng.randint(-span, span): rng.randint(-hi, hi)
            for _ in range(rng.randint(0, 4))
        }
    )


def test_principal_ideal_t_minus_2():
    rng = random.Random(3)
    gb = GroebnerBasis([(T - 2 * ONE,)], 1)
    for _ in range(60):
        q = rand_poly(rng)
        member = (T - 2 * ONE) * q
        assert gb.contains((member,))
        p = rand_poly(rng)
        assert gb.contains((p,)) == (not p.evaluate_dyadic(1))


def test_principal_ideal_2t_minus_1():
    rng = random.Random(4)
    gb = GroebnerBasis([(2 * T - ONE,)], 1)
    for _ in range(60):
        p = rand_poly(rng)
        assert gb.contains((p,)) == (not p.evaluate_dyadic(-1))


def test_coefficient_gcd_combinations():
    # over the Laurent ring (2t, 3t^2) = (2, 3t) = (1): t is a unit and
    # the coefficient gcd combination collapses everything
    gb = GroebnerBasis([(2 * T,), (3 * T * T,)], 1)
    assert gb.contains((T,))
    assert gb.contains((ONE,))
    # (4t, 6t^2) = 2*(2, 3t): contains 2 but no odd constant, no t
    gb2 = GroebnerBasis([(4 * T,), (6 * T * T,)], 1)
    assert gb2.contains((2 * T,))
    assert gb2.contains((2 * ONE,))
    assert not gb2.contains((T,))
    assert not gb2.contains((ONE,))
    assert not gb2.contains((3 * ONE,))


def test_unit_saturation():
    # Laurent units t^k must never affect membership
    rng = random.Random(9)
    rows = [(T - 2 * ONE, LaurentPoly()), (3 * ONE, T + ONE)]
    gb = GroebnerBasis(rows, 2)
    for _ in range(40):
        vec = (rand_poly(rng, 2, 3), rand_poly(rng, 2, 3))
        base = gb.contains(vec)
        for k in (-2, 1, 3):
            shifted = tuple(p.shift(k) for p in vec)
            assert gb.contains(shifted) == base


def test_tracked_coordinates_reproduce_vector():
    # a combination of the rows is a member, and adding it as a generator
    # leaves the module as it was: the rows alone reproduce the vector
    rng = random.Random(17)
    rows = [
        (3 * T - 3 * ONE, 2 * T - ONE),
        (T - 2 * ONE, ZERO),
    ]
    gb = GroebnerBasis(list(rows), 2)
    checks = [(ONE, ZERO), (ZERO, ONE), (ONE, ONE), (T, ZERO), (ZERO, T - 2 * ONE)]
    for _ in range(25):
        a, b = rand_poly(rng, 2, 3), rand_poly(rng, 2, 3)
        vec = tuple(
            a * rows[0][i] + b * rows[1][i] for i in range(2)
        )
        assert gb.contains(vec)
        ext = GroebnerBasis([vec], 2, base=gb)
        assert [ext.contains(c) for c in checks] == [gb.contains(c) for c in checks]


def test_module_membership_946_style():
    # relation matrix of the pretzel knot's Alexander module in Seifert
    # surface coordinates; hand-checked witnesses
    rows = [
        (3 * T - 3 * ONE, 2 * T - ONE),
        (T - 2 * ONE, ZERO),
    ]
    gb = GroebnerBasis(rows, 2)
    t_minus_2 = T - 2 * ONE
    two_t_minus_1 = 2 * T - ONE
    assert gb.contains((t_minus_2, ZERO))
    assert gb.contains((two_t_minus_1, two_t_minus_1))
    assert not gb.contains((ONE, ZERO))
    assert not gb.contains((ZERO, ONE))
    # e1 and e1+e2 generate: stacking them makes everything reducible
    stacked = GroebnerBasis(
        rows + [(ONE, ZERO), (ONE, ONE)], 2
    )
    assert stacked.contains((ONE, ZERO))
    assert stacked.contains((ZERO, ONE))


def _basis_digest(gb):
    # SHA-256 of the ordered element list, each element hashed as the pair
    # (sorted terms, None), with each term key (i + j, i, -pos) read back
    # as (i, j, pos)
    h = hashlib.sha256()
    for elem, *_ in gb.basis:
        terms = sorted(((i, d - i, -p), c) for (d, i, p), c in elem.items())
        h.update(repr((terms, None)).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def plain946():
    diagram, _ = diagram_from_document(bundled_document("946"))
    return zero_surgery(diagram, 0)


def _fox946(plain):
    weights = infinite_cyclic_weights(plain.group, plain.meridian)
    return fox_jacobian(plain.group, weights), plain.group.num_generators


# the basis, the work count and so every budget's firing point; a change
# to the engine that alters any of them changes what callers compute
PINNED_946 = {
    "fox": (
        30, 933,
        "ff6e242e9ef3bcdf807c69d9c85e45dd133700dabdc0cbfcfc2ff7e0c40493f8",
    ),
    "alexander": (
        20, 428,
        "bd659a3a5df21950e30196250e776b08c862b16aa358135bd0d8728d192b9a36",
    ),
}


def test_946_bases_are_pinned(plain946):
    rows, width = _fox946(plain946)
    assert width == 9
    gb = GroebnerBasis(rows, width)
    assert (len(gb.basis), gb._work, _basis_digest(gb)) == PINNED_946["fox"]
    module = alexander_module(plain946.group, plain946.meridian)
    assert module.ncols == 8
    gb = GroebnerBasis(list(module.rows), module.ncols)
    assert (len(gb.basis), gb._work, _basis_digest(gb)) == PINNED_946["alexander"]


def test_budget_fires_at_the_pinned_work_count(plain946):
    rows, width = _fox946(plain946)
    GroebnerBasis(rows, width, budget=933)
    with pytest.raises(BudgetExceeded):
        GroebnerBasis(rows, width, budget=932)


def test_coefficient_growth_raises_budget_exceeded():
    # of these draws the third completes with 311-bit coefficients; the
    # fifth passes 266,000 bits within 15 s at a small step count, so only
    # the coefficient bound stops it
    rng = random.Random(54)
    draws = [
        [tuple(rand_poly(rng, 1, 3) for _ in range(4))
         for _ in range(rng.randint(1, 5))]
        for _ in range(5)
    ]
    GroebnerBasis(draws[2], 4)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="coefficients"):
        GroebnerBasis(draws[4], 4)
    assert time.perf_counter() - start < 5


def _combine(coeffs, rows, width):
    out = [ZERO] * width
    for c, row in zip(coeffs, rows):
        for i in range(width):
            out[i] = out[i] + c * row[i]
    return tuple(out)


@pytest.mark.parametrize("width", (2, 3, 4))
def test_random_submodules_track_without_steering(width):
    # membership queries do not steer the basis: it has the same elements
    # in the same order after every query as when it was built, a rebuild
    # from the same rows gives it again with the same work count, and
    # every combination of the rows is a member
    rng = random.Random(60 + width)
    probe = random.Random(width)
    for _ in range(12):
        rows = [
            tuple(rand_poly(rng, 1, 3) for _ in range(width))
            for _ in range(rng.randint(1, width))
        ]
        gb = GroebnerBasis(rows, width)
        built = list(gb.basis)
        again = GroebnerBasis(rows, width)
        assert (again.basis, again._work) == (built, gb._work)
        for _ in range(6):
            member = _combine([rand_poly(probe, 1, 3) for _ in rows], rows, width)
            other = tuple(rand_poly(probe, 1, 3) for _ in range(width))
            assert gb.contains(member)
            assert gb.contains(other) == again.contains(other)
            assert gb.basis == built


def _unit(width, i):
    return tuple(ONE if j == i else ZERO for j in range(width))


def _check_extension(rows, width, v1, v2, probes=()):
    """Extend the basis of ``rows`` by ``[v1, v2]`` and compare it with a
    fresh completion over ``[v1, v2] + rows``: the base is left as it was,
    and membership agrees on every unit vector, pool vector and probe."""
    base = GroebnerBasis(rows, width)
    before = list(base.basis)
    ext = GroebnerBasis([v1, v2], width, base=base)
    fresh = GroebnerBasis([v1, v2] + list(rows), width)
    assert base.basis == before
    units = [_unit(width, i) for i in range(width)]
    for vec in units + _witness_pool(width) + list(probes):
        assert ext.contains(vec) == fresh.contains(vec)
    return ext


def test_extension_by_the_946_witnesses_matches_a_fresh_basis(plain946):
    # the full presentation's module, whose witnesses ``analyze`` reports
    module = alexander_module(plain946.group, plain946.meridian)
    v1 = _unit(8, 6)
    v2 = _combine([ONE, -2 * ONE], [_unit(8, 3), _unit(8, 6)], 8)
    ext = _check_extension(list(module.rows), module.ncols, v1, v2)
    # the pair generates the module
    assert all(ext.contains(_unit(8, i)) for i in range(8))


@pytest.mark.parametrize("width", (2, 3, 4))
def test_random_extensions_match_a_fresh_basis(width):
    # the seeded random submodules above, each extended by two pool
    # vectors, as a witness pair would be; members of the extended module
    # are probed as well
    rng = random.Random(60 + width)
    probe = random.Random(width)
    pool = _witness_pool(width)
    for _ in range(12):
        rows = [
            tuple(rand_poly(rng, 1, 3) for _ in range(width))
            for _ in range(rng.randint(1, width))
        ]
        v1, v2 = (_combine([rand_poly(probe, 1, 1)], [probe.choice(pool)], width)
                  for _ in range(2))
        gens = [v1, v2] + rows
        probes = [
            _combine([rand_poly(probe, 1, 2) for _ in gens], gens, width)
            for _ in range(4)
        ]
        ext = _check_extension(rows, width, v1, v2, probes)
        assert all(ext.contains(vec) for vec in probes)
