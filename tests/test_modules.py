"""Alexander modules, orders, and the splitting detector."""

import random
import time
from math import gcd, lcm

import pytest
import sympy

from dslice.certify import NOT_APPLICABLE, certify_doubly_slice
from dslice.diagrams import Diagram, infect, wirtinger, zero_surgery
from dslice.errors import HypothesisNotMet, VerificationFailed
from dslice.laurent import ONE, T, ZERO, LaurentPoly
from dslice import modules
from dslice.modules import (
    LambdaModule,
    TARGET_ORDER,
    _verify_split,
    alexander_module,
    alexander_polynomial,
    detect_splitting,
    fox_jacobian,
    infinite_cyclic_weights,
)
from dslice.snf import abelian_invariants
from dslice.words import GroupPresentation, Word

from test_diagrams import FIG8, HOPF, KINK, TREFOIL, TREFOIL_MERID

T_MINUS_2 = T - 2 * ONE
TWO_T_MINUS_1 = 2 * T - ONE


def knot_group(code):
    lg = wirtinger(Diagram(code))
    return lg.group, lg.meridians[0]


def test_weights_all_one_for_knots():
    for code in (TREFOIL, FIG8, KINK):
        g, mer = knot_group(code)
        assert infinite_cyclic_weights(g, mer) == [1] * g.num_generators


def test_weights_reject_links():
    lg = wirtinger(Diagram(HOPF))
    with pytest.raises(HypothesisNotMet):
        infinite_cyclic_weights(lg.group, lg.meridians[0])


def test_alexander_polynomials():
    cases = [
        (TREFOIL, LaurentPoly({0: 1, 1: -1, 2: 1})),
        (FIG8, LaurentPoly({0: 1, 1: -3, 2: 1})),
        (KINK, ONE),
    ]
    for code, expected in cases:
        g, mer = knot_group(code)
        assert alexander_polynomial(g, mer) == expected


def test_alexander_polynomial_conjugation_invariance():
    # the deleted column may be any meridian generator
    g, _ = knot_group(TREFOIL)
    orders = {alexander_polynomial(g, m) for m in range(3)}
    assert orders == {LaurentPoly({0: 1, 1: -1, 2: 1})}


def test_jacobian_fundamental_column_relation():
    # sum_i (dr/dx_i) evaluated in Lambda, weighted by (t^w_i - 1), is 0
    g, mer = knot_group(FIG8)
    w = infinite_cyclic_weights(g, mer)
    rows = fox_jacobian(g, w)
    tm1 = T - ONE
    for row in rows:
        total = ZERO
        for p in row:
            total = total + p * tm1
        assert total.is_zero()


def test_simplified_preserves_order():
    g, mer = knot_group(FIG8)
    mod = alexander_module(g, mer)
    simp, kept = mod.simplified()
    assert simp.order() == mod.order()
    assert len(kept) == simp.ncols


def test_order_of_rank_deficient_module():
    mod = LambdaModule.make([(T_MINUS_2, ZERO)], 2)
    assert mod.order().is_zero()


def test_detect_splitting_direct_sum():
    mod = LambdaModule.make(
        [(T_MINUS_2, ZERO), (ZERO, TWO_T_MINUS_1)], 2
    )
    rep = detect_splitting(mod)
    assert rep.certified
    assert rep.order == TARGET_ORDER


def test_verify_split_rejects_wrong_witnesses():
    mod = LambdaModule.make(
        [(T_MINUS_2, ZERO), (ZERO, TWO_T_MINUS_1)], 2
    )
    e1, e2 = (ONE, ZERO), (ZERO, ONE)
    _verify_split(mod, e1, e2)
    with pytest.raises(VerificationFailed, match="t - 2"):
        _verify_split(mod, e2, e2)
    with pytest.raises(VerificationFailed, match="2t - 1"):
        _verify_split(mod, e1, e1)
    # 3 is no unit mod t - 2, so 3*e1 is killed but generates too little
    with pytest.raises(VerificationFailed, match="generate"):
        _verify_split(mod, (3 * ONE, ZERO), e2)


def test_detect_splitting_pretzel_seifert_form():
    mod = LambdaModule.make(
        [
            (3 * T - 3 * ONE, TWO_T_MINUS_1),
            (T_MINUS_2, ZERO),
        ],
        2,
    )
    rep = detect_splitting(mod)
    assert rep.certified
    # witness for the (2t-1) part must be e1 + e2 up to the pool's order
    assert rep.v1 is not None and rep.v2 is not None


def test_detect_splitting_rejects_wrong_order():
    g, mer = knot_group(TREFOIL)
    rep = detect_splitting(alexander_module(g, mer))
    assert rep.verdict == "no_split"
    assert "not" in rep.note


def test_detect_splitting_rejects_pseudo_null_padding():
    # extra row forces the order down to 1, so no split may be certified
    mod = LambdaModule.make(
        [
            (T_MINUS_2, ZERO),
            (ZERO, TWO_T_MINUS_1),
            (3 * ONE, 3 * ONE),
        ],
        2,
    )
    rep = detect_splitting(mod)
    assert rep.verdict == "no_split"


def test_detect_splitting_rejects_free_module():
    mod = LambdaModule.make([(T_MINUS_2, ZERO)], 2)
    assert detect_splitting(mod).verdict == "no_split"


# 6_1, the stevedore knot: its order 2 - 5t + 2t^2 is the split module's,
# but its module is cyclic, so over F_3 at t = 2 it has dimension 1 where
# Lambda/(t-2) + Lambda/(2t-1) has 2
STEVEDORE = [(1, 4, 2, 5), (7, 10, 8, 11), (3, 9, 4, 8), (9, 3, 10, 2),
             (5, 12, 6, 1), (11, 6, 12, 7)]


def test_detect_splitting_refutes_the_stevedore_over_f3(monkeypatch):
    def pool_must_not_run(ncols):
        raise AssertionError("witness search ran after an exact refutation")

    monkeypatch.setattr(modules, "_witness_pool", pool_must_not_run)
    g, mer = knot_group(STEVEDORE)
    rep = detect_splitting(alexander_module(g, mer))
    assert rep.order == TARGET_ORDER
    assert rep.verdict == "no_split"
    assert rep.note == "module has dimension 1 over F_3 at t = 2, not 2"
    cert = certify_doubly_slice(Diagram(STEVEDORE))
    assert cert.conclusion == NOT_APPLICABLE
    assert "splitting verdict: no_split" in cert.hypotheses


def test_zero_surgery_module_of_trefoil():
    s = zero_surgery(Diagram(TREFOIL), 0)
    mod = alexander_module(s.group, s.meridian)
    simp, _ = mod.simplified()
    assert simp.order() == LaurentPoly({0: 1, 1: -1, 2: 1})


def test_infection_weights():
    d = Diagram(TREFOIL_MERID)
    s = infect(d, 0, {1: Diagram(TREFOIL)})
    w = infinite_cyclic_weights(s.group, s.meridian)
    assert w[s.meridian] == 1
    assert set(w) <= {0, 1}


# ------------------------------------------------------------ weights kernel


def exponent_sum_presentation(mat):
    """A presentation whose abelianisation matrix is ``mat``."""
    n = len(mat[0])
    relators = tuple(
        Word(tuple(
            letter
            for g, a in enumerate(row)
            for letter in [(g, 1 if a > 0 else -1)] * abs(a)
        ))
        for row in mat
    )
    return GroupPresentation(tuple(f"x{i}" for i in range(n)), relators)


def primitive_sympy_kernel(mat):
    (v,) = sympy.Matrix(mat).nullspace()
    scale = lcm(*(int(sympy.fraction(x)[1]) for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


def test_weights_match_sympy_nullspace():
    rng = random.Random(90)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 6)
        mat = [[rng.randint(-3, 3) for _ in range(n)]
               for _ in range(rng.randint(n - 1, n + 2) or 1)]
        if len(mat) > 2 and rng.random() < 0.4:
            mat[0] = [0] * n  # a zero row
        if len(mat) > 2 and rng.random() < 0.4:
            # a dependent row, ahead of the rows it depends on
            mat.insert(0, [a - 2 * b for a, b in zip(mat[-1], mat[-2])])
        if abelian_invariants(mat, n) != (1, []):
            continue
        checked += 1
        kernel = primitive_sympy_kernel(mat)
        pres = exponent_sum_presentation(mat)
        for meridian, x in enumerate(kernel):
            if abs(x) == 1:
                want = [x * y for y in kernel]
                assert infinite_cyclic_weights(pres, meridian) == want
            else:
                with pytest.raises(HypothesisNotMet):
                    infinite_cyclic_weights(pres, meridian)


def test_weights_of_a_dense_10_by_8_matrix_are_fast():
    # the dense Smith form with transforms ran past 120 s on this matrix
    mat = [
        [0, 2, 0, -1, 0, 0, -2, 1], [10, -2, 1, -2, 1, -2, -2, -1],
        [-3, -2, 1, 2, 1, -1, -2, -1], [-6, 1, 2, 2, 0, 0, -2, -1],
        [-5, -2, -1, 2, 0, 0, 0, 1], [8, 1, 0, -1, -2, 1, -1, 0],
        [-5, 2, 2, 0, -1, 0, 2, 0], [-10, -1, 0, 0, 2, 2, 0, 1],
        [-6, 1, -1, 1, 2, -1, -1, 0], [5, 1, -2, -2, 0, -1, 2, 1],
    ]
    pres = exponent_sum_presentation(mat)
    start = time.perf_counter()
    weights = infinite_cyclic_weights(pres, 0)
    assert time.perf_counter() - start < 1.0
    assert weights == [1, 1, 2, 3, 3, 1, 1, 3]
    assert weights == primitive_sympy_kernel(mat)
