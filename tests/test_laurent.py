"""Laurent polynomial and dyadic arithmetic against sympy oracles, and
determinants against permutation expansion."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

import dslice.laurent as laurent
from dslice.errors import VerificationFailed
from dslice.laurent import (
    DyadicRational,
    LaurentPoly,
    maximal_minors,
    poly_gcd,
    ONE,
    T,
    ZERO,
)


def to_sympy(p: LaurentPoly):
    t = sympy.Symbol("t")
    return sum(c * t**d for d, c in p.coeffs.items())


polys = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-9, max_value=9),
    max_size=5,
).map(LaurentPoly)


@given(polys, polys)
def test_ring_ops_match_sympy(a, b):
    t = sympy.Symbol("t")
    assert sympy.expand(to_sympy(a) * to_sympy(b) - to_sympy(a * b)) == 0
    assert sympy.expand(to_sympy(a) + to_sympy(b) - to_sympy(a + b)) == 0


@given(polys)
def test_canonical_is_associate_invariant(p):
    for k in (-2, 1, 3):
        for s in (1, -1):
            q = p.shift(k) * s
            assert q.canonical() == p.canonical()
    if p.coeffs:
        assert p.canonical().min_degree() == 0
        assert p.canonical().coeffs[0] > 0


def test_gcd_examples():
    # (t-2)(2t-1) and (t-2)(t+1): gcd is t-2
    f = LaurentPoly({0: 2, 1: -5, 2: 2})
    g = (T - 2 * ONE) * (T + ONE)
    assert poly_gcd(f, g) == (T - 2 * ONE).canonical()
    assert poly_gcd(f, LaurentPoly()) == f.canonical()
    # content is not discarded
    assert poly_gcd(6 * ONE, LaurentPoly({1: 4})) == (2 * ONE)


@given(polys, polys)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    t = sympy.Symbol("t")
    for p in (a, b):
        if p.is_zero():
            continue
        quo, rem = sympy.div(
            sympy.Poly(to_sympy(p.shift(-p.min_degree())), t),
            sympy.Poly(to_sympy(g), t),
            domain="QQ",
        )
        assert rem == 0
        assert all(c.is_integer for c in quo.all_coeffs())


def test_dyadic_normalisation():
    assert DyadicRational(6, 2) == DyadicRational(3, 1)
    assert DyadicRational(0, 5) == DyadicRational(0, 0)
    d = DyadicRational(8, 1)
    assert (d.num, d.exp) == (4, 0)


dyadics = st.tuples(
    st.integers(min_value=-40, max_value=40), st.integers(min_value=0, max_value=5)
).map(lambda p: DyadicRational(*p))


def to_frac(d: DyadicRational) -> Fraction:
    return Fraction(d.num, 2**d.exp)


@given(dyadics, dyadics)
def test_dyadic_field_ops(a, b):
    assert to_frac(a + b) == to_frac(a) + to_frac(b)
    assert to_frac(a - b) == to_frac(a) - to_frac(b)
    assert to_frac(a * b) == to_frac(a) * to_frac(b)
    assert to_frac(a.times_power_of_two(3)) == to_frac(a) * 8


def test_evaluate_dyadic():
    p = LaurentPoly({-1: 1, 0: -2})  # t^-1 - 2
    assert p.evaluate_dyadic(1) == DyadicRational(-3, 1)  # 1/2 - 2
    assert p.evaluate_dyadic(-1) == DyadicRational(0)  # at t=1/2: 2 - 2


def test_symmetry_check():
    delta_trefoil = LaurentPoly({0: 1, 1: -1, 2: 1})
    assert delta_trefoil.is_symmetric()
    assert not (T - 2 * ONE).is_symmetric()


# ------------------------------------------------------------- determinants


def naive_det(mat):
    """Permutation expansion, the definition itself."""
    total = ZERO
    for perm in itertools.permutations(range(len(mat))):
        inversions = sum(
            perm[i] > perm[j]
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
        )
        term = LaurentPoly.constant(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        total = total + term
    return total


def random_poly(rng, big=False):
    if rng.random() < 0.2:
        return ZERO
    bound = 10**9 if big else 5
    return LaurentPoly({
        rng.randint(-3, 3): rng.randint(-bound, bound)
        for _ in range(rng.randint(1, 3))
    })


def random_matrix(rng, rows, cols, big=False):
    return [[random_poly(rng, big) for _ in range(cols)] for _ in range(rows)]


def det(mat):
    """The one maximal minor of a square matrix."""
    return next(maximal_minors(mat, [range(len(mat))]))


@pytest.mark.parametrize("size", range(1, 7))
def test_det_matches_naive_expansion(size):
    rng = random.Random(f"det:{size}")
    for trial in range(12 if size < 5 else 3):
        mat = random_matrix(rng, size, size, big=trial % 2 == 1)
        assert det(mat) == naive_det(mat)


@pytest.mark.parametrize("rows,cols", [(1, 4), (2, 5), (3, 6), (4, 6)])
def test_maximal_minors_match_naive_expansion(rows, cols):
    rng = random.Random(f"minors:{rows}x{cols}")
    for trial in range(3):
        mat = random_matrix(rng, rows, cols, big=trial == 2)
        subsets = list(itertools.combinations(range(cols), rows))
        got = list(maximal_minors(mat, subsets))
        assert got == [
            naive_det([[row[c] for c in sub] for row in mat])
            for sub in subsets
        ]


def test_det_of_empty_matrix_is_one():
    assert det([]) == ONE
    assert list(maximal_minors([], [()])) == [ONE]


def test_det_zero_rows_and_singular_matrices():
    rng = random.Random("singular")
    for size in range(1, 6):
        mat = random_matrix(rng, size, size)
        mat[rng.randrange(size)] = [ZERO] * size
        assert det(mat).is_zero()
    for size in range(2, 6):
        mat = random_matrix(rng, size, size, big=True)
        # one row a Laurent multiple of another, the rest arbitrary
        mat[1] = [p * LaurentPoly({-2: 3, 1: -7}) for p in mat[0]]
        assert det(mat).is_zero()
        assert naive_det(mat).is_zero()


def test_wide_matrix_with_all_zero_minors():
    rng = random.Random("wide")
    first = [random_poly(rng, big=True) for _ in range(5)]
    mat = [first, [p.shift(-3) * 4 for p in first], [ZERO] * 5]
    subsets = list(itertools.combinations(range(5), 3))
    assert all(d.is_zero() for d in maximal_minors(mat, subsets))
    mat = [first, [p.shift(2) for p in first]]
    subsets = list(itertools.combinations(range(5), 2))
    assert all(d.is_zero() for d in maximal_minors(mat, subsets))


@pytest.mark.parametrize("signs", [(1, 1, 1), (-1, 1, 1), (-1, -1, -1)])
def test_det_coefficient_equal_to_the_bound(signs):
    # single terms on a diagonal or an anti-diagonal: the one coefficient
    # of the determinant is the product of the rows' l1-norms, the bound
    coeffs = [signs[0] * 10**9, signs[1] * (2**31 - 1), signs[2] * 7]
    degrees = [-4, 0, 5]
    product = coeffs[0] * coeffs[1] * coeffs[2]
    for flip, sign in ((False, 1), (True, -1)):
        mat = [[ZERO] * 3 for _ in range(3)]
        for i, (c, d) in enumerate(zip(coeffs, degrees)):
            mat[i][2 - i if flip else i] = LaurentPoly.monomial(c, d)
        want = LaurentPoly.monomial(sign * product, sum(degrees))
        assert det(mat) == want == naive_det(mat)
        # the coefficient lies in the top half of the balanced digit range
        _, bits, _ = laurent._kronecker(mat)
        assert 2 ** (bits - 2) <= abs(product) < 2 ** (bits - 1)


def test_det_rejects_non_integer_coefficients():
    for c in (DyadicRational(1, 1), DyadicRational(2), Fraction(1, 3)):
        mat = [[ONE, LaurentPoly({1: c})], [T, ONE]]
        with pytest.raises(TypeError):
            det(mat)
        with pytest.raises(TypeError):
            list(maximal_minors([[ONE, LaurentPoly({1: c}), ONE]], [(0,)]))


def test_det_rejects_bad_shapes():
    with pytest.raises(ValueError):
        list(maximal_minors([[ONE, T, ONE]], [(0, 1)]))


def test_maximal_minors_are_lazy():
    mat = [[T, ONE, 2 * ONE]]
    minors = maximal_minors(mat, iter([(0,), (1, 2)]))
    assert next(minors) == T
    with pytest.raises(ValueError):
        next(minors)


def test_inexact_bareiss_division_is_refused(monkeypatch):
    # every Bareiss division is exact in Z; forge a remainder to check that
    # the guard is a raise, which survives python -O, not an assert
    def forged(a, b):
        q, r = divmod(a, b)
        return q, r + 1

    monkeypatch.setattr(laurent, "divmod", forged, raising=False)
    with pytest.raises(VerificationFailed):
        det([[T, ONE], [ONE, T]])


# ------------------------------------------------------ minors of wide matrices


def combination_of_rows(rng, mat):
    """A row that is a Laurent combination of the rows of ``mat``."""
    out = [ZERO] * len(mat[0])
    for row in mat:
        factor = random_poly(rng)
        out = [a + factor * b for a, b in zip(out, row)]
    return out


def wide_cases(rng, k, n):
    yield random_matrix(rng, k, n)
    yield random_matrix(rng, k, n, big=True)
    mat = random_matrix(rng, k, n)
    mat[rng.randrange(k)] = [ZERO] * n
    yield mat
    if k > 1:
        # rank k - 1: the last row depends on the others
        mat = random_matrix(rng, k - 1, n, big=True)
        yield mat + [combination_of_rows(rng, mat)]
    # leading zero columns push every pivot search past column 0
    mat = random_matrix(rng, k, n)
    for row in mat:
        row[0] = row[1] = ZERO
    yield mat


@pytest.mark.parametrize("k", range(1, 6))
def test_wide_minors_match_naive_expansion_on_every_subset(k):
    rng = random.Random(f"sylvester:{k}")
    for n in range(k + 1, k + 5):
        subsets = list(itertools.combinations(range(n), k))
        for mat in wide_cases(rng, k, n):
            got = list(maximal_minors(mat, subsets))
            assert got == [
                naive_det([[row[c] for c in sub] for row in mat])
                for sub in subsets
            ], (k, n)


def test_wide_minors_on_permuted_and_repeated_columns():
    rng = random.Random("sylvester:order")
    mat = random_matrix(rng, 3, 6, big=True)
    subsets = [(5, 0, 3), (2, 1, 0), (4, 3, 2), (1, 5, 4), (0, 0, 4),
               (5, 2, 5)]
    got = list(maximal_minors(mat, subsets))
    assert got == [
        naive_det([[row[c] for c in sub] for row in mat]) for sub in subsets
    ]
    assert got[-2].is_zero() and got[-1].is_zero()


def test_inexact_division_in_a_wide_minor_is_refused(monkeypatch):
    def forge_when(pred):
        def forged(a, b):
            q, r = divmod(a, b)
            return (q, r + 1) if pred(b) else (q, r)
        return forged

    monkeypatch.setattr(laurent, "divmod", forge_when(lambda b: True),
                        raising=False)
    with pytest.raises(VerificationFailed, match="Bareiss"):
        next(maximal_minors([[T, ONE, T], [ONE, T, T]], [(0, 1)]))
    # each minor's Bareiss pass divides by 1 and then by its first pivot:
    # 2 on the subsets starting at column 0, 5 on the last one
    mat = [[2 * ONE, 5 * ONE, ONE, ZERO], [ONE, ONE, 3 * ONE, ONE],
           [ZERO, ONE, ONE, 2 * ONE]]
    subsets = list(itertools.combinations(range(4), 3))
    monkeypatch.setattr(laurent, "divmod", forge_when(lambda b: b == 5),
                        raising=False)
    minors = maximal_minors(mat, subsets)
    for sub in subsets[:-1]:
        assert next(minors) == naive_det([[row[c] for c in sub] for row in mat])
    with pytest.raises(VerificationFailed, match="Bareiss"):
        next(minors)


def test_shadow_gate_obstructs_the_mirror_by_witness(monkeypatch):
    from collections import Counter

    from dslice import certify
    from dslice.corpus import bundled_document
    from dslice.diagrams import Diagram

    eliminations = Counter()
    inner_eliminate = laurent._gauss_jordan

    def eliminate(rows):
        eliminations[len(rows), len(rows[0])] += 1
        return inner_eliminate(rows)

    monkeypatch.setattr(laurent, "_gauss_jordan", eliminate)
    # the mirror of 9_46 is unregistered, so stage B runs
    pd = bundled_document("946")["pd"]
    mirror = Diagram([(a, d, c, b) for a, b, c, d in pd])
    certify.certify_doubly_slice(mirror, registry=None)
    # the module order takes one Bareiss pass per minor and eliminates
    # nothing; the generator weights eliminate once, on the 10 x 9
    # abelianization matrix, since every stage reads them from the one
    # surgery presentation
    assert eliminations == {(10, 9): 1}
