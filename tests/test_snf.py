"""Smith form helpers checked against sympy on random integer matrices."""

import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

from dslice.snf import (
    abelian_invariants,
    normalize_divisor_chain,
    nullspace_mod,
    sparse_invariants,
)


def sympy_divisors(rows, ncols):
    if not rows or ncols == 0:
        return []
    m = sympy.Matrix(rows)
    d = smith_normal_form(m)
    out = []
    for i in range(min(d.rows, d.cols)):
        v = abs(int(d[i, i]))
        if v:
            out.append(v)
    return out


def random_matrix(rng, nr, nc, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


def test_sparse_invariants_vs_sympy():
    rng = random.Random(11)
    for _ in range(120):
        nr = rng.randint(0, 5)
        nc = rng.randint(0, 5)
        m = random_matrix(rng, nr, nc)
        rank, chain = sparse_invariants(m, nc)
        expected = sympy_divisors(m, nc)
        assert rank == len(expected)
        assert chain == [v for v in expected if v > 1]


def random_sparse_rows(rng, nr, nc):
    """Dict rows, mostly empty, mostly +-1, now and then +-2..+-6."""
    rows = []
    for _ in range(nr):
        row = {}
        for j in range(nc):
            if rng.random() < 0.25:
                mag = 1 if rng.random() < 0.8 else rng.randint(2, 6)
                row[j] = rng.choice((-1, 1)) * mag
        rows.append(row)
    return rows


def test_sparse_invariants_vs_sympy_on_sparse_matrices():
    rng = random.Random(1957)
    for _ in range(60):
        nr = rng.randint(6, 14)
        nc = rng.randint(6, 14)
        rows = random_sparse_rows(rng, nr, nc)
        dense = [[r.get(j, 0) for j in range(nc)] for r in rows]
        rank, chain = sparse_invariants(rows, nc)
        expected = sympy_divisors(dense, nc)
        assert rank == len(expected)
        assert chain == [v for v in expected if v > 1]


def test_sparse_invariants_pinned_regular_block():
    # the regular-representation block of trefoil at the (4,15) quotient
    # for the map with translations (0, 5, 10): 240 x 180, 1080 nonzeros
    from dslice.corpus import bundled_document
    from dslice.diagrams import zero_surgery
    from dslice.documents import diagram_from_document
    from dslice.groups import metabelian_quotient_homs
    from dslice.twisted import _regular_blocks, twisted_rows

    diagram, _ = diagram_from_document(bundled_document("trefoil"))
    plain = zero_surgery(diagram, 0)
    target, homs = metabelian_quotient_homs(plain, 4, 15)
    images = ((1, 0), (1, 5), (1, 10))
    assert images in homs
    rows, ncols = _regular_blocks(
        twisted_rows(plain.group, images, target), target,
        plain.group.num_generators, target.elements(),
    )
    assert (len(rows), ncols) == (240, 180)
    assert sum(len(r) for r in rows) == 1080
    assert sparse_invariants(rows, ncols) == (120, [3, 3, 3, 3, 3])


def test_abelian_invariants_examples():
    # coker [[2,0],[0,3]] on Z^2: single Z/6 after chain normalisation
    assert abelian_invariants([[2, 0], [0, 3]], 2) == (0, [6])
    # zero map leaves everything free
    assert abelian_invariants([], 3) == (3, [])
    assert abelian_invariants([[0, 0]], 2) == (2, [])
    # a zero entry lies in no column, so a longer dense row is fine
    assert abelian_invariants([[1, 0, 0]], 2) == (1, [])
    # trefoil double branched cover style: Z/3
    assert abelian_invariants([[1, 1], [-1, 2]], 2) == (0, [3])


@pytest.mark.parametrize("rows", [
    [{5: 1}, {6: 1}, {7: 1}],  # once read as free rank -1
    [[0, 0, 1]],  # once read as free rank 1
    [{-1: 2}],
])
def test_entries_outside_the_columns_are_refused(rows):
    with pytest.raises(ValueError, match="outside 2 columns"):
        abelian_invariants(rows, 2)


def test_normalize_divisor_chain():
    assert normalize_divisor_chain([4, 6]) == [2, 12]
    assert normalize_divisor_chain([1, 1, 5]) == [5]
    assert normalize_divisor_chain([]) == []


def brute_nullspace(a, m, nc):
    sols = set()
    if m ** nc > 20000:
        raise ValueError("brute force kept small on purpose")
    import itertools

    for vec in itertools.product(range(m), repeat=nc):
        if all(sum(r[j] * vec[j] for j in range(nc)) % m == 0 for r in a):
            sols.add(vec)
    return sols


def span_mod(gens, m, nc):
    seen = {tuple([0] * nc)}
    frontier = [tuple([0] * nc)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((cur[i] + g[i]) % m for i in range(nc))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_nullspace_mod_spans_exactly():
    rng = random.Random(5)
    for _ in range(60):
        nc = rng.randint(1, 3)
        nr = rng.randint(0, 3)
        m = rng.choice([2, 3, 4, 5, 6, 7, 8, 9])
        a = random_matrix(rng, nr, nc, -4, 4)
        gens = nullspace_mod(a, m, nc)
        assert span_mod(gens, m, nc) == brute_nullspace(a, m, nc)


def corank_mod(a, p, nc):
    """nc minus the rank of ``a`` over the field Z/p."""
    rows = [[x % p for x in r] for r in a]
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return nc - rank


def test_nullspace_mod_eliminates_over_z_mod_m():
    # matrices up to 8 x 7 with entries below m: integer Smith forms of
    # these blow up, the elimination over Z/m keeps every entry below m
    rng = random.Random(11)
    checked = 0
    for _ in range(300):
        nr, nc = rng.randint(1, 8), rng.randint(1, 7)
        m = rng.choice([3, 5, 9, 15, 21, 25, 27, 31, 45, 63, 85, 255, 1023])
        a = [[rng.randrange(m) for _ in range(nc)] for _ in range(nr)]
        gens = nullspace_mod(a, m, nc)
        # as few generators as the solution group needs, which is what
        # metabelian_quotient_homs compares against its cap
        assert len(gens) == max(
            corank_mod(a, p, nc) for p in sympy.primefactors(m)
        )
        if m ** nc <= 20000:
            assert span_mod(gens, m, nc) == brute_nullspace(a, m, nc)
            checked += 1
    assert checked > 100


# -------------------------------------------------- the sparse Smith kernel


def transpose(rows, ncols):
    dense = [
        [r.get(j, 0) for j in range(ncols)] if isinstance(r, dict) else list(r)
        for r in rows
    ]
    return [list(col) for col in zip(*dense)] if dense else [[]] * ncols


def awkward_matrix(rng, nr, nc):
    """Entries up to +-9 with zero rows, zero columns, repeated rows and
    integer combinations of earlier rows mixed in."""
    zero_cols = {j for j in range(nc) if rng.random() < 0.15}
    rows = []
    for _ in range(nr):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(list(rng.choice(rows)))
        elif len(rows) >= 2 and pick < 0.3:
            a, b = rng.sample(rows, 2)
            x, y = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([x * u + y * v for u, v in zip(a, b)])
        elif pick < 0.4:
            rows.append([0] * nc)
        else:
            rows.append([
                0 if j in zero_cols or rng.random() < 0.4 else rng.randint(-9, 9)
                for j in range(nc)
            ])
    return rows


def as_dict_rows(rng, rows):
    # sparse dicts, now and then keeping an explicit zero
    return [
        {j: v for j, v in enumerate(r) if v or rng.random() < 0.2} for r in rows
    ]


@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
def test_sparse_invariants_vs_sympy_on_awkward_matrices(shape):
    rng = random.Random(f"snf:{shape}")
    for _ in range(80):
        k = rng.randint(0, 7)
        extra = rng.randint(1, 5)
        nr, nc = {"tall": (k + extra, k), "wide": (k, k + extra),
                  "square": (k, k)}[shape]
        dense = awkward_matrix(rng, nr, nc)
        rows = as_dict_rows(rng, dense) if rng.random() < 0.5 else dense
        expected = sympy_divisors(dense, nc)
        got = sparse_invariants(rows, nc)
        assert got == (len(expected), [v for v in expected if v > 1]), dense
        assert sparse_invariants(transpose(rows, nc), nr) == got, dense


def test_sparse_invariants_of_a_matrix_and_its_transpose_agree():
    # P A Q = D gives Q^T A^T P^T = D^T: same rank, same divisors
    rng = random.Random(1957)
    for _ in range(300):
        nr, nc = rng.randint(0, 12), rng.randint(1, 12)
        rows = random_sparse_rows(rng, nr, nc)
        got = sparse_invariants(rows, nc)
        assert sparse_invariants(transpose(rows, nc), nr) == got


def test_non_unit_pivots_take_euclid_steps_and_column_operations():
    # no entry is a unit: the pivots reach their gcds by Euclid steps on
    # rows, and by column operations where the pivot row keeps a remainder
    cases = [
        ([[6, 4], [4, 6]], (2, [2, 10])),
        ([[2, 3], [4, 5]], (2, [2])),
        ([[4], [6]], (1, [2])),
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], (3, [2, 6, 12])),
    ]
    for rows, want in cases:
        nc = len(rows[0])
        assert sparse_invariants(rows, nc) == want
        assert sparse_invariants(transpose(rows, nc), len(rows)) == want
        assert sparse_invariants([dict(enumerate(r)) for r in rows], nc) == want


# (rows, columns, nonzeros, (rank, divisors)) of every matrix the cover
# oracle reduces for 9_46, in order: for each orbit representative the
# cover relators, then the twisted Jacobian's regular blocks
ORACLE_BLOCKS_946 = {
    (3, 7): [
        (12, 7, 46, (6, [7, 7])), (12, 9, 60, (6, [7, 7])),
        (84, 43, 586, (42, [7, 7])), (84, 63, 840, (42, [7, 7])),
    ],
    (4, 15): [
        (16, 9, 59, (8, [15, 15])), (16, 12, 80, (8, [15, 15])),
        (48, 25, 279, (24, [15, 15])), (48, 36, 408, (24, [15, 15])),
        (240, 121, 1674, (120, [15, 15])), (240, 180, 2460, (120, [15, 15])),
        (240, 121, 2164, (120, [2, 2, 2, 2, 2, 2, 10, 90])),
        (240, 180, 3240, (120, [2, 2, 2, 2, 2, 2, 10, 90])),
        (240, 121, 2172, (120, [5, 45])), (240, 180, 3240, (120, [5, 45])),
        (80, 41, 574, (40, [15, 15])), (80, 60, 820, (40, [15, 15])),
        (240, 121, 2156, (120, [15, 15])), (240, 180, 3240, (120, [15, 15])),
        (48, 25, 418, (24, [2, 2, 2, 2, 2, 2, 10, 90])),
        (48, 36, 600, (24, [2, 2, 2, 2, 2, 2, 10, 90])),
        (48, 25, 354, (24, [15, 15])), (48, 36, 492, (24, [15, 15])),
        (48, 25, 422, (24, [5, 45])), (48, 36, 612, (24, [5, 45])),
    ],
}


@pytest.mark.parametrize("n,m", sorted(ORACLE_BLOCKS_946))
def test_sparse_invariants_pinned_oracle_blocks(monkeypatch, n, m):
    import dslice.twisted as twisted
    from dslice.corpus import bundled_diagram
    from dslice.diagrams import zero_surgery
    from dslice.groups import metabelian_quotient_homs, restrict_images

    plain = zero_surgery(bundled_diagram("946"), 0)
    target, homs = metabelian_quotient_homs(plain, n, m)
    simplified = plain.simplified
    blocks = []

    def recording(rows, ncols):
        blocks.append((rows, ncols))
        return abelian_invariants(rows, ncols)

    monkeypatch.setattr(twisted, "abelian_invariants", recording)
    restricted = (restrict_images(simplified, h) for h in homs)
    for _, _, agree in twisted.crowell_compares(simplified[0], restricted, target):
        assert agree
    got = [
        (len(rows), ncols, sum(len(r) for r in rows), sparse_invariants(rows, ncols))
        for rows, ncols in blocks
    ]
    assert got == ORACLE_BLOCKS_946[(n, m)]
    for (rows, ncols), (nr, *_, want) in zip(blocks, got):
        assert sparse_invariants(transpose(rows, ncols), nr) == want
