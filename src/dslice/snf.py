"""Sparse integer Smith normal form, plus nullspaces mod m.

``nullspace_mod`` is the one dense elimination over Z/m; a rank mod a
prime p is the column count less the number of generators it returns.

The sparse routine is tuned for the matrices this package actually meets:
abelianised Reidemeister-Schreier relators and regular-representation
blocks, which are large (hundreds of rows) but overwhelmingly filled with
0 and +-1.  Rows are kept in buckets by their current number of nonzeros;
each row operation moves the row it changes to its new bucket.  A pivot
is chosen from the lowest nonempty buckets upward, among the entries of
the two shortest rows (more if those hold no unit): smallest |value|
first, then least Markowitz fill (row count - 1) * (column count - 1).
So a pivot choice never rescans the whole matrix, and since a unit is
taken whenever one is left, the coefficient explosion of naive SNF rarely
gets a chance to start.  The pivot order changes the work, never the
invariants.

Everything returns plain ints; no floats anywhere.
"""

from __future__ import annotations

from math import gcd

__all__ = [
    "sparse_invariants",
    "abelian_invariants",
    "nullspace_mod",
    "normalize_divisor_chain",
]

# rows whose entries compete for a pivot once one of them holds a unit
_PIVOT_ROWS = 2


def sparse_invariants(rows, ncols: int):
    """Diagonalise a sparse integer matrix by row/column operations.

    Args:
        rows: iterable of ``{col: value}`` dicts (zero values allowed).
        ncols: number of columns of the ambient matrix.

    Returns:
        ``(rank, divisors)`` where ``divisors`` are the nontrivial (> 1)
        elementary divisors in a normalized divisibility chain.  The
        cokernel of the matrix is ``Z^(ncols - rank) + sum Z/d``.
    """
    mat = {}
    colidx: dict = {}
    buckets: dict = {}  # nonzero count -> set of rows with that count
    for i, r in enumerate(rows):
        if not isinstance(r, dict):
            r = {j: v for j, v in enumerate(r)}
        clean = {j: v for j, v in r.items() if v}
        if clean:
            mat[i] = clean
            buckets.setdefault(len(clean), set()).add(i)
            for j in clean:
                colidx.setdefault(j, set()).add(i)

    def rebucket(i, old, new):
        # move row i from the bucket of count old to that of count new
        if old:
            b = buckets[old]
            b.discard(i)
            if not b:
                del buckets[old]
        if new:
            buckets.setdefault(new, set()).add(i)

    def unlink(i, j):
        # entry (i, j) has become zero
        s = colidx[j]
        s.discard(i)
        if not s:
            del colidx[j]

    def row_op(dst, src, q):
        # row dst -= q * row src
        row = mat[dst]
        old = len(row)
        for j, v in mat[src].items():
            w = row.get(j, 0) - q * v
            if w:
                if j not in row:
                    colidx.setdefault(j, set()).add(dst)
                row[j] = w
            else:
                del row[j]
                unlink(dst, j)
        rebucket(dst, old, len(row))
        if not row:
            del mat[dst]

    def choose_pivot():
        # smallest |value|, then least fill, over the shortest rows
        best = None
        seen = 0
        for count in sorted(buckets):
            fill = count - 1
            for i in buckets[count]:
                for j, v in mat[i].items():
                    key = (abs(v), fill * (len(colidx[j]) - 1))
                    if best is None or key < best[0]:
                        best = (key, i, j)
                        if key == (1, 0):
                            return i, j
                seen += 1
                if seen >= _PIVOT_ROWS and best[0][0] == 1:
                    return best[1], best[2]
        return best[1], best[2]

    divisors = []
    while mat:
        pi, pj = choose_pivot()

        while True:
            # clear the pivot column with row operations
            pv = mat[pi][pj]
            moved = False
            for i in list(colidx[pj]):
                if i == pi:
                    continue
                q = mat[i][pj] // pv  # floor division: |remainder| < |pv|
                if q:
                    row_op(i, pi, q)
                if mat.get(i, {}).get(pj):
                    # smaller remainder becomes the new pivot (Euclid step)
                    pi = i
                    moved = True
                    break
            if moved:
                continue
            # column is clear except the pivot; clear the pivot row with
            # column operations, which now touch only row pi
            row = mat[pi]
            old = len(row)
            for j, v in list(row.items()):
                if j == pj:
                    continue
                r = v % pv
                if r:
                    # switch pivot to the smaller entry in the same row
                    row[j] = r
                    pj = j
                    moved = True
                    break
                del row[j]
                unlink(pi, j)
            rebucket(pi, old, len(row))
            if not moved:
                break

        row = mat.pop(pi)
        divisors.append(abs(row[pj]))
        rebucket(pi, len(row), 0)
        for j in row:
            unlink(pi, j)

    rank = len(divisors)
    chain = normalize_divisor_chain([d for d in divisors if d != 1])
    return rank, chain


def normalize_divisor_chain(ds):
    """Rewrite a multiset of moduli so each divides the next."""
    ds = [d for d in ds if d not in (0, 1)]
    changed = True
    while changed:
        changed = False
        for i in range(len(ds)):
            for j in range(i + 1, len(ds)):
                a, b = ds[i], ds[j]
                g = gcd(a, b)
                l = a * b // g
                if (g, l) != (a, b) and (g, l) != (b, a):
                    ds[i], ds[j] = g, l
                    changed = True
        ds = [d for d in ds if d != 1]
    return sorted(ds)


def abelian_invariants(rows, ncols: int):
    """Cokernel invariants ``(free_rank, torsion_chain)`` of an integer matrix."""
    rank, torsion = sparse_invariants(rows, ncols)
    return ncols - rank, torsion


def nullspace_mod(a, m: int, ncols: int | None = None):
    """Generators of ``{x in (Z/m)^nc : a @ x = 0 mod m}``.

    Diagonalises ``a`` over Z/m, reducing every entry and the column
    transform t mod m after each operation; x = t z is a solution exactly
    when d_j z_j = 0 mod m for each diagonal entry d_j.  Each pivot's gcd
    with m divides every entry left below and right of it, so there are
    as few generators as the solutions need: the maximum over primes
    p | m of (nc - rank of a mod p).  ``ncols`` is required when ``a``
    has no rows.
    """
    nr = len(a)
    nc = len(a[0]) if nr else ncols
    if nc is None:
        raise ValueError("ncols required for an empty matrix")
    if nc == 0 or m == 1:
        return []
    w = [[x % m for x in row] for row in a]
    t = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def row_op(i, k, q):
        w[i] = [(x - q * y) % m for x, y in zip(w[i], w[k])]

    def col_op(j, k, q):
        for row in (*w, *t):
            row[j] = (row[j] - q * row[k]) % m

    def swap_cols(j, k):
        for row in (*w, *t):
            row[j], row[k] = row[k], row[j]

    for p in range(min(nr, nc)):
        live = [
            (gcd(w[i][j], m), w[i][j], i, j)
            for i in range(p, nr) for j in range(p, nc) if w[i][j]
        ]
        if not live:
            break
        _, _, i, j = min(live)
        w[p], w[i] = w[i], w[p]
        swap_cols(p, j)
        while True:
            # Euclid steps: a nonzero remainder becomes the smaller pivot
            done = True
            for i in range(p + 1, nr):
                if w[i][p]:
                    row_op(i, p, w[i][p] // w[p][p])
                    if w[i][p]:
                        w[p], w[i] = w[i], w[p]
                        done = False
            for j in range(p + 1, nc):
                if w[p][j]:
                    col_op(j, p, w[p][j] // w[p][p])
                    if w[p][j]:
                        swap_cols(p, j)
                        done = False
            if done:
                g = gcd(w[p][p], m)
                bad = next((i for i in range(p + 1, nr)
                            if any(x % g for x in w[i][p + 1:])), None)
                if bad is None:
                    break
                # g does not divide row bad: adding it to the pivot row
                # lets the next Euclid steps take the pivot's gcd down
                row_op(p, bad, -1)
    gens = []
    for j in range(nc):
        d = w[j][j] if j < min(nr, nc) else 0
        g = gcd(d, m)  # d_j z_j = 0 mod m exactly when (m / g) | z_j
        if g > 1:
            gens.append(tuple(t[i][j] * (m // g) % m for i in range(nc)))
    return gens
