"""Sparse integer Smith normal form, plus nullspaces mod m.

``nullspace_mod`` is the one dense elimination over Z/m; a rank mod a
prime p is the column count less the number of generators it returns.

``sparse_invariants`` is the one integer Smith routine.  It is tuned for
the matrices this package actually meets: abelianised
Reidemeister-Schreier relators and regular-representation blocks, which
are tall (more relator rows than generator columns), large (hundreds of
rows) and overwhelmingly filled with 0 and +-1.

* Orientation.  When the matrix has more nonzero rows than nonzero
  columns, its transpose is eliminated instead.  P A Q = D with P, Q
  unimodular gives Q^T A^T P^T = D^T, so A and A^T have the same rank
  and the same elementary divisors; only the number of rows each pivot
  has to clear changes.
* Pivots.  Rows are kept in buckets by their current number of
  nonzeros, and a row changes bucket only when its length changes.  A
  pivot is chosen from the lowest nonempty buckets upward, among the
  entries of the two shortest rows (more if those hold no unit):
  smallest |value| first, then least Markowitz fill (row count - 1) *
  (column count - 1).  So a pivot choice never rescans the whole
  matrix, and since a unit is taken whenever one is left, the
  coefficient explosion of naive SNF rarely gets a chance to start.
* Unit pivots.  A pivot +-1 clears its column in one sweep: each other
  row of the column loses (entry * pivot) times the pivot row, which
  leaves no remainder.  The pivot row then leaves the matrix with
  divisor 1, since column operations would clear its other entries
  without touching any other row.
* Other pivots keep the Euclid steps: row operations by floor quotient,
  a nonzero remainder becoming the new, smaller pivot, and then column
  operations on the pivot row, where a nonzero remainder again becomes
  the pivot.

Each row operation reads every entry it updates with one lookup.  The
pivot order changes the work, never the invariants.

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
        rows: iterable of ``{col: value}`` dicts or of dense lists (zero
            values allowed).
        ncols: number of columns of the ambient matrix; a nonzero entry
            outside ``range(ncols)`` raises ValueError.

    Returns:
        ``(rank, divisors)`` where ``divisors`` are the nontrivial (> 1)
        elementary divisors in a normalized divisibility chain.  The
        cokernel of the matrix is ``Z^(ncols - rank) + sum Z/d``.
    """
    mat = {}
    cols: dict = {}
    for i, r in enumerate(rows):
        items = r.items() if isinstance(r, dict) else enumerate(r)
        clean = {j: v for j, v in items if v}
        if clean:
            mat[i] = clean
            for j, v in clean.items():
                cols.setdefault(j, {})[i] = v
    if cols and (min(cols) < 0 or max(cols) >= ncols):
        raise ValueError(f"a nonzero entry lies outside {ncols} columns")
    if len(mat) > len(cols):
        mat, cols = cols, mat  # eliminate the transpose, which has fewer rows
    colidx = {j: set(c) for j, c in cols.items()}
    buckets: dict = {}  # nonzero count -> set of rows with that count
    for i, row in mat.items():
        buckets.setdefault(len(row), set()).add(i)

    def move(i, old, new):
        # row i went from old to new nonzeros; an empty row leaves mat
        b = buckets[old]
        b.discard(i)
        if not b:
            del buckets[old]
        if new:
            buckets.setdefault(new, set()).add(i)
        else:
            del mat[i]

    def choose_pivot():
        # smallest |value|, then least fill, over the shortest rows
        best = None
        seen = 0
        for count in sorted(buckets):
            fill = count - 1
            for i in buckets[count]:
                for j, v in mat[i].items():
                    a = v if v > 0 else -v
                    if best is not None and a > best[0]:
                        continue
                    f = fill * (len(colidx[j]) - 1)
                    if best is None or a < best[0] or f < best[1]:
                        best = (a, f, i, j)
                        if a == 1 and not f:
                            return i, j
                seen += 1
                if seen >= _PIVOT_ROWS and best[0] == 1:
                    return best[2], best[3]
        return best[2], best[3]

    divisors = []
    while mat:
        pi, pj = choose_pivot()
        while True:
            # clear the pivot column with row operations
            prow = mat[pi]
            pv = prow[pj]
            unit = pv == 1 or pv == -1
            items = prow.items()
            for i in list(colidx[pj]):
                if i == pi:
                    continue
                row = mat[i]
                q = row[pj] // pv  # exact for a unit, else |remainder| < |pv|
                if q:
                    # row i -= q * row pi, one lookup per entry
                    old = len(row)
                    get = row.get
                    for j, v in items:
                        w = get(j)
                        if w is None:
                            row[j] = -q * v
                            colidx[j].add(i)
                        else:
                            w -= q * v
                            if w:
                                row[j] = w
                            else:
                                del row[j]
                                colidx[j].discard(i)
                    if len(row) != old:
                        move(i, old, len(row))
                if not unit and pj in row:
                    # smaller remainder becomes the new pivot (Euclid step)
                    pi = i
                    break
            else:
                if unit:
                    break
                # the column is clear except the pivot; column operations
                # clear the pivot row and touch no other row
                old = len(prow)
                switch = None
                for j, v in list(prow.items()):
                    if j != pj:
                        r = v % pv
                        if r:
                            # the smaller entry in the same row becomes the pivot
                            prow[j] = r
                            switch = j
                            break
                        del prow[j]
                        colidx[j].discard(pi)
                if len(prow) != old:
                    move(pi, old, len(prow))
                if switch is None:
                    break
                pj = switch
        # the pivot row leaves: for a unit, column operations would clear
        # its other entries without touching any other row
        divisors.append(pv)
        move(pi, len(prow), 0)
        for j in prow:
            colidx[j].discard(pi)

    return len(divisors), normalize_divisor_chain([abs(d) for d in divisors])


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
