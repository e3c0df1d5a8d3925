"""Cross-check twisted invariants against covering-space homology.

Every map from a knot group onto a finite metabelian quotient gives two
independent computations of the same homology: push the Fox Jacobian
through the map and take integer invariants, or build the cover by
coset enumeration and abelianise it.  They must agree, always.  Both
are invariants of the group and the map, so ``cover_compares`` reads
each map on the Tietze-simplified presentation and runs both there.

Run from the repository root:  python3 demos/cover_oracle.py
"""

from dslice.corpus import bundled_document
from dslice.diagrams import zero_surgery
from dslice.documents import diagram_from_document
from dslice.twisted import cover_compares


def describe(free, torsion):
    parts = [f"Z^{free}"] if free else []
    parts += [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


def main():
    for name, n, m in (("trefoil", 2, 1), ("trefoil", 2, 3), ("946", 2, 3)):
        diagram, _ = diagram_from_document(bundled_document(name))
        plain = zero_surgery(diagram, 0)
        # each map is read on the kept generators of the simplified
        # presentation, whose Tietze isomorphism was checked once; maps with
        # equal coset actions share their cover Smith form; each twisted
        # matrix is reduced over the map's image subgroup; a map whose
        # images are an earlier map's moved by conjugation and a unit
        # scaling (k, q) -> (k, u*q) has that map's action and rows up to
        # the automorphism, so it reuses that map's result and builds nothing
        results = list(cover_compares(plain, n, m))
        print(f"{name}, quotient parameters ({n}, {m}): {len(results)} map(s)")
        for cover, twisted, agree in results[:6]:
            print(f"  cover {describe(*cover):18}"
                  f" twisted {describe(*twisted):22} agree {agree}")
        if len(results) > 6:
            agree = all(agree for _, _, agree in results[6:])
            print(f"  ... {len(results) - 6} more map(s), all agree: {agree}")
        print()


if __name__ == "__main__":
    main()
