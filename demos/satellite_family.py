"""Transport the base certificate through infections, then through the
two-layer family, and contrast with the curated satellite that is doubly
slice for other reasons but fails the algebraic criterion.

Run from the repository root:  python3 demos/satellite_family.py
"""

from dslice import (
    certify_doubly_slice,
    certify_satellite,
    default_registry,
    family_946,
    resolve_hash,
)
from dslice.certify import replay_certificate
from dslice.corpus import bundled_document
from dslice.documents import diagram_from_document, marked_presentation


def show(label, cert):
    d = cert.as_dict()
    ok = replay_certificate(d, resolve_hash, registry=default_registry())
    print(f"{label}: {d['conclusion']}  (replay {ok})")
    for line in d["hypotheses"]:
        print(f"    - {line}")


def main():
    registry = default_registry()
    diagram, plain, name = marked_presentation(bundled_document("946"))
    base = certify_doubly_slice(diagram, name=name, registry=registry)
    print(f"base pattern {name}: {base.conclusion}\n")

    # one infection, quantified over every companion knot
    show("satellite along eta1, any companion",
         certify_satellite(base, plain, "eta1", None, companion_kind="any"))
    print()

    # a concrete companion works the same way
    trefoil, _ = diagram_from_document(bundled_document("trefoil"))
    show("satellite along eta2, trefoil companion",
         certify_satellite(base, plain, "eta2", trefoil,
                           companion_name="trefoil"))
    print()

    # the full family: two doubled slots, two arbitrary slots
    show("family, all slots symbolic", family_946(registry=registry))
    print()
    show("family, concrete inner companions",
         family_946(k1=trefoil, k2=trefoil, registry=registry,
                    names=("", "", "trefoil", "trefoil")))
    print()

    # infecting along both homology-carrying curves with copies of the
    # pattern itself produces the curated counterexample: doubly slice,
    # but the splitting criterion fails on it
    from dslice.certify import certify_family
    from dslice.diagrams import diagram_hash

    curated = certify_family(
        plain,
        diagram_hash(diagram),
        base,
        [{"curve": "gamma1", "companion": diagram, "name": name, "kind": "concrete"},
         {"curve": "gamma2", "companion": diagram, "name": name, "kind": "concrete"}],
        registry=registry,
        pattern_name=name,
    )
    show("pattern infected along gamma1, gamma2 by itself", curated)


if __name__ == "__main__":
    main()
