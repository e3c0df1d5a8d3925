"""Walk the full pipeline on the bundled doubly slice pattern.

Run from the repository root:  python3 demos/certify_pattern.py
"""

from dslice import (
    alexander_polynomial,
    certify_doubly_slice,
    default_registry,
    resolve_hash,
)
from dslice.corpus import bundled_document
from dslice.certify import replay_certificate
from dslice.documents import marked_presentation


def main():
    diagram, plain, name = marked_presentation(bundled_document("946"))
    print(f"pattern: {name}  ({len(diagram.crossings)} crossings)")

    delta = alexander_polynomial(plain.group, plain.meridian)
    print(f"alexander polynomial: {delta}")

    # the surgery presentation computes its module and splitting once, on
    # its Tietze-simplified presentation: the witnesses are coordinates
    # over the small generators other than the meridian
    report = plain.splitting
    print(f"module splits: {report.verdict}")
    print(f"  witness 1: ({', '.join(str(p) for p in report.v1)})")
    print(f"  witness 2: ({', '.join(str(p) for p in report.v2)})")

    cert = certify_doubly_slice(diagram, name=name, registry=default_registry())
    print(f"conclusion: {cert.conclusion}")
    for tag in ("P1", "P2"):
        print(f"  summand {tag}: {cert.verdicts[tag]['status']}")

    ok = replay_certificate(cert.as_dict(), resolve_hash, registry=default_registry())
    print(f"independent replay: {ok}")


if __name__ == "__main__":
    main()
