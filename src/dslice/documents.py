"""Reading and writing knot, link, and satellite documents.

A diagram document is a JSON object::

    {
      "name": "9_46",                    # optional display name
      "pd": [[11, 1, 12, 18], ...],      # crossings, 1-based edge labels
      "signs": [1, -1, ...],             # optional, else inferred
      "components": [[1, 2, ...], ...],  # optional, cross-checked
      "marks": {                         # optional
        "pattern": 0,                    # surgery component; only 0
        "curves": {"name": [[edge, sign], ...], ...}
      }
    }

Each crossing lists the four edges counterclockwise starting from the
incoming under-edge.  For a positive crossing the over-strand runs from
the fourth listed edge to the second; for a negative crossing it runs
from the second to the fourth.  Worked example: in the trefoil document
``[1, 4, 2, 5]`` the under-strand enters on edge 1 and leaves on edge 2
while the over-strand runs 5 -> 4, which makes the crossing positive.

A satellite document describes infections of a pattern::

    {
      "name": "r-rr",
      "pattern": {"bundled": "946"} | <diagram document>,
      "infections": [
        {"curve": "gamma1",
         "companion": {"bundled": "946"} | <diagram document>
                      | "any" | "doubled",
         "name": "9_46"},
        ...
      ]
    }

``"any"`` leaves the companion slot universally quantified; ``"doubled"``
marks a symbolic doubled companion (trivial module order by
construction).
"""

from __future__ import annotations

import json

from .diagrams import Diagram, attach_curve_words, zero_surgery
from .errors import MalformedInput

__all__ = [
    "COMPANION_TOKENS",
    "load_document",
    "dump_document",
    "validate_diagram_document",
    "validate_satellite_document",
    "document_kind",
    "diagram_from_document",
    "check_pattern_mark",
    "marked_presentation",
]


# Each companion token and the companion kind it names.  ``wh-symbolic``
# is an alias the satellite command's --companion flag accepts; a
# satellite document spells the kind itself.
COMPANION_TOKENS = {"any": "any", "doubled": "doubled", "wh-symbolic": "doubled"}


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MalformedInput(f"cannot read document: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedInput("document must be a JSON object")
    return doc


def dump_document(doc: dict, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True))
        fh.write("\n")


def document_kind(doc: dict) -> str:
    if "pd" in doc:
        return "diagram"
    if "pattern" in doc and "infections" in doc:
        return "satellite"
    raise MalformedInput("document is neither a diagram nor a satellite")


def _is_label(x) -> bool:
    """A 1-based edge label: an integer, and not a JSON boolean."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _is_sign(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x in (1, -1)


def _labels(row) -> bool:
    return isinstance(row, (list, tuple)) and all(_is_label(x) for x in row)


def validate_diagram_document(doc: dict) -> None:
    pd = doc.get("pd")
    if not isinstance(pd, list) or not pd:
        raise MalformedInput("diagram document needs a nonempty 'pd' list")
    for row in pd:
        if not _labels(row) or len(row) != 4:
            raise MalformedInput(
                "each crossing must list four 1-based edge labels"
            )
    signs = doc.get("signs")
    if signs is not None and (
        not isinstance(signs, list)
        or len(signs) != len(pd)
        or not all(_is_sign(s) for s in signs)
    ):
        raise MalformedInput("signs must be one of +1/-1 per crossing")
    comps = doc.get("components")
    if comps is not None and (
        not isinstance(comps, list) or not all(_labels(c) for c in comps)
    ):
        raise MalformedInput("components must be lists of edge labels")
    marks = doc.get("marks", {})
    if marks and not isinstance(marks, dict):
        raise MalformedInput("marks must be an object")
    curves = marks.get("curves", {}) if marks else {}
    if not isinstance(curves, dict):
        raise MalformedInput("marks.curves must be an object")
    for name, letters in curves.items():
        if not isinstance(letters, list) or not letters:
            raise MalformedInput(f"curve {name!r} must be a nonempty list")
        for pair in letters:
            if (
                not isinstance(pair, (list, tuple))
                or len(pair) != 2
                or not _is_label(pair[0])
                or not _is_sign(pair[1])
            ):
                raise MalformedInput(
                    f"curve {name!r} entries must be [edge, sign] pairs"
                )


def validate_satellite_document(doc: dict) -> None:
    if not isinstance(doc.get("pattern"), dict):
        raise MalformedInput(
            "satellite document needs a 'pattern' object"
        )
    infections = doc.get("infections")
    if not isinstance(infections, list) or not infections:
        raise MalformedInput(
            "satellite document needs a nonempty 'infections' list"
        )
    for item in infections:
        if not isinstance(item, dict) or not isinstance(item.get("curve"), str):
            raise MalformedInput("each infection needs a 'curve' name")
        companion = item.get("companion")
        if isinstance(companion, str):
            if COMPANION_TOKENS.get(companion) != companion:
                raise MalformedInput(
                    "companion tokens are 'any' or 'doubled'"
                )
        elif not isinstance(companion, dict):
            raise MalformedInput(
                "companion must be a document, a bundled reference,"
                " 'any', or 'doubled'"
            )


def _resolve_diagram_ref(ref: dict):
    """A diagram document or a {"bundled": name} reference."""
    if "bundled" in ref:
        from .corpus import bundled_document

        name = ref["bundled"]
        doc = bundled_document(name) if isinstance(name, str) else None
        if doc is None:
            raise MalformedInput(f"no bundled document {name!r}")
        return doc
    return ref


def diagram_from_document(doc: dict):
    """Parse and validate, returning (Diagram, display name)."""
    doc = _resolve_diagram_ref(doc)
    validate_diagram_document(doc)
    signs = doc.get("signs")
    diagram = Diagram(
        [tuple(row) for row in doc["pd"]],
        signs=list(signs) if signs is not None else None,
    )
    comps = doc.get("components")
    if comps is not None:
        got = [sorted(c) for c in diagram.components]
        want = sorted(sorted(c) for c in comps)
        if sorted(got) != want:
            raise MalformedInput("components do not match the crossing data")
    return diagram, doc.get("name", "")


def check_pattern_mark(doc: dict) -> None:
    """Refuse a ``marks.pattern`` other than 0: surgery is always done on
    component 0."""
    marks = doc.get("marks", {}) or {}
    if marks.get("pattern", 0) != 0:
        raise MalformedInput(f"marks.pattern must be 0, not {marks['pattern']!r}")


def marked_presentation(doc: dict):
    """Diagram plus zero-surgery presentation with marked curves attached."""
    doc = _resolve_diagram_ref(doc)
    diagram, name = diagram_from_document(doc)
    check_pattern_mark(doc)
    plain = zero_surgery(diagram, 0)
    curves = (doc.get("marks", {}) or {}).get("curves", {})
    if curves:
        plain = attach_curve_words(
            plain,
            {k: [tuple(p) for p in v] for k, v in curves.items()},
        )
    return diagram, plain, name
