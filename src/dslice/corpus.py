"""Bundled example documents and the curated verdict registry.

The package ships a small corpus of diagram documents plus one curated
subject: the 9-crossing pattern whose module splits as
Lambda/(t-2) + Lambda/(2t-1) and whose marked curves drive the
satellite constructions.  Curated rules are keyed by the canonical
diagram hash, never by the display name, so renaming a document can
never borrow another subject's verdicts.
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from .certify import RULE_BASE_EXT, RULE_FAMILY_FAILS, RULE_FAMILY_HOLDS
from .diagrams import diagram_hash

__all__ = [
    "bundled_names",
    "bundled_document",
    "bundled_diagram",
    "bundled_pattern",
    "default_registry",
    "resolve_hash",
]

_PATTERN = "946"
_GAMMA = ("gamma1", "gamma2")
_ETA = ("eta1", "eta2")


def _data_root():
    return resources.files("dslice") / "data"


@functools.lru_cache(maxsize=None)
def bundled_names() -> tuple:
    out = []
    for entry in _data_root().iterdir():
        if entry.name.endswith(".json"):
            out.append(entry.name[:-5])
    return tuple(sorted(out))


@functools.lru_cache(maxsize=None)
def bundled_document(name: str):
    if name not in bundled_names():
        return None
    text = (_data_root() / f"{name}.json").read_text()
    return json.loads(text)


def bundled_diagram(name: str):
    from .documents import diagram_from_document

    doc = bundled_document(name)
    if doc is None or "pd" not in doc:
        return None
    diagram, _ = diagram_from_document(doc)
    return diagram


def bundled_pattern(name: str = _PATTERN):
    """Diagram, marked zero-surgery presentation, and display name."""
    from .documents import marked_presentation

    doc = bundled_document(name)
    if doc is None:
        raise KeyError(f"no bundled document {name!r}")
    return marked_presentation(doc)


@functools.lru_cache(maxsize=None)
def default_registry() -> dict:
    """Curated verdicts for bundled subjects, keyed by diagram hash."""
    diagram = bundled_diagram(_PATTERN)
    if diagram is None:
        return {"ext": {}, "family": {}}
    h = diagram_hash(diagram)
    return {
        "ext": {
            h: {
                "P1": {"status": "holds", "rule": RULE_BASE_EXT},
                "P2": {"status": "holds", "rule": RULE_BASE_EXT},
            },
        },
        "family": {
            h: {
                "gamma": _GAMMA,
                "eta": _ETA,
                "fails_on": _GAMMA,
                "fails_rule": RULE_FAMILY_FAILS,
                "holds_rule": RULE_FAMILY_HOLDS,
            },
        },
    }


@functools.lru_cache(maxsize=None)
def _bundled_hashes() -> dict:
    """Canonical hash -> name of the first bundled diagram with that hash."""
    out: dict = {}
    for name in bundled_names():
        diagram = bundled_diagram(name)
        if diagram is not None:
            out.setdefault(diagram_hash(diagram), name)
    return out


def resolve_hash(h: str):
    """The bundled diagram document with the given canonical hash."""
    name = _bundled_hashes().get(h)
    return None if name is None else bundled_document(name)
