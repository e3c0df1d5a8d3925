"""Exact double-slice certification for knots given by planar diagrams.

The pipeline starts from a PD code, forms the zero-surgery group, and
tests whether the Alexander module splits as Lambda/(t-2) + Lambda/(2t-1).
On certified splittings it gives a per-summand verdict on the lifting
condition over the group ring of the metabelian group BS(1,2), from
curated closed-form rules or as undetermined, and assembles a
replayable certificate; satellite and family constructions transport
certified verdicts along marked curves.
"""

from .certify import (
    CERTIFIED,
    INCONCLUSIVE,
    NOT_APPLICABLE,
    UNDECIDED,
    Certificate,
    certify_doubly_slice,
    certify_family,
    certify_satellite,
    ext_condition,
    family_946,
    replay_certificate,
)
from .corpus import (
    bundled_diagram,
    bundled_document,
    bundled_names,
    bundled_pattern,
    default_registry,
    resolve_hash,
)
from .diagrams import Diagram, diagram_hash, zero_surgery
from .documents import (
    diagram_from_document,
    document_kind,
    dump_document,
    load_document,
    marked_presentation,
)
from .errors import DsliceError
from .modules import (
    alexander_module,
    alexander_polynomial,
    detect_splitting,
)

__version__ = "0.1.0"

__all__ = [
    "CERTIFIED",
    "INCONCLUSIVE",
    "NOT_APPLICABLE",
    "UNDECIDED",
    "Certificate",
    "Diagram",
    "DsliceError",
    "alexander_module",
    "alexander_polynomial",
    "bundled_diagram",
    "bundled_document",
    "bundled_names",
    "bundled_pattern",
    "certify_doubly_slice",
    "certify_family",
    "certify_satellite",
    "default_registry",
    "detect_splitting",
    "diagram_from_document",
    "diagram_hash",
    "document_kind",
    "dump_document",
    "ext_condition",
    "family_946",
    "load_document",
    "marked_presentation",
    "replay_certificate",
    "resolve_hash",
    "zero_surgery",
    "__version__",
]
