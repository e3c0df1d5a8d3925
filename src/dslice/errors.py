"""Exception hierarchy shared by all dslice modules."""

__all__ = [
    "DsliceError",
    "MalformedInput",
    "InvalidDiagram",
    "MissingSigns",
    "NotAKnot",
    "MissingMark",
    "TargetMismatch",
    "RelatorViolation",
    "NotSurjective",
    "IncompatibleParameters",
    "HypothesisNotMet",
    "BudgetExceeded",
    "VerificationFailed",
]


class DsliceError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(DsliceError):
    """Input data does not conform to the documented format."""


class InvalidDiagram(MalformedInput):
    """A PD code violates a structural invariant (arc pairing, chains)."""


class MissingSigns(DsliceError):
    """Crossing signs are required but absent and not inferable."""


class NotAKnot(DsliceError):
    """An operation needs a single-component diagram."""


class MissingMark(DsliceError):
    """A required component mark (pattern / infection curve) is absent."""


class TargetMismatch(DsliceError):
    """A homomorphism or ring evaluation was used with the wrong target."""


class RelatorViolation(DsliceError):
    """A claimed homomorphism fails to kill a relator."""


class NotSurjective(DsliceError):
    """A quotient map that must be onto is not."""


class IncompatibleParameters(DsliceError):
    """Numeric parameters violate a precondition (e.g. 2**n != 1 mod m)."""


class HypothesisNotMet(DsliceError):
    """A certification step's mathematical hypothesis fails on the input."""


class NoSplitting(HypothesisNotMet):
    """A per-summand verdict was requested without a certified splitting."""


class BudgetExceeded(DsliceError):
    """A bounded search ran out of its configured budget."""


class VerificationFailed(DsliceError):
    """An exact re-check of a computed result failed: do not trust it."""
