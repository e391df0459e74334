"""Exception types shared across the package."""


class AlphaTraceError(Exception):
    """Base class for all package errors."""


class ParameterError(AlphaTraceError):
    """A family/spec parameter is out of its valid range."""


class HypergraphError(AlphaTraceError):
    """A hypergraph value violates its structural invariants."""


class TransformError(AlphaTraceError):
    """A transformation precondition does not hold."""


class OrderingError(AlphaTraceError):
    """Inputs cannot be compared (mismatched k or vertex count, bad alpha)."""


class UnsupportedError(AlphaTraceError):
    """The input lies outside a routine's domain: a closed form that is
    not available, or a canonical form of a hypergraph that is neither a
    connected hypertree nor a connected unicyclic hypergraph."""


class MethodDisagreement(AlphaTraceError):
    """Two evaluation routes produced different polynomials for the same
    moment.  Carries both results in ``context`` for a bug report."""

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}


class BudgetExceeded(AlphaTraceError):
    """An enumeration would exceed the configured budget.

    Carries a ``context`` dict describing how far the computation got.
    """

    def __init__(self, message: str, context: dict | None = None):
        super().__init__(message)
        self.context = context or {}
