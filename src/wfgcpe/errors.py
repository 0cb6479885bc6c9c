"""Semantic exception hierarchy shared across the package, and the
finite-parameter checks every entry point applies."""

import math


class WfgcpeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WfgcpeError):
    """An argument lies outside the mathematical domain of the operation."""


class NonConvergence(WfgcpeError):
    """Numerical integration exhausted its budget with error above tolerance."""

    def __init__(self, message, value=None, abs_error=None):
        super().__init__(message)
        self.value = value
        self.abs_error = abs_error


class ConstraintError(WfgcpeError):
    """A closed form outside its convergence constraints, or an integral
    that the declared tail exponents show diverges (before quadrature)."""


class UnboundedSupport(WfgcpeError):
    """The operation requires a finite right support endpoint."""


class DegenerateNormalizer(WfgcpeError):
    """The weighted cumulative past entropy used as normalizer is zero, or
    so small that the normalized entropy overflows."""


class MonotonicityError(WfgcpeError):
    """A function required to be strictly increasing fails on a probe grid."""


class PreconditionUnmet(WfgcpeError):
    """A verifier's hypothesis (an ordering, a monotonicity) does not hold."""


class ParseError(WfgcpeError):
    """A data file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class ValidationError(WfgcpeError):
    """A parsed sample violates the sample invariants."""


class WeightAntiderivativeUnavailable(WfgcpeError):
    """No antiderivative is available or constructible for the weight."""


def require_positive(**named):
    """Raise ``DomainError`` unless every named value is finite and > 0."""
    for name, value in named.items():
        if not 0 < value < math.inf:
            raise DomainError(f"require finite {name} > 0, got {value}")


def require_nonnegative(**named):
    """Raise ``DomainError`` unless every named value is finite and >= 0."""
    for name, value in named.items():
        if not 0 <= value < math.inf:
            raise DomainError(f"require finite {name} >= 0, got {value}")
