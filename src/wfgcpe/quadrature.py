"""Singularity-aware adaptive quadrature used by every analytic evaluation.

The engine wraps QUADPACK's globally adaptive Gauss-Kronrod rule (via
``scipy.integrate.quad``), whose nested 10/21-point pairs supply the error
bracket, and adds the endpoint treatment this problem domain needs:

* integrands of the form ``u (-ln u)^gamma`` have an algebraic-log
  singularity wherever the CDF approaches 0 or 1; QUADPACK's epsilon
  extrapolation resolves these, and one guard per node maps a non-finite
  value (endpoint underflow, or an overflowing Jacobian) to the
  continuous-limit value 0;
* right-infinite domains are mapped to (0, 1) through a declared, explicit
  variable transform rather than QUADPACK's internal one, so that two
  different transforms can be cross-checked against each other.

Under ``full_output`` scipy returns QUADPACK's message and does not warn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import scipy.integrate

from .errors import DomainError, NonConvergence, require_positive

DEFAULT_ABS_TOL = 1e-10
DEFAULT_REL_TOL = 1e-9
#: Subdivision budget before the engine gives up with ``NonConvergence``.
MAX_SUBDIVISIONS = 2 ** 16


@dataclass(frozen=True)
class Integrand:
    """A scalar function on an open interval.

    ``eval`` must be finite on the open interior; the endpoints themselves
    are never evaluated by the engine's transforms. ``hi`` may be ``inf``.
    """

    eval: Callable[[float], float]
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"require lo < hi, got ({self.lo}, {self.hi})")
        if self.lo < 0:
            raise DomainError(f"require lo >= 0, got {self.lo}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    subdivisions: int
    #: Integrand evaluations, QUADPACK's ``neval``.
    evaluations: int


def integrate(
    f: Integrand,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    tail_transform: str = "inverse",
) -> QuadratureResult:
    """Adaptively integrate ``f`` over its declared open interval.

    For ``hi = inf`` the declared ``tail_transform`` maps the domain onto
    (0, 1) first:

    * ``"inverse"``: ``t = 1 / (1 + x - lo)``, preserving smooth
      exponential tails;
    * ``"exp"``: ``x = lo - ln(1 - t)``.

    Raises ``NonConvergence`` if the subdivision budget is exhausted with
    the error estimate above ``max(abs_tol, rel_tol * |value|)``, or if
    the estimate is negative or not finite: QUADPACK's estimate is a
    heuristic, and a negative one has been seen on divergent integrals.
    """
    require_positive(abs_tol=abs_tol, rel_tol=rel_tol)

    ev = f.eval
    if math.isinf(f.hi):
        lo = f.lo
        if tail_transform == "inverse":
            # x = lo + (1 - t)/t, dx = dt / t^2
            def g(t):
                y = ev(lo + (1.0 - t) / t) / (t * t)
                return y if math.isfinite(y) else 0.0
        elif tail_transform == "exp":
            # x = lo - ln(1 - t), dx = dt / (1 - t)
            def g(t):
                y = ev(lo - math.log1p(-t)) / (1.0 - t)
                return y if math.isfinite(y) else 0.0
        else:
            raise DomainError(f"unknown tail transform {tail_transform!r}")
        a, b = 0.0, 1.0
    else:
        def g(x):
            y = ev(x)
            return y if math.isfinite(y) else 0.0
        a, b = f.lo, f.hi

    out = scipy.integrate.quad(g, a, b, epsabs=abs_tol, epsrel=rel_tol,
                               limit=MAX_SUBDIVISIONS, full_output=True)
    value, abs_err, info = out[:3]
    subdivisions = int(info["last"])

    tol = max(abs_tol, rel_tol * abs(value))
    if not (math.isfinite(value) and 0.0 <= abs_err <= tol):
        raise NonConvergence(
            f"quadrature did not converge: value={value!r}, "
            f"error={abs_err!r} not in [0, {tol!r}] "
            f"after {subdivisions} subdivisions",
            value=value, abs_error=abs_err,
        )
    return QuadratureResult(value, abs_err, subdivisions, int(info["neval"]))

