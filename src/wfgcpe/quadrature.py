"""Singularity-aware quadrature used by every analytic evaluation.

A finite interval takes a fixed tanh-sinh rule (Takahasi & Mori, Publ.
RIMS 9, 1974), whose double exponential decay absorbs the algebraic-log
singularity of ``u (-ln u)^gamma`` wherever the CDF approaches 0 or 1.
A right-infinite domain, or a finite one where the rule does not settle
or a node raises, goes to QUADPACK (``scipy.integrate.quad``), whose QAGI
routine maps a right-infinite domain onto (0, 1) itself. One guard per
node maps a non-finite value (endpoint underflow) to its continuous-limit
value 0; under ``full_output`` scipy does not warn.
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
#: scipy sizes QUADPACK's work arrays by it on every run; the runs that
#: settle take at most a few dozen subdivisions.
MAX_SUBDIVISIONS = 2 ** 10


def _tanh_sinh_node(t: float) -> tuple:
    """``(delta, weight)`` at ``t > 0`` of the node ``x = 1 - delta`` of
    (-1, 1) and of ``-x``: ``delta = 1 - tanh(pi/2 sinh t) = 2e/(1 + e)``,
    ``e = exp(-pi sinh t)``, keeps the end distance to full precision."""
    e = math.exp(-math.pi * math.sinh(t))
    return 2.0 * e / (1.0 + e), 2.0 * math.pi * math.cosh(t) * e / (1 + e)**2


#: The nodes each level adds, for t in (0, 4] at step ``2**-level``.
_TANH_SINH = [[_tanh_sinh_node(j / 2 ** k)
               for j in range(1, 4 * 2 ** k + 1, 2 if k else 1)]
              for k in range(8)]
#: The first level whose change from the previous one may end the rule.
_TANH_SINH_MIN_LEVEL = 3


def _tanh_sinh(ev, a: float, b: float, abs_tol: float, rel_tol: float):
    """``(value, error, level, evaluations)`` of the tanh-sinh rule on
    (a, b); ``value`` is None if the levels do not settle or a node raises
    an arithmetic or value error. The error is the last level's change."""
    isfinite = math.isfinite
    c, d = 0.5 * (a + b), 0.5 * (b - a)
    n, prev, prev_err = 1, math.nan, math.inf
    try:
        y = ev(c)
        total = 0.5 * math.pi * y if isfinite(y) else 0.0
        for level, nodes in enumerate(_TANH_SINH):
            for delta, w in nodes:
                x = b - d * delta
                if x < b:
                    n += 1
                    y = ev(x)
                    if isfinite(y):
                        total += w * y
                x = a + d * delta
                if x > a:
                    n += 1
                    y = ev(x)
                    if isfinite(y):
                        total += w * y
            value = d * total / 2 ** level
            err = abs(value - prev)
            tol = 0.1 * max(abs_tol, rel_tol * abs(value))
            if level >= _TANH_SINH_MIN_LEVEL and err <= tol:
                return float(value), float(err), level, n
            if level > _TANH_SINH_MIN_LEVEL and err > 0.1 * prev_err:
                break  # not double exponential: the levels will not settle
            prev, prev_err = value, err
    except (ArithmeticError, ValueError):
        pass
    return None, None, None, n


@dataclass(frozen=True)
class Integrand:
    """A scalar function on an open interval.

    ``eval`` must be finite on the open interior; the endpoints themselves
    are never evaluated. ``hi`` may be ``inf``.
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
    """QUADPACK's error estimate and ``last`` where it ran, else the
    tanh-sinh rule's last change and level; ``evaluations`` counts every
    Python call of the integrand: tanh-sinh nodes plus QUADPACK's ``neval``."""

    value: float
    abs_error_estimate: float
    subdivisions: int
    evaluations: int


def integrate(
    f: Integrand,
    abs_tol: float = DEFAULT_ABS_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> QuadratureResult:
    """Integrate ``f`` over its declared open interval.

    A finite interval takes the tanh-sinh rule first, accepted from level
    3 on once a level moves the value by at most ``0.1 * max(abs_tol,
    rel_tol * |value|)``; if not, or once a level from 4 on shrinks that
    move less than tenfold (a kink), QUADPACK integrates the same
    integrand, and any error it raises is genuine. For ``hi = inf``
    QUADPACK's QAGI maps the tail onto (0, 1) itself.

    Raises ``NonConvergence`` if QUADPACK's subdivision budget is exhausted
    with the error estimate above ``max(abs_tol, rel_tol * |value|)``, if
    the estimate is negative or not finite (it is a heuristic, and a
    negative one has been seen on divergent integrals), or if the value is
    below minus that tolerance while no subinterval's value is negative:
    the extrapolated "limit" of a divergent integral of a nonnegative
    integrand, such as -1 for the integral of 1 over (0, inf).
    """
    require_positive(abs_tol=abs_tol, rel_tol=rel_tol)

    ev, a, b, n = f.eval, f.lo, f.hi, 0
    if math.isfinite(b):
        value, abs_err, level, n = _tanh_sinh(ev, a, b, abs_tol, rel_tol)
        if value is not None:
            return QuadratureResult(value, abs_err, level, n)

    def g(x):
        y = ev(x)
        return y if math.isfinite(y) else 0.0

    out = scipy.integrate.quad(g, a, b, epsabs=abs_tol, epsrel=rel_tol,
                               limit=MAX_SUBDIVISIONS, full_output=True)
    value, abs_err, info = out[:3]
    subdivisions = int(info["last"])

    tol = max(abs_tol, rel_tol * abs(value))
    if not (math.isfinite(value) and 0.0 <= abs_err <= tol):
        why = f"error={abs_err!r} not in [0, {tol!r}]"
    elif value < -tol and not (info["rlist"][:subdivisions] < 0).any():
        why = "below 0 with no negative subinterval"
    else:
        return QuadratureResult(value, abs_err, subdivisions,
                                n + int(info["neval"]))
    raise NonConvergence(
        f"quadrature did not converge: value={value!r}, {why} "
        f"after {subdivisions} subdivisions",
        value=value, abs_error=abs_err,
    )
