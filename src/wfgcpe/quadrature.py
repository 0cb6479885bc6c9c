"""Singularity-aware quadrature used by every analytic evaluation.

A finite interval takes a fixed tanh-sinh rule (Takahasi & Mori, Publ.
RIMS 9, 1974), whose double exponential decay absorbs the algebraic-log
singularity of ``u (-ln u)^gamma`` wherever the CDF approaches 0 or 1.
On (0, 1) the rule can pass each node as its exact offset from the nearer
end (see ``Integrand``): the measures integrate the right-infinite kernels
and the PRH terms so, in ``u = K(x)``. QUADPACK (``scipy.integrate.quad``)
takes a right-infinite domain, which its QAGI routine maps onto (0, 1),
and a finite one where the rule does not settle or a node raises; there
it integrates the ``fallback``, if the ``Integrand`` has one. One guard
per node maps a non-finite value (endpoint underflow) to its
continuous-limit value 0; under ``full_output`` scipy does not warn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

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


#: The nodes each level adds, for t in (0, 4] at step ``2**-level``, and
#: in (0, 6] for end offsets: t = 6 is 1.5e-275 from an end.
_TANH_SINH, _TANH_SINH_ENDS = ([[_tanh_sinh_node(j / 2 ** k) for j in range(
    1, t * 2 ** k + 1, 2 if k else 1)] for k in range(8)] for t in (4, 6))
#: The levels of ``_TANH_SINH_ENDS`` past level 0 at t < 1, ..., 6.
_ENDS_CUT = [[[]] + [nodes[:t << k >> 1] for k, nodes in
                     enumerate(_TANH_SINH_ENDS) if k] for t in range(1, 7)]
#: The first level whose change from the previous one may end the rule.
_TANH_SINH_MIN_LEVEL = 3


def _ends_level_0(ev, total: float) -> tuple[float, list]:
    """``total`` plus level 0 of the end-offset rule on (0, 1), and the
    levels to come, cut at the first t past which no level-0 term exceeds
    1e-18 of their absolute sum: past it they decay double exponentially."""
    terms = []
    for delta, w in _TANH_SINH_ENDS[0]:
        ys = [w * y for y in (ev(-0.5 * delta), ev(0.5 * delta))
              if math.isfinite(y)]
        total += sum(ys)
        terms.append(sum(map(abs, ys)))
    small = 1e-18 * (sum(terms) + abs(total))
    last = max([t for t, term in enumerate(terms, 1) if term > small],
               default=0)
    return total, _ENDS_CUT[min(last, 5)]


def _tanh_sinh(ev, a: float, b: float, abs_tol: float, rel_tol: float,
               offsets: bool = False):
    """``(value, error, level, evaluations)`` of the tanh-sinh rule on
    (a, b); ``value`` is None if the levels do not settle or a node raises
    an arithmetic or value error. The error is the last level's change.
    With ``offsets`` the nodes of (0, 1) are passed as ``Integrand`` says."""
    isfinite = math.isfinite
    c, d = 0.5 * (a + b), 0.5 * (b - a)
    n, prev, prev_err, table = 1, math.nan, math.inf, _TANH_SINH
    try:
        y = ev(c)
        total = 0.5 * math.pi * y if isfinite(y) else 0.0
        if offsets:  # x = b - d delta is -(1 - u), x = a + d delta is u
            a = b = 0.0
            n = 13
            total, table = _ends_level_0(ev, total)
        for level, nodes in enumerate(table):
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
    are never evaluated. ``hi`` may be ``inf``. With ``offsets``, on (0, 1)
    only, ``eval`` takes each node's signed offset from its nearer end
    instead of the node ``u``: ``u`` itself where ``u <= 1/2``, else
    ``-(1 - u)``; the nodes then reach 1e-275 of either end. A
    ``fallback``, the same integral in another variable, is what QUADPACK
    integrates where the rule does not settle.
    """

    eval: Callable[[float], float]
    lo: float
    hi: float
    offsets: bool = False
    fallback: Optional["Integrand"] = None

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"require lo < hi, got ({self.lo}, {self.hi})")
        if self.lo < 0:
            raise DomainError(f"require lo >= 0, got {self.lo}")


def _end_logs(y: float) -> tuple[float, float]:
    """``(ln u, ln(1 - u))`` of the node at signed end offset ``y``."""
    if y > 0.0:
        return math.log(y), math.log1p(-y)
    return math.log1p(y), math.log(-y)


@dataclass(frozen=True)
class QuadratureResult:
    """QUADPACK's error estimate and ``last`` where it ran, else the
    tanh-sinh rule's last change and level; ``evaluations`` counts every
    Python call of the integrand: tanh-sinh nodes plus QUADPACK's ``neval``.
    ``rule`` names the one that produced the value."""

    value: float
    abs_error_estimate: float
    subdivisions: int
    evaluations: int
    rule: str = "tanh_sinh"


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
    integrand, or its ``fallback``, and any error it raises is genuine.
    For ``hi = inf`` QUADPACK's QAGI maps the tail onto (0, 1) itself.

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
        value, abs_err, level, n = _tanh_sinh(ev, a, b, abs_tol, rel_tol,
                                              f.offsets)
        if value is not None:
            return QuadratureResult(value, abs_err, level, n)
        if f.fallback is not None:
            f = f.fallback
            ev, a, b = f.eval, f.lo, f.hi

    def g(x):
        y = ev(x)
        return y if math.isfinite(y) else 0.0

    if f.offsets:  # QUADPACK's nodes as end offsets; one may round onto 1
        def g(x, g=g):
            x = x - 1.0 if x > 0.5 else x
            return g(x) if x else 0.0

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
                                n + int(info["neval"]), "quadpack")
    raise NonConvergence(
        f"quadrature did not converge: value={value!r}, {why} "
        f"after {subdivisions} subdivisions",
        value=value, abs_error=abs_err,
    )
