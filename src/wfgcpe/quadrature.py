"""Singularity-aware quadrature used by every analytic evaluation.

A finite interval takes a fixed tanh-sinh rule (Takahasi & Mori, Publ.
RIMS 9, 1974), whose double exponential decay absorbs the algebraic-log
singularity of ``u (-ln u)^gamma`` wherever the CDF approaches 0 or 1.
On (0, 1) it can pass each node as the logs of ``u``, ``1 - u`` and its
weight (see ``Integrand``), out to e^-34,599 of either end, where the
decay absorbs any ``(1 - u)^{-1+e}`` growth (Mori & Sugihara, J. Comput.
Appl. Math. 127, 2001): every kernel integral runs so, in ``u = K(x)``;
the plain rule runs in x the Riemann-Liouville bridge, the density check
of ``_validate_model`` and the ``big_psi`` fallback. QUADPACK (scipy's
``quad``) takes a finite interval where the rule does not settle or a
node raises, and a bare right-infinite ``Integrand`` by its QAGI.
One guard per node maps a non-finite value (endpoint underflow) to its
continuous-limit value 0; under ``full_output`` scipy does not warn.
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
    """``(delta, weight)`` of the nodes ``+-(1 - delta)`` of (-1, 1) at
    ``t``: ``delta = 2e/(1 + e)``, ``e = exp(-pi sinh t)``, is exact."""
    e = math.exp(-math.pi * math.sinh(t))
    return 2.0 * e / (1.0 + e), 2.0 * math.pi * math.cosh(t) * e / (1 + e)**2


def _end_node(t: float) -> tuple:
    """``(ln u, ln(1 - u), ln w)`` of the node ``u = delta/2`` of (0, 1) at
    ``t``, and of its mirror ``1 - u``. Nothing underflows."""
    s = math.pi * math.sinh(t)
    l1p = math.log1p(math.exp(-s))
    lw = math.log(2.0 * math.pi * math.cosh(t)) - s - 2 * l1p
    return (-s - l1p, -l1p, lw), (-l1p, -s - l1p, lw)


#: The nodes each level adds, for t in (0, 4] at step ``2**-level``, and
#: in (0, 10] as end logs: t = 10 is e^-34,599 from an end.
_TANH_SINH, _TANH_SINH_ENDS = ([[node(j / 2 ** k) for j in range(
    1, t * 2 ** k + 1, 2 if k else 1)] for k in range(8)]
    for node, t in ((_tanh_sinh_node, 4), (_end_node, 10)))
#: The levels of ``_TANH_SINH_ENDS`` past level 0 at t <= 1, ..., 10.
_ENDS_CUT = [[[]] + [nodes[:t << k >> 1] for k, nodes in
                     enumerate(_TANH_SINH_ENDS) if k] for t in range(1, 11)]
#: The first level whose change from the previous one may end the rule.
_TANH_SINH_MIN_LEVEL = 3


def _tanh_sinh(ev, a: float, b: float, abs_tol: float, rel_tol: float,
               logs: bool = False):
    """``(value, error, level, evaluations)`` of the tanh-sinh rule on
    (a, b); ``value`` is None if the levels do not settle or a node raises
    an arithmetic or value error. The error is the last level's change.
    With ``logs`` (see ``Integrand``) level 0 runs to t = 6, then on while
    its last term exceeds 1e-18 of the absolute sum; the later levels stop
    at the next t past the last such term, as they decay past it."""
    isfinite = math.isfinite
    c, d = 0.5 * (a + b), 0.5 * (b - a)
    n, prev, prev_err = 1, math.nan, math.inf
    try:
        if logs:
            y = ev((-math.log(2.0), -math.log(2.0), math.log(0.5 * math.pi)))
            total, terms = (y if isfinite(y) else 0.0), []
            for node, mirror in _TANH_SINH_ENDS[0]:
                n += 2
                ys = [y for y in (ev(mirror), ev(node)) if isfinite(y)]
                total += sum(ys)
                terms.append(sum(map(abs, ys)))
                small = 1e-18 * (sum(terms) + abs(total))
                if len(terms) >= 6 and terms[-1] <= small:
                    break
            table = _ENDS_CUT[min(9, max([t for t, term in enumerate(
                terms, 1) if term > small], default=0))]
        else:
            y = ev(c)
            total = 0.5 * math.pi * y if isfinite(y) else 0.0
            table = _TANH_SINH
        for level, nodes in enumerate(table):
            if logs:
                for node, mirror in nodes:
                    n += 2
                    for y in (ev(mirror), ev(node)):
                        if isfinite(y):
                            total += y
            else:
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
    """A scalar function on an open interval, in x, or with ``logs`` in u.

    ``eval`` must be finite on the open interior; the endpoints themselves
    are never evaluated. ``hi`` may be ``inf``. With ``logs``, in ``u =
    K(x)`` on (0, 1), ``eval((ln u, ln(1 - u), ln w))`` returns ``w f(u)``,
    ``w`` inside the one ``exp`` that forms it, to e^-34,599 of either end.
    A log sum past the largest float raises ``OverflowError``, a divergent
    tail: the rule ends, and QUADPACK runs in u at ``ln w = 0``."""

    eval: Callable[..., float]
    lo: float
    hi: float
    logs: bool = False

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"require lo < hi, got ({self.lo}, {self.hi})")
        if self.lo < 0:
            raise DomainError(f"require lo >= 0, got {self.lo}")


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
    move less than tenfold (a kink), or a node raises an arithmetic or
    value error, QUADPACK integrates the same integrand, and any error it
    raises is genuine. QUADPACK's QAGI maps a bare ``hi = inf`` itself.

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
                                              f.logs)
        if value is not None:
            return QuadratureResult(value, abs_err, level, n)

    if f.logs:  # QUADPACK's node u as its logs; u may round onto an end
        def ev(u, f=ev):
            return f((math.log(u), math.log1p(-u), 0.0)) if 0 < u < 1 else 0.0

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
                                n + int(info["neval"]), "quadpack")
    raise NonConvergence(
        f"quadrature did not converge: value={value!r}, {why} "
        f"after {subdivisions} subdivisions",
        value=value, abs_error=abs_err,
    )
