"""Information-measure functionals built on the quadrature engine.

The central object is the weighted fractional cumulative past entropy

    (1 / Gamma(gamma + 1)) * int psi(x) K(x) (-ln K(x))^gamma dx

together with its discrete, normalized, dynamic, residual and
fractional-integral forms. Closed forms are dispatched through the model
when available; everything else goes through adaptive quadrature. Every
kernel integral, here and in ``analysis.bound_suite`` (a) and
``analysis.mean_value_identity``, runs in ``_log_kernel_integral``, in
``u = K(x)`` on every support (the dynamic form on the past lifetime);
only the Riemann-Liouville bridge, an independent route, runs in x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as _gamma

from .distributions import (DistributionModel, _quantile_kernel,
                            _refuse_divergent_tail)
from .errors import (ConstraintError, DegenerateNormalizer, DomainError,
                     MonotonicityError, UnboundedSupport,
                     require_nonnegative, require_positive)
from .quadrature import Integrand, QuadratureResult, integrate
from .weights import WeightFunction

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"


@dataclass(frozen=True)
class MeasureReport:
    value: float
    method: str
    quadrature: Optional[QuadratureResult] = None


#: Per kind: the powers in u of its kernel at ``gamma``
_KINDS = {"past": lambda g: (g, 0.0, 0.0, 0.0, 1.0),
          "tau": lambda g: (g, 0.0, -1.0, 0.0, 1.0),
          "residual": lambda g: (0.0, g, -1.0, 1.0, 1.0),
          "one_minus": lambda g: (0.0, 0.0, 0.0, g, 1.0)}


def _log_kernel_integral(model: DistributionModel, psi, gamma: float,
                         lo: float, kind: str = "past", t=None,
                         ) -> tuple[float, QuadratureResult]:
    """``(1/Gamma(gamma+1)) int_lo^s psi(x) k(x) dx``, ``s`` the end of
    ``model``'s support (of the past lifetime ``X | X <= t`` with ``t``,
    ``K`` its CDF), and its quadrature result. ``kind`` picks ``k``:
    ``K (-ln K)^gamma`` (``past``), ``(-ln K)^gamma`` (``tau``), ``(1 - K)
    (-ln(1 - K))^gamma`` (``residual``) or ``K (1 - K)^gamma``
    (``one_minus``). The one route of every kernel integral: ``u = K(x)``
    in ``_quantile_kernel``, where a ``WeightFunction`` with a ``power``
    joins the log sum as ``p ln x``; a divergent one ends in
    ``NonConvergence``."""
    n = getattr(psi, "power", None)
    psi = getattr(psi, "psi", psi)
    q = integrate(_quantile_kernel(model, psi if n is None else None, lo,
                                   _KINDS[kind](gamma), n or 0.0, t))
    return float(q.value / _gamma(gamma + 1.0)), q


def wfgcpe(model: DistributionModel, psi: WeightFunction, gamma: float,
           method: str = "auto") -> MeasureReport:
    """Weighted fractional cumulative past entropy of ``model``.

    ``method`` is ``"auto"`` (the family's closed form for an exact-power
    weight's exponent, builtin or ``power_weight``, where it has one at
    this ``gamma``; else quadrature), ``"closed_form"`` or
    ``"quadrature"``. A divergent tail is refused before either.
    """
    require_positive(gamma=gamma)
    if method not in ("auto", CLOSED_FORM, QUADRATURE):
        raise DomainError(f"unknown method {method!r}")
    _refuse_divergent_tail(model, psi, gamma)

    if method != QUADRATURE:
        closed = None
        if model.closed_wfgcpe is not None and psi.power is not None:
            closed = model.closed_wfgcpe(psi.power, gamma)
        if closed is not None:
            return MeasureReport(float(closed), CLOSED_FORM)
        if method == CLOSED_FORM:
            raise DomainError(f"no closed form for family {model.family!r}, "
                              f"weight {psi.tag!r}, gamma {gamma:g}")

    value, q = _log_kernel_integral(model, psi, gamma, model.support[0])
    return MeasureReport(value, QUADRATURE, q)


def weighted_cpe(model: DistributionModel, psi: WeightFunction) -> float:
    """``-int psi K ln K dx``; identical to the ``gamma = 1`` entropy."""
    return wfgcpe(model, psi, 1.0).value


def wfgcpe_gamma_zero_limit(model: DistributionModel,
                            psi: WeightFunction) -> float:
    """``gamma -> 0+`` limit ``Psi(s) - E[Psi(X)]`` for finite support."""
    lo, hi = model.support
    if math.isinf(hi):
        raise UnboundedSupport(
            "gamma -> 0+ limit is +inf on unbounded support")
    return psi.big_psi(hi) - model.expectation(psi.big_psi)


def normalized_wfgcpe(model: DistributionModel, psi: WeightFunction,
                      gamma: float) -> float:
    """Entropy of order ``gamma`` over ``Gamma(gamma+1)`` times the
    ``gamma``-th power of the weighted cumulative past entropy.

    Limits: 1 at ``gamma = 1``; ``int psi K dx`` as ``gamma -> 0+``.
    Computed in logs; a value past the largest float raises
    ``DegenerateNormalizer``.
    """
    require_positive(gamma=gamma)
    try:
        denom = weighted_cpe(model, psi)
    except ConstraintError as exc:
        raise ConstraintError(f"weighted CPE normalizer (gamma = 1) at "
                              f"gamma {gamma:g}: {exc}") from None
    if not math.isfinite(denom) or denom <= 0.0:
        raise DegenerateNormalizer(
            f"weighted cumulative past entropy is {denom}")
    num = wfgcpe(model, psi, gamma).value
    if num <= 0.0:
        return 0.0
    # in logs: denom ** gamma underflows long before the ratio does
    log_ratio = (math.log(num) - math.lgamma(gamma + 1.0)
                 - gamma * math.log(denom))
    try:
        return math.exp(log_ratio)
    except OverflowError:
        raise DegenerateNormalizer(
            f"normalized entropy e^{log_ratio:.6g} overflows: the "
            f"normalizer {denom!r} is too small") from None


def dynamic_wfgcpe(model: DistributionModel, psi: WeightFunction,
                   gamma: float, t: float) -> float:
    """Entropy of the past lifetime ``X | X <= t``, CDF ``K(x)/K(t)`` on
    ``(lo, t)``: the past kernel in its own ``u`` (Di Crescenzo &
    Longobardi, J. Statist. Plann. Inference 139, 2009), on nodes in its
    cumulative hazard (see ``_quantile_kernel``)."""
    require_positive(gamma=gamma)
    lo, hi = model.support
    if not lo < t < hi:
        raise DomainError(f"t={t} outside open support ({lo}, {hi})")
    return _log_kernel_integral(model, psi, gamma, lo, t=t)[0]


def tau(model: DistributionModel, psi: WeightFunction, gamma: float,
        u: float) -> float:
    """``(1/Gamma(gamma+1)) int_u^s psi(x) (-ln K(x))^gamma dx``.

    The expectation of this decreasing function recovers the entropy.
    """
    require_positive(gamma=gamma)
    if math.isnan(u):
        raise DomainError("tau undefined at u = nan")
    lo, hi = model.support
    if u >= hi:
        return 0.0
    _refuse_divergent_tail(model, psi, gamma)
    return _log_kernel_integral(model, psi, gamma, max(u, lo), "tau")[0]


def wfgcre(model: DistributionModel, psi: WeightFunction,
           gamma: float) -> float:
    """Residual form: ``(1/Gamma(gamma+1)) int psi Kbar (-ln Kbar)^gamma``."""
    require_positive(gamma=gamma)
    _refuse_divergent_tail(model, psi, gamma, residual=True)
    return _log_kernel_integral(model, psi, gamma, model.support[0],
                                "residual")[0]


def affine_wfgcpe(model: DistributionModel, psi: WeightFunction,
                  gamma: float, a: float, b: float) -> float:
    """Entropy of ``Y = aX + b`` for ``a > 0``, ``b >= 0``.

    For ``psi = x`` this satisfies the decomposition
    ``a^2 CPE^x(X) + a b CPE(X)``.
    """
    require_positive(gamma=gamma, a=a)
    require_nonnegative(b=b)
    _refuse_divergent_tail(model, psi, gamma)
    p = psi.psi
    return a * _log_kernel_integral(model, lambda x: p(a * x + b), gamma,
                                    model.support[0])[0]


def rl_fractional_integral(f: Callable[[float], float],
                           h: Callable[[float], float],
                           order: float, a: float, t: float,
                           h_prime: Optional[Callable[[float], float]] = None,
                           probe: int = 64) -> float:
    """Left-sided Riemann-Liouville fractional integral of ``f`` w.r.t. ``h``:

    ``(1/Gamma(order)) int_a^t h'(tau) f(tau) (h(t) - h(tau))^(order-1) dtau``

    ``h`` must be strictly increasing on ``(a, t)``; this is verified on a
    probe grid. ``h_prime`` defaults to a central finite difference.
    """
    require_positive(order=order)
    if not (a < t and math.isfinite(a) and math.isfinite(t)):
        raise DomainError(f"require finite a < t, got ({a}, {t})")

    grid = np.linspace(a, t, probe + 2)[1:-1]
    hv = np.array([h(x) for x in grid])
    if np.any(np.diff(hv) <= 0):
        i = int(np.argmin(np.diff(hv)))
        raise MonotonicityError(
            f"h is not strictly increasing near x={grid[i]:g}")

    if h_prime is None:
        def h_prime(x, _h=h):
            step = max(1e-7, 1e-7 * abs(x))
            return (_h(x + step) - _h(x - step)) / (2.0 * step)

    ht = h(t)
    expo = order - 1.0

    def integrand(x):
        d = ht - h(x)
        if d <= 0.0:
            return 0.0
        return h_prime(x) * f(x) * d ** expo

    q = integrate(Integrand(integrand, a, t))
    return q.value / _gamma(order)


def wfgcpe_via_fractional_bridge(model: DistributionModel,
                                 psi: WeightFunction, gamma: float) -> float:
    """Entropy recovered as a Riemann-Liouville integral of order
    ``gamma + 1`` with ``h = ln K`` and ``f = psi K^2 / k``, in the limit
    ``a -> lo``, ``t -> s``. Independent route for cross-checking."""
    require_positive(gamma=gamma)
    lo, hi = model.support
    if math.isinf(hi):
        raise UnboundedSupport("bridge check requires finite support")

    h = model.log_cdf

    def f(x):
        k = math.exp(h(x))
        d = model.pdf(x)
        if k <= 0.0 or d <= 0.0:
            return 0.0
        return psi(x) * k * k / d

    def h_prime(x):
        k = math.exp(h(x))
        return model.pdf(x) / k if k > 0.0 else 0.0

    return rl_fractional_integral(f, h, gamma + 1.0, lo, hi,
                                  h_prime=h_prime)


def discrete_wfe(probabilities, weights=None, alpha: float = 1.0) -> float:
    """Discrete weighted fractional entropy ``sum w_i p_i (-ln p_i)^alpha``.

    ``weights = None`` means unit weights; ``0 < alpha <= 1``. Zero
    probabilities contribute nothing (the ``0 ln 0 = 0`` convention).
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise DomainError("probabilities must be a nonempty vector")
    if not np.all(p >= 0):  # NaN fails too
        raise DomainError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-12:
        raise DomainError(f"probabilities sum to {p.sum()!r}, not 1")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"require 0 < alpha <= 1, got {alpha}")
    if weights is None:
        w = np.ones_like(p)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != p.shape:
            raise DomainError("weights and probabilities differ in length")
        if not np.all((w >= 0) & (w < np.inf)):
            raise DomainError("weights must be finite and nonnegative")
    mask = (p > 0) & (p < 1)
    return float(np.sum(w[mask] * p[mask] * (-np.log(p[mask])) ** alpha))
