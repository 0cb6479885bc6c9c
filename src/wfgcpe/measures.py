"""Information-measure functionals built on the quadrature engine.

The central object is the weighted fractional cumulative past entropy

    (1 / Gamma(gamma + 1)) * int psi(x) K(x) (-ln K(x))^gamma dx

together with its discrete, normalized, dynamic, residual and
fractional-integral forms. Closed forms are dispatched through the model
when available; everything else goes through adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as _gamma

from .distributions import DistributionModel, _refuse_divergent_tail
from .errors import (DegenerateNormalizer, DomainError,
                     MonotonicityError, NonConvergence, UnboundedSupport,
                     require_nonnegative, require_positive)
from .quadrature import (DEFAULT_ABS_TOL, Integrand, QuadratureResult,
                         integrate)
from .weights import WeightFunction

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"


@dataclass(frozen=True)
class MeasureReport:
    value: float
    method: str
    quadrature: Optional[QuadratureResult] = None


def _log_kernel_integral(log_k, psi, gamma: float, lo: float, hi: float,
                         damped: bool = True,
                         ) -> tuple[float, QuadratureResult]:
    """``(1/Gamma(gamma+1)) int_lo^hi psi(x) e^{-nl} nl^gamma dx`` with
    ``nl = -log_k(x)``, and the quadrature result behind it;
    ``damped=False`` drops ``e^{-nl}``.

    ``log_k`` is a model's exact ``log_cdf`` or ``log_survival``, so tails
    where ``K`` rounds to 1 keep their mass, and ``psi`` a float weight;
    a node runs one closure over them. ``0 ln 0 = 0`` where ``log_k`` is 0
    or infinite. The integrand is nonnegative, so a value below
    ``-DEFAULT_ABS_TOL`` means a divergent integral whose error estimate
    passed: ``NonConvergence``.
    """
    if damped:
        def f(x):
            lk = log_k(x)
            if lk >= 0.0 or lk == -math.inf:
                return 0.0
            return psi(x) * math.exp(lk) * (-lk) ** gamma
    else:
        def f(x):
            lk = log_k(x)
            if lk >= 0.0 or lk == -math.inf:
                return 0.0
            return psi(x) * (-lk) ** gamma

    q = integrate(Integrand(f, lo, hi))
    if q.value < -DEFAULT_ABS_TOL:
        raise NonConvergence(
            f"integral of a nonnegative integrand came out {q.value!r}: "
            f"it diverges", value=q.value, abs_error=q.abs_error_estimate)
    return float(q.value / _gamma(gamma + 1.0)), q


def wfgcpe(model: DistributionModel, psi: WeightFunction, gamma: float,
           method: str = "auto") -> MeasureReport:
    """Weighted fractional cumulative past entropy of ``model``.

    ``method`` is ``"auto"`` (closed form when the family carries one for
    the exponent of a builtin exact-power weight, else quadrature),
    ``"closed_form"`` or ``"quadrature"``. A divergent tail is refused
    before either.
    """
    require_positive(gamma=gamma)
    if method not in ("auto", CLOSED_FORM, QUADRATURE):
        raise DomainError(f"unknown method {method!r}")
    _refuse_divergent_tail(model, psi, gamma)

    if method != QUADRATURE:
        closed, p = None, psi.exact_power
        if model.closed_wfgcpe is not None and p is not None:
            closed = model.closed_wfgcpe(p, gamma)
        if closed is not None:
            return MeasureReport(float(closed), CLOSED_FORM)
        if method == CLOSED_FORM:
            raise DomainError(f"no closed form for family {model.family!r}, "
                              f"weight {psi.tag!r}")

    value, q = _log_kernel_integral(model.log_cdf, psi.psi, gamma,
                                    *model.support)
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
    """
    require_positive(gamma=gamma)
    denom = weighted_cpe(model, psi)
    if not math.isfinite(denom) or denom <= 0.0:
        raise DegenerateNormalizer(
            f"weighted cumulative past entropy is {denom}")
    num = wfgcpe(model, psi, gamma).value
    return num / (_gamma(gamma + 1.0) * denom ** gamma)


def dynamic_wfgcpe(model: DistributionModel, psi: WeightFunction,
                   gamma: float, t: float) -> float:
    """Entropy of the past lifetime ``X | X <= t`` at inspection time ``t``."""
    require_positive(gamma=gamma)
    lo, hi = model.support
    if not lo < t < hi:
        raise DomainError(f"t={t} outside open support ({lo}, {hi})")
    nlt = -model.log_cdf(t)
    if math.isinf(nlt):
        raise DomainError(f"K(t)=0 at t={t}")

    # ln(K(x)/K(t)) from the exact log-CDF difference
    lc = model.log_cdf
    return _log_kernel_integral(lambda x: lc(x) + nlt, psi.psi, gamma, lo,
                                t)[0]


def tau(model: DistributionModel, psi: WeightFunction, gamma: float,
        u: float) -> float:
    """``(1/Gamma(gamma+1)) int_u^s psi(x) (-ln K(x))^gamma dx``.

    The expectation of this decreasing function recovers the entropy.
    """
    require_positive(gamma=gamma)
    lo, hi = model.support
    if u >= hi:
        return 0.0
    _refuse_divergent_tail(model, psi, gamma)
    return _log_kernel_integral(model.log_cdf, psi.psi, gamma, max(u, lo),
                                hi, damped=False)[0]


def wfgcre(model: DistributionModel, psi: WeightFunction,
           gamma: float) -> float:
    """Residual counterpart: ``(1/Gamma(gamma+1)) int psi Kbar (-ln Kbar)^gamma``."""
    require_positive(gamma=gamma)
    _refuse_divergent_tail(model, psi, gamma, residual=True)
    return _log_kernel_integral(model.log_survival, psi.psi, gamma,
                                *model.support)[0]


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
    return a * _log_kernel_integral(model.log_cdf, lambda x: p(a * x + b),
                                    gamma, *model.support)[0]


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
    if not a < t:
        raise DomainError(f"require a < t, got ({a}, {t})")

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

    def f(x):
        k = model.cdf(x)
        d = model.pdf(x)
        if k <= 0.0 or d <= 0.0:
            return 0.0
        return psi(x) * k * k / d

    h = model.log_cdf

    def h_prime(x):
        k = model.cdf(x)
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
