"""Nonnegative weight functions and their antiderivatives.

The entropy functionals are "length-biased" through a weight ``psi``; the
empirical estimator additionally needs its antiderivative ``Psi`` and the
proportional-reversed-hazard decomposition needs the derivative
``psi'``. Builtins carry all three in closed form, and their ``Psi``
takes a float or an ndarray; custom weights fall back to numerical
differentiation / cumulative quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DomainError, WeightAntiderivativeUnavailable,
                     require_nonnegative)
from .quadrature import Integrand, integrate

INCREASING = "increasing"
DECREASING = "decreasing"
CONSTANT = "constant"
NEITHER = "neither"

#: Tags of the builtin weights that are exactly ``x^growth``: the weights
#: the families' closed forms and the xi^gamma power are written for.
EXACT_POWER_TAGS = frozenset({"one", "sqrtx", "x", "x2"})


def _array_call(fn, x: np.ndarray) -> Optional[np.ndarray]:
    """``fn(x)`` when ``fn`` takes arrays and keeps their shape, else
    ``None`` (a user callable written for floats)."""
    try:
        y = fn(x)
    except (TypeError, ValueError):
        return None
    return y if isinstance(y, np.ndarray) and y.shape == x.shape else None


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` at every element of ``x``: one call when ``fn`` takes arrays
    (the builtin models' ``cdf``/``quantile`` and weights' ``Psi``), else
    an elementwise map for user callables written for floats."""
    y = _array_call(fn, x)
    return np.vectorize(fn, otypes=[float])(x) if y is None else y


@dataclass(frozen=True)
class WeightFunction:
    psi: Callable[[float], float]
    antiderivative: Optional[Callable[[float], float]] = None
    derivative: Optional[Callable[[float], float]] = None
    monotonicity: str = NEITHER
    tag: str = "custom"
    #: ``p`` with ``psi(x) ~ x^p`` as ``x -> inf`` (``-inf``: faster decay
    #: than any power; ``None``: undeclared), for the divergence rule.
    growth: Optional[float] = None

    def __call__(self, x):
        return self.psi(x)

    @property
    def exact_power(self) -> Optional[float]:
        """``p`` for a builtin weight exactly ``x^p``, else ``None``."""
        return self.growth if self.tag in EXACT_POWER_TAGS else None

    def psi_prime(self, x: float) -> float:
        """Derivative of the weight; central difference if no closed form."""
        if self.derivative is not None:
            return self.derivative(x)
        h = max(1e-6, 1e-6 * abs(x))
        return (self.psi(x + h) - self.psi(x - h)) / (2.0 * h)

    def big_psi(self, x: float) -> float:
        """Antiderivative ``Psi`` with ``Psi' = psi``; quadrature fallback.

        The fallback anchors ``Psi(0) = 0``, which matches every closed
        form shipped here; only differences of ``Psi`` are ever used.
        The fallback takes floats only.
        """
        if self.antiderivative is not None:
            return self.antiderivative(x)
        x = float(x)
        if x == 0.0:
            return 0.0
        try:
            return integrate(Integrand(self.psi, 0.0, x),
                             abs_tol=1e-12, rel_tol=1e-10).value
        except Exception as exc:
            raise WeightAntiderivativeUnavailable(
                f"cannot accumulate antiderivative of weight {self.tag!r} at {x}"
            ) from exc


def weight_one() -> WeightFunction:
    return WeightFunction(lambda x: 1.0, lambda x: x, lambda x: 0.0,
                          CONSTANT, "one", 0.0)


def weight_x() -> WeightFunction:
    return WeightFunction(lambda x: x, lambda x: 0.5 * x * x, lambda x: 1.0,
                          INCREASING, "x", 1.0)


def weight_x_squared() -> WeightFunction:
    return WeightFunction(lambda x: x * x, lambda x: x ** 3 / 3.0,
                          lambda x: 2.0 * x, INCREASING, "x2", 2.0)


def weight_sqrt_x() -> WeightFunction:
    return WeightFunction(lambda x: math.sqrt(x),
                          lambda x: (2.0 / 3.0) * x ** 1.5,
                          lambda x: 0.5 / math.sqrt(x) if x > 0 else math.inf,
                          INCREASING, "sqrtx", 0.5)


def weight_exp_neg() -> WeightFunction:
    def big(x):
        try:
            return -math.expm1(-x)
        except TypeError:  # an ndarray; see DistributionModel
            return -np.expm1(-x)

    return WeightFunction(lambda x: math.exp(-x), big,
                          lambda x: -math.exp(-x),
                          DECREASING, "expneg", -math.inf)


def self_density_weight(model) -> WeightFunction:
    """Weight ``psi = k`` (the population density), so ``Psi = K``."""
    return WeightFunction(model.pdf, model.cdf, None, NEITHER, "self_density")


def power_weight(exponent: float) -> WeightFunction:
    """Weight ``psi(x) = x**p`` for ``p >= 0`` (used by the xi^gamma bound)."""
    require_nonnegative(p=exponent)
    if exponent == 0:
        return weight_one()
    p = float(exponent)
    return WeightFunction(lambda x: x ** p,
                          lambda x: x ** (p + 1) / (p + 1),
                          lambda x: p * x ** (p - 1) if x > 0 else 0.0,
                          INCREASING, f"pow{p:g}", p)


def custom_weight(psi, antiderivative=None, derivative=None,
                  monotonicity=NEITHER, tag="custom") -> WeightFunction:
    return WeightFunction(psi, antiderivative, derivative, monotonicity, tag)


def piecewise_linear_weight(xs, ys) -> WeightFunction:
    """Piecewise-linear weight from a table, with trapezoid antiderivative
    and, as derivative, the slope of the segment that holds ``x``.

    Outside the table the weight is extended by its endpoint values (slope
    0). ``psi``, ``Psi`` and ``psi'`` take a float or an ndarray.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
        raise DomainError("need matching 1-d tables with at least two knots")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise DomainError("knot locations and weight values must be finite")
    if np.any(np.diff(xs) <= 0):
        raise DomainError("knot locations must be strictly increasing")
    if np.any(ys < 0):
        raise DomainError("weight values must be nonnegative")

    # cumulative trapezoid areas at the knots, anchored at Psi(xs[0]) = 0
    areas = np.concatenate(
        [[0.0], np.cumsum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs))])
    last = len(xs) - 1

    def psi(x):
        y = np.interp(x, xs, ys)
        return y if isinstance(x, np.ndarray) else float(y)

    def big(x):
        # the knot at or left of x; below the table, the first knot
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, last)
        y = np.interp(x, xs, ys)
        # the trapezoid from knot i to x; beyond either end of the table
        # y is the endpoint value, which extends the weight as a constant
        out = areas[i] + 0.5 * (ys[i] + y) * (x - xs[i])
        return out if isinstance(x, np.ndarray) else float(out)

    d = np.diff(ys)
    # slopes[i] holds on [xs[i - 1], xs[i]); 0 below and past the table
    slopes = np.concatenate([[0.0], d / np.diff(xs), [0.0]])

    def dpsi(x):
        s = slopes[np.searchsorted(xs, x, side="right")]
        return s if isinstance(x, np.ndarray) else float(s)

    if np.all(d >= 0):
        mono = INCREASING if np.any(d > 0) else CONSTANT
    elif np.all(d <= 0):
        mono = DECREASING
    else:
        mono = NEITHER
    growth = 0.0 if ys[-1] > 0 else -math.inf  # constant past the table
    return WeightFunction(psi, big, dpsi, mono, "custom", growth)


BUILTIN_WEIGHTS = {
    "one": weight_one,
    "x": weight_x,
    "x2": weight_x_squared,
    "sqrtx": weight_sqrt_x,
    "expneg": weight_exp_neg,
}
