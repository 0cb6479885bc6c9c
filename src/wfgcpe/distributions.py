"""Parametric distribution families and proportional reversed hazard machinery.

Each model bundles CDF/PDF/quantile/support plus, where available, closed
forms for the weighted fractional cumulative past entropy; those closed
forms are the analytic side of the closed-form-vs-quadrature cross checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np
from scipy.special import gamma as _gamma

from .errors import (ConstraintError, DomainError, ValidationError,
                     require_nonnegative, require_positive)
from .quadrature import Integrand, integrate
from .weights import WeightFunction, _pow

_PROBE_POINTS = 1024
_LN2 = math.log(2.0)
_NEAR_ONE = 2.0 ** -53  # -ln u where u rounds to 1: ln(-ln u) = ln(1 - u)


@dataclass(frozen=True)
class DistributionModel:
    """CDF/PDF/quantile bundle on support ``(lo, hi)`` with ``hi <= inf``.

    The builtin families' ``cdf`` and ``quantile`` are one numpy body
    each: an ndarray maps elementwise, and a float gives a numpy scalar
    with the same bits as an array element. The library's scalar paths
    read ``log_cdf``, not ``cdf``. User callables may take floats only.

    Every model carries ``log_cdf`` and ``log_survival`` (``ln K`` and
    ``ln(1 - K)``): as declared by the family, or else derived from this
    model's ``cdf``, also after ``dataclasses.replace`` swaps the ``cdf``.
    Likewise ``quantile_logs(ln u, ln(1 - u))`` gives ``x = Q(u)``, ``ln x``
    and ``ln(1/lambda(x))``, ``lambda = k/K``, for the integrals in ``u``:
    exact in both logs as declared (``ln x`` finite where ``x`` overflows),
    at ``u = e^{ln u}`` as derived.

    ``closed_wfgcpe(p, gamma)`` returns the closed-form entropy for the
    weight ``x^p``, or ``None`` where the family has none for that
    exponent or the integral diverges. ``_refuse_divergent_tail`` reads
    ``tail_index``: ``a`` with ``-ln K(x) ~ C x^{-a}`` as ``x -> inf``,
    ``inf`` where lighter than any power, ``None`` where undeclared.
    """

    cdf: Callable[[float], float]
    pdf: Callable[[float], float]
    quantile: Callable[[float], float]
    support: tuple[float, float]
    family: str = "custom"
    params: dict = field(default_factory=dict)
    closed_wfgcpe: Optional[Callable[[str, float], float]] = None
    log_cdf: Optional[Callable[[float], float]] = None
    log_survival: Optional[Callable[[float], float]] = None
    tail_index: Optional[float] = None
    quantile_logs: Optional[Callable[[float, float], tuple]] = None

    def __post_init__(self):
        for name, complement in (("log_cdf", False), ("log_survival", True)):
            log = getattr(self, name)
            if log is None or getattr(log, "func", None) is _log_of_cdf:
                object.__setattr__(
                    self, name, partial(_log_of_cdf, self.cdf, complement))
        ql = self.quantile_logs
        if ql is None or getattr(ql, "func", None) is _quantile_logs_of:
            object.__setattr__(self, "quantile_logs", partial(
                _quantile_logs_of, self.quantile, self.pdf, self.support[1]))

    def reversed_hazard(self, x: float) -> float:
        k = math.exp(self.log_cdf(x))
        if k <= 0.0:
            raise DomainError(
                f"reversed hazard undefined where K(x)=0 (x={x})")
        return self.pdf(x) / k

    def expectation(self, g: Callable[[float], float]) -> float:
        """E[g(X)] in u = K(x), at end logs on every support."""
        return integrate(_quantile_kernel(self, g, self.support[0],
                                          (0.0,) * 5)).value

    def mean(self) -> float:
        return self.expectation(lambda x: x)


def _log_of_cdf(cdf, complement: bool, x: float) -> float:
    """``ln K(x)`` (``ln(1 - K(x))`` with ``complement``) from ``cdf``,
    ``-inf`` where the value is 0. Where ``K`` rounds to 1, ``ln K`` is 0,
    which truncates slowly decaying tails; a declared exact log keeps them.
    """
    k = 1.0 - cdf(x) if complement else cdf(x)
    return -math.inf if k <= 0.0 else math.log(k)


def _quantile_logs_of(quantile, pdf, hi: float, lu: float, lw: float):
    """``quantile_logs`` from ``quantile`` and ``pdf``: ``x = hi`` where
    ``u`` rounds to 1, and ``ln(1/lambda) = inf`` where the density is 0."""
    u = math.exp(lu)
    x = quantile(u) if u < 1.0 else hi
    d = pdf(x)
    return (x, math.log(x) if x > 0.0 else -math.inf,
            lu - math.log(d) if d > 0.0 else math.inf)


def _log_neg_log(la: float, lb: float) -> float:
    """``ln(-ln a)`` from ``ln a`` and ``ln(1 - a)``: the latter near 1."""
    return math.log(-la) if la < -_NEAR_ONE else lb


def _quantile_kernel(model: DistributionModel,
                     h: Optional[Callable[[float], float]], lo: float,
                     powers: tuple, n: float = 0.0,
                     t: Optional[float] = None) -> Integrand:
    """The integral over ``x > lo`` of a kernel, in ``u = K(x)`` on (0, 1)
    at end logs (see ``Integrand``): the one route for an integral in
    ``u``, which keeps ``(1 - u)^{-1+e}`` growth near a divergence bound.

    With ``powers = (c, r, a, b, m)`` the integrand is ``h(x) x^n (-ln
    u)^c (-ln(1 - u))^r u^a (1 - u)^b e^{m l}`` at ``x = Q(u)``, ``l =
    ln(1/lambda(x))`` from ``quantile_logs``; a zero power's factor is not
    evaluated, and ``h`` None is 1. As ``K dx = e^l du``, ``psi K (-ln
    K)^gamma dx`` has powers ``(gamma, 0, 0, 0, 1)``. ``u = k0 + w0 v``,
    ``k0 = K(lo)``, maps (k0, 1) onto (0, 1) with ``1 - u = w0 (1 - v)``,
    which keeps both logs exact (``u`` as ``1 - w0 (1 - v)`` above 1/2),
    and ``du = w0 dv``. All but ``h(x)`` join the one ``exp`` as logs
    (``x^n`` as ``n ln x``); ``h`` past the largest float is ``inf``.
    With ``t`` it is ``u = K(x)/K(t)``, of the past lifetime ``X | X <= t``
    on ``(lo, t)``, at ``v = H(x)/H(t)``, ``H = -ln(1 - K)``: ``1 - K =
    e^{-sigma}``, ``sigma = H(t) v``, keeps both logs of ``u`` exact, and
    ``Q`` is smooth in ``sigma`` up to ``t``; in ``u``, ``e^l`` steps where
    ``1 - u = (1 - K(t))/K(t)``. Where ``K(t)`` is 1 in the model's logs,
    the past lifetime is ``X``.
    """
    c, r, a, b, m = powers
    ql, lw0 = model.quantile_logs, model.log_survival(lo)
    k0, log, log1p, exp = -math.expm1(lw0), math.log, math.log1p, math.exp
    lkt, lwt = (0.0, -math.inf) if t is None else (model.log_cdf(t),
                                                   model.log_survival(t))
    if lkt == -math.inf:
        raise DomainError(f"K(t)=0 at t={t}")
    past, lh = lwt > -math.inf, _log_neg_log(lwt, lkt)  # ln H(t)

    def f(node):
        lv, l1mv, s = node
        if not past:
            lw = lw0 + l1mv
            lu = (lv if not k0 else log1p(-exp(lw)) if lw < -_LN2
                  else log(k0 + exp(lw0 + lv)))
            s += lw0
            x, lx, l = ql(lu, lw)
        else:  # du = e^{-sigma} H(t) dv / K(t)
            sigma, lk = exp(lh + lv), _log1m_exp_of_log(lh + lv)
            lw = _log1m_exp_of_log(lh + l1mv) - sigma - lkt
            lu = lk - lkt if lw > -_LN2 else log1p(-exp(lw))
            s += lh - sigma - lkt
            x, lx, l = ql(lk, -sigma)
        try:
            p = 1.0 if h is None else h(x)
        except OverflowError:
            return math.inf
        if p == 0.0:  # no mass, where e^l may overflow
            return 0.0
        if c:  # each nonzero power's log
            s += c * _log_neg_log(lu, lw)
        if r:
            s += r * _log_neg_log(lw, lu)
        if a:
            s += a * lu
        if b:
            s += b * lw
        if m:
            s += m * l
        if n:
            s += n * lx
        return p * exp(s)

    return Integrand(f, 0.0, 1.0, True)


def _log1m_exp(t: float) -> float:
    """``ln(1 - e^{-t})``: ``expm1`` below ``ln 2``, where ``1 - e^{-t}``
    cancels, and ``log1p`` above, where ``1 - e^{-t}`` rounds to 1."""
    if t >= _LN2:
        return math.log1p(-math.exp(-t))
    return math.log(-math.expm1(-t)) if t > 0.0 else -math.inf


def _log1m_exp_of_log(z: float) -> float:
    """``ln(1 - e^{-e^z})``, ``z`` where ``e^z`` is below e^-40 (or 0)."""
    return z if z < -40.0 else _log1m_exp(math.exp(z))


def _refuse_divergent_tail(model: DistributionModel, psi: WeightFunction,
                           gamma: float, residual: bool = False):
    """``ConstraintError``, before any closed form or quadrature, where
    ``int^inf psi K (-ln K)^gamma dx`` diverges: with tail index ``a``
    (``-ln K ~ C x^{-a}``) and weight growth ``p`` (``psi ~ x^p``) the
    integrand decays like ``x^{p - a gamma}``. The residual kernel decays
    like ``x^{p - a} (ln x)^gamma``: the rule at ``gamma = 1``. An
    undeclared exponent (``None``) decides nothing."""
    a, p = model.tail_index, psi.growth
    if a is not None and p is not None and (
            (1.0 if residual else gamma) <= (p + 1.0) / a):
        raise ConstraintError(
            f"{model.family} tail index {a:g} with weight {psi.tag!r} ~ "
            f"x^{p:g}: integral diverges for gamma "
            f"{'> 0' if residual else f'<= {(p + 1.0) / a:g}'}, got {gamma:g}")


def make_power(b: float, c: float) -> DistributionModel:
    """Power distribution ``K(x) = (x/b)^c`` on ``(0, b)``."""
    require_positive(b=b, c=c)

    def closed(p, g):
        # b^{p+1} c^g / (c + p + 1)^{g+1}, with the ratio in log space: it
        # underflows to 0 rather than overflows for very large g
        return (b ** (p + 1.0) / c
                * math.exp(-(g + 1.0) * math.log1p((p + 1.0) / c)))

    log_b, log_b_c = math.log(b), math.log(b / c)  # lambda(x) = c / x

    return DistributionModel(
        cdf=lambda x: _pow(np.clip(np.asarray(x, float) / b, 0.0, 1.0), c),
        pdf=lambda x: c * x ** (c - 1.0) / b ** c if 0.0 < x < b else 0.0,
        quantile=lambda u: b * _pow(u, 1.0 / c),
        support=(0.0, b),
        family="power", params={"b": b, "c": c},
        closed_wfgcpe=closed,
        log_cdf=lambda x: (c * (math.log(x) - log_b) if 0.0 < x < b
                           else (0.0 if x >= b else -math.inf)),
        log_survival=lambda x: (
            _log1m_exp(c * (log_b - math.log(x))) if 0.0 < x < b
            else (-math.inf if x >= b else 0.0)),
        quantile_logs=lambda lu, lw: (b * math.exp(lu / c), lu / c + log_b,
                                      lu / c + log_b_c),
    )


def make_uniform_shifted(a: float) -> DistributionModel:
    """Uniform distribution on ``(a, a + 1)`` with ``a >= 0``."""
    require_nonnegative(a=a)

    def closed(p, g):
        # (a + t)^p expanded binomially, for integer p only
        if not p.is_integer():
            return None
        n = int(p)
        return sum(math.comb(n, k) * a ** (n - k) * (k + 2.0) ** -(g + 1.0)
                   for k in range(n, -1, -1))

    def quantile_logs(lu, lw):  # lambda = 1/u
        x = a + math.exp(lu)
        return x, math.log(x) if a else lu, lu

    return DistributionModel(
        cdf=lambda x: np.clip(np.asarray(x, float) - a, 0.0, 1.0),
        pdf=lambda x: 1.0 if a < x < a + 1.0 else 0.0,
        quantile=lambda u: a + np.asarray(u, float),
        support=(a, a + 1.0),
        family="uniform_shifted", params={"a": a},
        closed_wfgcpe=closed,
        log_cdf=lambda x: (math.log(x - a) if a < x < a + 1.0
                           else (0.0 if x >= a + 1.0 else -math.inf)),
        log_survival=lambda x: (math.log1p(a - x) if a < x < a + 1.0
                                else (-math.inf if x >= a + 1.0 else 0.0)),
        quantile_logs=quantile_logs,
    )


def make_frechet(b: float, c: float) -> DistributionModel:
    """Frechet distribution ``K(x) = exp(-b x^{-c})`` on ``(0, inf)``.

    The entropy for weight ``x^p`` is finite only for
    ``gamma > (p + 1) / c`` (tail index ``c``); below that threshold the
    defining integral diverges and ``_refuse_divergent_tail`` refuses it.
    """
    require_positive(b=b, c=c)

    def closed(p, g):
        m = p + 1.0
        if g <= m / c:  # divergent, with or without a declared tail index
            return None
        return b ** (m / c) * _gamma(g - m / c) / (c * _gamma(g + 1.0))

    def cdf(x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(x > 0, np.exp(-b * x ** -c), 0.0)[()]

    def quantile(u):  # inf at u = 1, where b / -ln u is b / -0.0 = -inf
        u = np.asarray(u, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(u < 1.0, _pow(b / -np.log(u), 1.0 / c),
                            np.inf)[()]

    log_b, log_bc = math.log(b), math.log(b * c)

    def quantile_logs(lu, lw):  # lambda = b c x^{-c-1}; x^{c+1} overflows
        lx = (log_b - _log_neg_log(lu, lw)) / c
        return (math.exp(lx) if lx < 709.0 else math.inf, lx,
                (c + 1.0) * lx - log_bc)

    return DistributionModel(
        cdf=cdf,
        pdf=lambda x: b * c * x ** (-c - 1.0) * math.exp(-b * x ** -c)
        if x > 0 else 0.0,
        quantile=quantile,
        support=(0.0, math.inf),
        family="frechet", params={"b": b, "c": c},
        closed_wfgcpe=closed,
        log_cdf=lambda x: -b * x ** -c if x > 0 else -math.inf,
        log_survival=lambda x: _log1m_exp(b * x ** -c) if x > 0 else 0.0,
        tail_index=c,
        quantile_logs=quantile_logs,
    )


def _weibull(theta: float, k: float, family: str,
             params: dict) -> DistributionModel:
    """Weibull ``K(x) = 1 - exp(-theta x^k)`` on ``(0, inf)``, ``k`` 1 or 2;
    ``params`` holds ``theta`` under the caller's name. ``theta x^k`` is
    ``theta x x^{k-1}``, and the root at ``k = 2`` is ``sqrt``, not ``**``.
    """
    require_positive(**params)
    j = k - 1.0
    root = math.sqrt if k == 2 else float

    def cdf(x):
        x = np.asarray(x, float)
        return np.where(x > 0, -np.expm1(-theta * x * x ** j), 0.0)[()]

    def quantile(u):  # inf at u = 1, where log1p(-1) = -inf
        with np.errstate(divide="ignore"):
            t = -np.log1p(-np.asarray(u, float)) / theta
        return np.sqrt(t) if k == 2 else t

    log_theta, log_kk_theta = math.log(theta), math.log(k ** k * theta)

    def quantile_logs(lu, lw):
        # lambda = k theta x^{k-1} (1 - u) / u, theta x^k = t = -ln(1 - u);
        # where u underflows, ln t = ln u to within u
        t = -lw
        lt = math.log(t) if t > 0.0 else lu
        return (root(t / theta), (lt - log_theta) / k,
                lu - lw - (log_kk_theta + j * lt) / k)

    return DistributionModel(
        cdf=cdf,
        pdf=lambda x: k * theta * x ** j * math.exp(-theta * x * x ** j)
        if x > 0 else 0.0,
        quantile=quantile,
        support=(0.0, math.inf),
        family=family, params=params,
        log_cdf=lambda x: (_log1m_exp(theta * x * x ** j) if x > 0
                           else -math.inf),
        log_survival=lambda x: -theta * x * x ** j if x > 0 else 0.0,
        tail_index=math.inf,
        quantile_logs=quantile_logs,
    )


def make_weibull_square(theta: float) -> DistributionModel:
    """Weibull with shape 2: ``K(x) = 1 - exp(-theta x^2)`` on ``(0, inf)``."""
    return _weibull(theta, 2.0, "weibull_square", {"theta": theta})


def make_exponential(rate: float) -> DistributionModel:
    """Exponential distribution ``K(x) = 1 - exp(-rate x)`` (DFR boundary)."""
    return _weibull(rate, 1.0, "exponential", {"rate": rate})


def make_custom(cdf, pdf, quantile, support, family="custom",
                params=None) -> DistributionModel:
    """Wrap user-supplied functions, validating the model invariants.

    Validation probes ``K(Q(u)) = u`` on a 1024-point grid and checks
    that the density integrates to one.
    """
    lo, hi = support
    if lo < 0 or not lo < hi:
        raise DomainError(f"invalid support {support}")
    model = DistributionModel(cdf=cdf, pdf=pdf, quantile=quantile,
                              support=(float(lo), float(hi)),
                              family=family, params=params or {})
    _validate_model(model)
    return model


def _validate_model(model: DistributionModel):
    us = np.linspace(0.0, 1.0, _PROBE_POINTS + 2)[1:-1]
    for u in us:
        k = model.cdf(model.quantile(u))
        if abs(k - u) > 1e-9:
            raise ValidationError(
                f"quantile/CDF mismatch at u={u}: K(Q(u))={k}")
    total = integrate(Integrand(model.pdf, *model.support)).value
    if abs(total - 1.0) > 1e-8:
        raise ValidationError(f"density integrates to {total}, not 1")


# ---------------------------------------------------------------------------
# Proportional reversed hazard (PRH) model: K2 = K1^eta. The transform
# keeps the base's tail index, so each identity below passes the
# divergence gate at its lowest order gamma before any quadrature.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrhParameter:
    """Proportionality constant of the reversed hazard model."""

    eta: float

    def __post_init__(self):
        require_positive(eta=self.eta)


@dataclass(frozen=True)
class PrhExpectationTerms:
    """The two expectation terms of the PRH decomposition at one order."""

    e_term: float
    e_tilde_term: float
    gamma: float


def _as_eta(eta) -> float:
    """``eta`` as a float, refused unless finite and positive."""
    e = eta.eta if isinstance(eta, PrhParameter) else float(eta)
    require_positive(eta=e)
    return e


def prh_transform(base: DistributionModel, eta) -> DistributionModel:
    """Model with CDF ``K1^eta``, PDF ``eta K1^(eta-1) k1``, same support;
    its reversed hazard is ``eta lambda1``, at ``ln K1 = ln K2 / eta``."""
    e = _as_eta(eta)
    log_e, base_logs = math.log(e), base.quantile_logs

    def quantile_logs(lu, lw):
        # 1 - u^{1/eta} = (1 - u)/eta where u rounds to 1
        x, lx, l1 = base_logs(lu / e, _log1m_exp(-lu / e) if lu < -_NEAR_ONE
                              else lw - log_e)
        return x, lx, l1 - log_e

    lc = base.log_cdf

    def pdf(x):
        k1 = math.exp(lc(x))
        return e * k1 ** (e - 1.0) * base.pdf(x) if k1 > 0.0 else 0.0

    return DistributionModel(
        cdf=lambda x: _pow(base.cdf(x), e), pdf=pdf,
        quantile=lambda u: base.quantile(_pow(u, 1.0 / e)),
        support=base.support,
        family="prh", params={"eta": e, "base": base.family, **base.params},
        log_cdf=lambda x: e * lc(x),
        # from ln K1, exact also where K1^eta rounds to 1
        log_survival=lambda x: _log1m_exp(-e * lc(x)),
        tail_index=base.tail_index,  # -ln K1^eta = eta (-ln K1)
        quantile_logs=quantile_logs,
    )


def _prh_term(base: DistributionModel, e: float, psi: WeightFunction,
              gamma: float, tilde: bool = False) -> float:
    """``E`` (``Et`` with ``tilde``) of ``prh_expectation_terms``, in
    ``v = K1(x) = u^{1/eta}``: ``du = eta v^{eta-1} dv``, ``-ln u = -eta
    ln v`` and ``1/lambda1 = e^l``. For ``psi = x^p``, ``x psi`` is
    ``x^{p+1}`` and ``x psi'`` is ``p x^p``.
    """
    require_positive(gamma=gamma)
    if tilde and psi.derivative is not None and psi.monotonicity == "constant":
        return 0.0
    p, fn = psi.power, psi.psi_prime if tilde else psi.psi
    h, n, s = ((lambda x: x * fn(x)), 0.0, 1.0) if p is None else (
        None, p if tilde else p + 1.0, p if tilde else 1.0)
    q = integrate(_quantile_kernel(
        base, h, base.support[0],
        (gamma - 1.0, 0.0, e - 1.0, 0.0, 1.0 if tilde else 0.0), n))
    return float(s * e ** gamma * q.value / _gamma(gamma))


def prh_expectation_terms(base: DistributionModel, eta,
                          psi: WeightFunction, gamma: float,
                          ) -> PrhExpectationTerms:
    """Expectation terms of the decomposition, evaluated at order ``gamma``.

    With ``X2`` distributed as the transformed model and ``u = K2(X2)``
    uniform, both expectations become single integrals on (0, 1):

    ``E  = (1/Gamma(g)) int_0^1 Q2(u) psi(Q2(u)) (-ln u)^(g-1) du``
    ``Et = (1/Gamma(g)) int_0^1 Q2(u) psi'(Q2(u)) (-ln u)^(g-1) / lambda1 du``

    Both pass the divergence gate first: ``E`` at order ``g``, and ``Et``,
    whose x-space integrand ``x psi' K2 (-ln K2)^(g-1)`` decays like
    ``x^{p - a(g-1)}``, at ``g - 1`` unless ``psi`` tends to a constant.
    """
    e = _as_eta(eta)
    require_positive(gamma=gamma)
    if psi.growth != 0.0:
        try:
            _refuse_divergent_tail(base, psi, gamma - 1.0)
        except ConstraintError as exc:
            raise ConstraintError(f"Et, of order gamma - 1: {exc}") from None
    _refuse_divergent_tail(base, psi, gamma)
    return PrhExpectationTerms(_prh_term(base, e, psi, gamma),
                               _prh_term(base, e, psi, gamma, True), gamma)


def prh_wfgcpe(base: DistributionModel, eta, psi: WeightFunction,
               gamma: float) -> float:
    """Entropy of the transformed model via the expectation decomposition:

    ``E(g) - E(g + 1) - eta^{-1} Et(g + 1)``.
    """
    e = _as_eta(eta)
    _refuse_divergent_tail(base, psi, gamma)
    term = partial(_prh_term, base, e, psi)
    return term(gamma) - term(gamma + 1.0) - term(gamma + 1.0, True) / e


def prh_recurrence_step(base: DistributionModel, eta, psi: WeightFunction,
                        gamma: float, prior: float) -> float:
    """Order ``gamma + 1`` entropy from the order ``gamma`` value ``prior``:

    ``E(g) - E(g + 2) - eta^{-1} [Et(g + 1) + Et(g + 2)] - prior``.
    """
    return prh_n_step(base, eta, psi, gamma, 1, prior)


def prh_n_step(base: DistributionModel, eta, psi: WeightFunction,
               gamma: float, n: int, prior: float) -> float:
    """Closed n-step recurrence for the order ``gamma + n`` entropy.

    ``prior`` is the order ``gamma`` value. Equals ``n`` chained
    applications of ``prh_recurrence_step``, which is its ``n = 1`` case:
    there the pair ``E(g + n) + s E(g + 1)``, ``s = (-1)^n``, cancels and
    is not integrated.
    """
    if not (n >= 1 and float(n).is_integer()):
        raise DomainError(f"require integer n >= 1, got {n}")
    if not math.isfinite(prior):
        raise DomainError(f"require a finite prior, got {prior}")
    e = _as_eta(eta)
    _refuse_divergent_tail(base, psi, gamma)
    term = partial(_prh_term, base, e, psi)
    sign = (-1.0) ** n
    e_n, e_1 = (term(gamma + n), term(gamma + 1.0)) if n > 1 else (0.0, 0.0)
    return float(e_n - term(gamma + n + 1.0) - sign * (term(gamma) - e_1)
                 + (sign * term(gamma + 1.0, True)
                    - term(gamma + n + 1.0, True)) / e
                 + sign * prior)


def mean_inactivity_time(model: DistributionModel, t: float) -> float:
    """``mu(t) = int_lo^t K(x) dx / K(t)`` for ``t`` inside the support:
    ``int_0^1 e^l du`` in ``u = K(x)/K(t)``, as ``K dx = e^l du``, on the
    past lifetime's nodes (see ``_quantile_kernel``)."""
    lo, hi = model.support
    if not (lo < t <= hi and math.isfinite(t)):
        raise DomainError(f"t={t} not finite in support ({lo}, {hi})")
    return integrate(_quantile_kernel(model, None, lo,
                                      (0.0, 0.0, 0.0, 0.0, 1.0), t=t)).value
