"""Stochastic-order verifiers, bound checkers, and the Monte Carlo harness.

Order relations, DFR and log-concavity are decided on one probe grid of
quantiles (with explicit witnesses on violation); the decreasing-convex
order by its integrated-CDF criterion. A verdict holds on the grid, which
is not a proof. The Monte Carlo engine draws by inverse transform from
one PCG64DXSM stream per seed, in which replicate ``i`` of ``n`` draws
owns the words ``[i n, (i + 1) n)`` and is reached by ``advance``, so the
draws are bit-identical for any evaluation order or chunking. Quantiles,
``Psi``, the sort and the spacings are whole-array operations over fixed
chunks of 2^16 draws, which run on every CPU the process may use; the
values do not depend on the CPU count. For the self-density weight
(``Psi = K``) the spacings are those of the sorted uniforms themselves,
``K(Q(u)) = u``, whatever the population (Pyke 1965), so no quantile or
``Psi`` is evaluated.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gamma as _gamma, ndtr

from .distributions import (DistributionModel, _log_neg_log,
                            _refuse_divergent_tail, make_power, prh_transform)
from .empirical import (_check_moment_args, _estimator_coefficients,
                        _exact_moments, _psi_is_own_cdf)
from .errors import (ConstraintError, DomainError, PreconditionUnmet,
                     WfgcpeError, require_positive)
from .measures import _log_kernel_integral, tau, weighted_cpe, wfgcpe
from .quadrature import Integrand, integrate
from .weights import (WeightFunction, _array_call, _elementwise, power_weight,
                      weight_one)

HOLDS = "holds_on_grid"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

_GRID_TOL = 1e-9

#: Tail probabilities of every probe grid: 2^-k and 1 - 2^-k, k <= 33
_TAIL_PROBS = np.ldexp(1.0, -np.arange(1, 34))
_TAIL_PROBS = np.concatenate([_TAIL_PROBS, 1.0 - _TAIL_PROBS])

#: Draws per Monte Carlo chunk: bounds memory at any replicate count. It
#: is fixed, not tied to the thread count, because ``@`` rounds by row
#: blocking. At 512 KiB per float array, 10^5 x 500 draws took 1.05 s on
#: one thread of a 2-vCPU host, against 1.09 s at 2^17 and 1.18 s at 2^18.
_CHUNK_ELEMENTS = 1 << 16

#: Threads that run Monte Carlo chunks: the CPUs this process may use.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:  # no affinity mask on this platform
    _WORKERS = os.cpu_count() or 1


@dataclass(frozen=True)
class OrderVerdict:
    relation: str
    status: str
    grid_size: int
    witness: Optional[tuple] = None

    @property
    def holds(self) -> bool:
        return self.status == HOLDS


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numeric identity or inequality verification."""

    name: str
    lhs: float
    rhs: float
    holds: bool
    slack: float
    note: str = ""


def _verdict(name: str, lhs: float, rhs: float, upper: bool,
             tol: float = 1e-9) -> CheckReport:
    """The check ``lhs <= rhs`` (an upper bound) or ``lhs >= rhs`` to
    within ``tol``, named with any ``{}`` in ``name`` filled by ``upper``
    or ``lower``; the slack is positive when the check holds."""
    lhs, rhs = float(lhs), float(rhs)  # scipy's gamma gives numpy floats
    slack = rhs - lhs if upper else lhs - rhs
    holds = lhs <= rhs + tol if upper else lhs >= rhs - tol
    return CheckReport(name.format("upper" if upper else "lower"), lhs, rhs,
                       holds, slack)


def _inapplicable(name: str, lhs: float, why) -> CheckReport:
    """A bound whose hypotheses fail: reported, and not a failure."""
    return CheckReport(name, lhs, math.nan, True, math.nan,
                       note=f"inapplicable: {why}")


def _probe_grid(models, grid: int) -> np.ndarray:
    """Every model's quantiles at ``grid`` interior probabilities and at
    the tail probabilities, merged and sorted: dense where any has mass."""
    us = np.concatenate([np.linspace(0.0, 1.0, grid + 2)[1:-1], _TAIL_PROBS])
    xs = np.concatenate([_elementwise(m.quantile, us) for m in models])
    return np.unique(xs[np.isfinite(xs)])


def check_order(m1: DistributionModel, m2: DistributionModel,
                relation: str, grid: int = 256) -> OrderVerdict:
    """Grid-decide whether ``m1`` precedes ``m2`` in the given relation.

    ``relation`` is one of ``"st"``, ``"hr"``, ``"disp"``, ``"dcx"``.
    A ``violated`` verdict carries a witness: the point ``(x,)`` of the
    probe grid, or for disp the probabilities ``(u, v)``.
    """
    if not isinstance(grid, (int, np.integer)) or grid < 64:
        raise DomainError(f"require an integer grid >= 64, got {grid!r}")
    if relation == "disp":
        # Q1(v) - Q1(u) <= Q2(v) - Q2(u) for all u < v, i.e.
        # d = Q2 - Q1 is nondecreasing; the witness (u, v) is the first
        # u = us[i] with a later d[j] < d[i], then the first such v = us[j]
        us = np.linspace(0.0, 1.0, grid + 2)[1:-1]
        d = _elementwise(m2.quantile, us) - _elementwise(m1.quantile, us)
        later_min = np.fmin.accumulate(d[::-1])[::-1][1:]
        bad = np.flatnonzero(later_min < d[:-1] - _GRID_TOL)
        if bad.size:
            i = bad[0]
            j = i + 1 + np.flatnonzero(d[i + 1:] < d[i] - _GRID_TOL)[0]
            return OrderVerdict("disp", VIOLATED, grid,
                                (float(us[i]), float(us[j])))
        return OrderVerdict("disp", HOLDS, grid)
    if relation not in ("st", "hr", "dcx"):
        raise DomainError(f"unknown relation {relation!r}")
    xs = _probe_grid((m1, m2), grid)
    k1, k2 = (_elementwise(m.cdf, xs) for m in (m1, m2))
    if relation == "st":  # K2 <= K1
        bad = np.flatnonzero(k2 > k1 + _GRID_TOL)
    elif relation == "hr":
        # Kbar2 / Kbar1 nondecreasing where both survivals are positive; a
        # fall within what errors of 2 ulps of 1 in K1 and K2 make is noise
        s1, s2 = 1.0 - k1, 1.0 - k2
        keep = (s1 > 1e-12) & (s2 > 1e-12)
        s1, s2, xs = s1[keep], s2[keep], xs[keep]
        if xs.size < 2:
            return OrderVerdict("hr", INCONCLUSIVE, grid)
        ratios = s2 / s1
        noise = 4.5e-16 * ratios * (1.0 / s1 + 1.0 / s2)
        bad = 1 + np.flatnonzero(ratios[1:] < ratios[:-1] - _GRID_TOL
                                 - noise[1:] - noise[:-1])
    else:
        # E phi(X1) <= E phi(X2) for all decreasing convex phi iff every
        # int_lo^t (K1 - K2) dx <= 0 (Shaked & Shanthikumar 2007, ch. 4);
        # K1 - K2 >= K1(x_{i-1}) - K2(x_i) on each step: a lower sum
        below = np.concatenate(([0.0], k1[:-1])) - k2
        steps = np.diff(xs, prepend=min(m1.support[0], m2.support[0]))
        bad = np.flatnonzero(np.cumsum(below * steps) > _GRID_TOL)
    if bad.size:
        return OrderVerdict(relation, VIOLATED, grid, (float(xs[bad[0]]),))
    return OrderVerdict(relation, HOLDS, grid)


def dispersive_implies_wfgcpe_order(m1: DistributionModel,
                                    m2: DistributionModel,
                                    psi: WeightFunction,
                                    gamma: float) -> CheckReport:
    """Less dispersed implies smaller entropy, for increasing weights."""
    if psi.monotonicity != "increasing":
        raise PreconditionUnmet(
            f"weight {psi.tag!r} is not increasing")
    if not check_order(m1, m2, "disp").holds:
        raise PreconditionUnmet("dispersive order does not hold on grid")
    lhs = wfgcpe(m1, psi, gamma).value
    rhs = wfgcpe(m2, psi, gamma).value
    return _verdict("disp_implies_cpe_order", lhs, rhs, upper=True)


def _slopes_monotone(xs: np.ndarray, logs: np.ndarray, sign: float,
                     noise: np.ndarray) -> bool:
    """Whether ``logs`` is convex (``sign = 1``) or concave (``-1``) where
    finite, past turns that its errors ``noise`` can make: monotone divided
    differences, valid on an uneven ``xs``."""
    keep = np.isfinite(logs)
    dx, noise = np.diff(xs[keep]), noise[keep]
    slopes = sign * np.diff(logs[keep]) / dx
    slack = (noise[1:] + noise[:-1]) / dx
    return slopes.size > 1 and bool(np.all(
        np.diff(slopes) >= -_GRID_TOL - slack[1:] - slack[:-1]))


def is_dfr(model: DistributionModel, grid: int = 512) -> bool:
    """Decreasing failure rate, via log-convexity of the survival function
    on the model's probe grid, where ``K`` may err by 2 ulps of 1 (as hr)."""
    xs = _probe_grid((model,), grid)
    logs = _elementwise(model.log_survival, xs)
    return _slopes_monotone(xs, logs, 1.0, 4.5e-16 * np.exp(-logs))


def hr_dfr_implies_wfgcpe_order(m1: DistributionModel,
                                m2: DistributionModel,
                                psi: WeightFunction,
                                gamma: float) -> CheckReport:
    """Hazard-rate order plus one DFR member implies the entropy order."""
    if not check_order(m1, m2, "hr").holds:
        raise PreconditionUnmet("hazard rate order does not hold on grid")
    if not (is_dfr(m1) or is_dfr(m2)):
        raise PreconditionUnmet("neither model is DFR on the probe grid")
    lhs = wfgcpe(m1, psi, gamma).value
    rhs = wfgcpe(m2, psi, gamma).value
    return _verdict("hr_dfr_implies_cpe_order", lhs, rhs, upper=True)


def mean_value_identity(m1: DistributionModel, m2: DistributionModel,
                        psi: WeightFunction, gamma: float,
                        ) -> tuple[CheckReport, CheckReport]:
    """Probabilistic mean-value representation under the usual stochastic
    order: the entropy of the smaller variable equals ``E[tau(X2)]`` plus a
    correction through an auxiliary density proportional to ``K1 - K2``.

    Returns the identity check and the corollary lower-bound check.
    """
    if not check_order(m1, m2, "st").holds:
        raise PreconditionUnmet("usual stochastic order does not hold")
    mu1, mu2 = m1.mean(), m2.mean()
    if abs(mu1 - mu2) <= 1e-9:
        raise PreconditionUnmet(f"means are equal ({mu1})")
    # entropy first: its gate, not the tau integrals, refuses a divergent tail
    lhs = wfgcpe(m1, psi, gamma).value
    lo = m1.support[0]  # both kernels vanish off m1's support

    # E[tau1(X2)] collapses by Fubini to a single integral against K2.
    lc, lc2, p, exp = m1.log_cdf, m2.log_cdf, psi.psi, math.exp
    e_tau_x2 = _log_kernel_integral(m1, lambda x: p(x) * exp(lc2(x)), gamma,
                                    lo, "tau")[0]

    # E[tau1'(V)] with k_V = (K1 - K2) / (E X2 - E X1); tau1' <= 0.
    e_tau_prime_v = -_log_kernel_integral(
        m1, lambda x: p(x) * (exp(lc(x)) - exp(lc2(x))), gamma, lo,
        "tau")[0] / (mu2 - mu1)

    rhs = e_tau_x2 + e_tau_prime_v * (mu1 - mu2)
    identity = CheckReport("mean_value_identity", lhs, rhs,
                           abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs)),
                           abs(lhs - rhs))
    bound = _verdict("mean_value_lower_bound", lhs, e_tau_x2, upper=False)
    return identity, bound


# ---------------------------------------------------------------------------
# Bound suite
# ---------------------------------------------------------------------------

def bound_suite(model: DistributionModel, psi: WeightFunction, gamma: float,
                xi: Optional[WeightFunction] = None,
                other: Optional[DistributionModel] = None,
                ) -> list[CheckReport]:
    """Evaluate every applicable lower/upper bound on the entropy.

    Inapplicable bounds (failed hypotheses such as unbounded support or a
    non-monotone weight) are reported with ``note`` explaining why and do
    not fail. The log-sum bound is implemented in the form that the
    log-sum inequality actually yields, with the ``1/Gamma(gamma+1)``
    factor on the right-hand side; its ``ln D + H``, one integral in ``u``,
    is inapplicable where it diverges or the density is 0 in the support.
    """
    reports = []
    cpe = wfgcpe(model, psi, gamma).value
    lo, hi = model.support
    finite = math.isfinite(hi)
    g1 = _gamma(gamma + 1.0)
    p = psi.psi
    # the mean is the residual kernel at psi = 1: its rule says where the
    # mean diverges
    try:
        _refuse_divergent_tail(model, weight_one(), 1.0, residual=True)
        finite_mean = True
    except ConstraintError:
        finite_mean = False

    # (a) -ln K >= 1 - K
    rhs_a = _log_kernel_integral(model, psi, gamma, lo, "one_minus")[0]
    reports.append(_verdict("one_minus_cdf_lower_bound", cpe, rhs_a,
                            upper=False))

    # (b) log-sum: Gamma(gamma+1) CPE >= D(gamma) e^{H(X)}, with
    # ln D + H = int_0^1 ln(psi(x) u (-ln u)^gamma / k(x)) du at x = Q(u),
    # as ln psi(x) + gamma ln(-ln u) + ln(1/lambda), ln psi = -x for e^{-x}
    # (only its tag says so): -E[X] = -inf makes the bound 0. H diverges
    # at a zero density inside the support; one at an end has no mass
    exp_neg = psi.tag == "expneg" and psi.growth == -math.inf

    def f_b(node):
        lu, lw, lwt = node
        x, lx, l = model.quantile_logs(lu, lw)
        if l == math.inf and lo < x < hi:
            raise ZeroDivisionError(f"zero density at x={x!r}")
        log_p = (-x if exp_neg else psi.power * lx if psi.power
                 else math.log(p(x)))
        return math.exp(lwt) * (log_p + gamma * _log_neg_log(lu, lw) + l)

    try:
        ln_dh = (-math.inf if exp_neg and not finite_mean else
                 integrate(Integrand(f_b, 0.0, 1.0, True)).value)
        rhs_b = math.exp(ln_dh) / g1
        reports.append(_verdict("log_sum_entropy_lower_bound", cpe, rhs_b,
                                upper=False))
    except (WfgcpeError, ValueError, OverflowError,
            ZeroDivisionError) as exc:  # divergent D or H: bound vacuous
        reports.append(_inapplicable("log_sum_entropy_lower_bound", cpe, exc))

    # (c) Jensen on the decreasing convex tau: CPE >= tau(mean)
    if psi.monotonicity != "decreasing":
        reports.append(_inapplicable("tau_at_mean_lower_bound", cpe,
                                     "weight not decreasing"))
    elif not finite_mean:
        reports.append(_inapplicable("tau_at_mean_lower_bound", cpe,
                                     "infinite mean"))
    else:
        rhs_c = tau(model, psi, gamma, model.mean())
        reports.append(_verdict("tau_at_mean_lower_bound", cpe, rhs_c,
                                upper=False))

    # (d) comparison against psi(s) times the unweighted measure
    if finite and psi.monotonicity in ("increasing", "decreasing", "constant"):
        unweighted = wfgcpe(model, weight_one(), gamma).value
        scaled = psi(hi) * unweighted
        reports.append(_verdict("monotone_weight_{}_bound", cpe, scaled,
                                psi.monotonicity != "decreasing"))
    else:
        reports.append(_inapplicable(
            "monotone_weight_bound", cpe,
            "needs finite support and monotone weight"))

    # (e) Jensen with psi = xi^gamma against the weighted CPE of xi
    if xi is not None and finite:
        psi_pow = _power_of_weight(xi, gamma)
        lhs_e = wfgcpe(model, psi_pow, gamma).value
        rhs_e = hi ** (1.0 - gamma) * weighted_cpe(model, xi) ** gamma / g1
        reports.append(_verdict("jensen_power_{}_bound", lhs_e, rhs_e,
                                gamma < 1.0))
    elif xi is not None:
        reports.append(_inapplicable("jensen_power_bound", cpe,
                                     "unbounded support"))

    # (f) sum of independents dominates each summand
    if other is not None:
        reports.append(sum_bound_check(model, other, psi, gamma))
    return reports


def _power_of_weight(xi: WeightFunction, gamma: float) -> WeightFunction:
    if xi.power is not None:  # (x^p)^gamma = x^{p gamma}
        return power_weight(xi.power * gamma)
    return WeightFunction(lambda x: xi(x) ** gamma, None, None,
                          xi.monotonicity, f"{xi.tag}^{gamma:g}")


def _is_log_concave_pdf(model: DistributionModel, grid: int = 512) -> bool:
    xs = _probe_grid((model,), grid)
    with np.errstate(divide="ignore"):
        logs = np.log(_elementwise(model.pdf, xs))
    return _slopes_monotone(xs, logs, -1.0, 0.0 * xs)


def convolution_cdf_grid(m1: DistributionModel, m2: DistributionModel,
                         grid: int = 4096,
                         ) -> tuple[np.ndarray, np.ndarray]:
    """CDF of ``X1 + X2`` on a uniform grid, by trapezoid convolution.

    Desk-scale helper for the sum bound; both supports must be finite.
    """
    lo1, hi1 = m1.support
    lo2, hi2 = m2.support
    if math.isinf(hi1) or math.isinf(hi2):
        raise DomainError("convolution helper requires finite supports")
    # both densities at one step: the wider support takes ``grid`` points
    step = max(hi1 - lo1, hi2 - lo2) / (grid - 1)
    d1, d2 = ([m.pdf(lo + step * k)
               for k in range(int((hi - lo) / step + 1e-9) + 1)]
              for m, (lo, hi) in ((m1, m1.support), (m2, m2.support)))
    dens = np.convolve(d1, d2) * step
    xs = (lo1 + lo2) + np.arange(dens.size) * step
    cdf = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * step)])
    cdf = np.clip(cdf / cdf[-1], 0.0, 1.0)
    return xs, cdf


def _grid_wfgcpe(xs: np.ndarray, cdf: np.ndarray, psi,
                 gamma: float) -> float:
    w = np.array([psi(x) for x in xs])
    inner = (cdf > 0.0) & (cdf < 1.0)
    term = np.zeros_like(cdf)
    term[inner] = w[inner] * cdf[inner] * (-np.log(cdf[inner])) ** gamma
    return float(np.trapezoid(term, xs)) / _gamma(gamma + 1.0)


def sum_bound_check(m1: DistributionModel, m2: DistributionModel,
                    psi: WeightFunction, gamma: float) -> CheckReport:
    """Entropy of an independent sum dominates each summand's entropy,
    for log-concave densities and increasing weights. The sum's entropy is
    evaluated on the convolution grid itself (trapezoid), so the
    comparison tolerance is grid-level, not quadrature-level."""
    if psi.monotonicity != "increasing":
        raise PreconditionUnmet(f"weight {psi.tag!r} is not increasing")
    if not (_is_log_concave_pdf(m1) and _is_log_concave_pdf(m2)):
        raise PreconditionUnmet("both densities must be log-concave")
    xs, cdf = convolution_cdf_grid(m1, m2)
    lhs = _grid_wfgcpe(xs, cdf, psi, gamma)
    rhs = max(wfgcpe(m1, psi, gamma).value, wfgcpe(m2, psi, gamma).value)
    return _verdict("independent_sum_lower_bound", lhs, rhs, upper=False,
                    tol=1e-6)


def prh_bound_check(base: DistributionModel, eta: float,
                    psi: WeightFunction, gamma: float) -> CheckReport:
    """``CPE(X2) <= eta^gamma CPE(X1)`` for ``eta >= 1``; reversed below."""
    transformed = prh_transform(base, eta)
    lhs = wfgcpe(transformed, psi, gamma).value
    rhs = eta ** gamma * wfgcpe(base, psi, gamma).value
    return _verdict("prh_{}_bound", lhs, rhs, eta >= 1.0)


def find_st_counterexample(gammas=(0.5, 2.5), c_grid=None,
                           ) -> Optional[tuple[float, float]]:
    """Scan power-family pairs ``K1 = x^{c1}, K2 = x^{c2}`` with
    ``c1 <= c2`` (so ``X1 <= X2`` stochastically) for a pair whose entropy
    difference changes sign between the two orders, demonstrating that the
    usual stochastic order does not imply the entropy order."""
    if c_grid is None:
        c_grid = np.linspace(0.5, 6.0, 23)
    g1, g2 = gammas

    def f(c, g):  # the entropy of x^c with weight x
        return make_power(1.0, float(c)).closed_wfgcpe(1.0, g)

    for i, c1 in enumerate(c_grid):
        for c2 in c_grid[i:]:
            d1 = f(c1, g1) - f(c2, g1)
            d2 = f(c1, g2) - f(c2, g2)
            if d1 * d2 < 0:
                return float(c1), float(c2)
    return None


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationConfig:
    replicates: int
    n: int
    seed: int
    population: DistributionModel
    weight: WeightFunction
    gamma: float

    def __post_init__(self):
        for name in ("replicates", "n", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)):
                raise DomainError(f"require an integer {name}, got {value!r}")
        if self.replicates < 1:
            raise DomainError("require replicates >= 1")
        if self.seed < 0:
            raise DomainError(f"require a nonnegative seed, got {self.seed!r}")
        _check_moment_args(self.n, self.gamma)


@dataclass(frozen=True)
class SimulationSummary:
    mean: float
    variance: Optional[float]
    values: np.ndarray
    seed: int

    @property
    def variance_defined(self) -> bool:
        return self.variance is not None


def _draw_uniforms(seed: int, replicates: int, n: int,
                   start: int = 0) -> np.ndarray:
    """Uniforms of replicates ``start, ..., start + replicates - 1``, one
    row of ``n`` each, from the PCG64DXSM stream of ``seed``.

    A double takes one 64-bit word of the stream, so replicate ``i`` owns
    the words ``[i n, (i + 1) n)`` and is reached by ``advance``: a row
    is the same in any chunk and any evaluation order.
    """
    bits = np.random.PCG64DXSM(np.random.SeedSequence(seed))
    bits.advance(start * n)
    return np.random.Generator(bits).random((replicates, n))


def _spacings_from_uniforms(u: np.ndarray, population: DistributionModel,
                            weight: WeightFunction,
                            own_cdf: bool) -> np.ndarray:
    """Spacings ``Z`` of the antiderivative-transformed order statistics,
    one row per replicate. Independent of the fractional order.

    Where ``Psi`` is the population's own CDF (``own_cdf``, from
    ``_psi_is_own_cdf``), ``Psi(Q(u)) = u``: the spacings are those of
    the sorted uniforms. A self-density weight of another model takes the
    general path."""
    if own_cdf:
        return np.diff(np.sort(u, axis=1), axis=1)
    x = np.sort(_elementwise(population.quantile, u), axis=1)
    return np.diff(_elementwise(weight.big_psi, x), axis=1)


def _array_native(population: DistributionModel,
                  weight: WeightFunction) -> bool:
    """Whether the chunks of the general path may run on threads: where
    the model's quantile and the weight's ``Psi`` take arrays, probed on
    one row of two points. Callables written for floats (the quadrature
    fallback of ``Psi`` among them) are mapped holding the interpreter
    lock, so threads gain nothing on them, and ``quad`` is not documented
    as thread-safe. The self-density path only sorts and diffs, and runs
    on threads whatever the callables."""
    x = _array_call(population.quantile, np.array([[0.25, 0.75]]))
    return x is not None and _array_call(weight.big_psi, x) is not None


def simulate_estimator(config: SimulationConfig,
                       gammas=None) -> SimulationSummary | dict:
    """Simulate the plug-in estimator by inverse transform.

    With ``gammas`` given, the same draws are reused for each order and a
    dict order -> summary is returned (the draws dominate the cost).
    Replicates are processed in chunks of about ``_CHUNK_ELEMENTS`` draws
    on up to ``_WORKERS`` threads, the calling thread among them; every
    thread has ended when this returns. Each chunk writes its own rows, so
    the values are the same for any thread count.
    """
    if gammas is None:
        gammas_eff, single = [config.gamma], True
    else:
        gammas_eff, single = list(gammas), False
        if not gammas_eff:
            raise DomainError("require at least one order in gammas")
        for g in gammas_eff:
            require_positive(gamma=g)
    n, reps = config.n, config.replicates
    own_cdf = _psi_is_own_cdf(config.population, config.weight)
    coeffs = {g: _estimator_coefficients(n, g) for g in gammas_eff}
    sums = {g: np.empty(reps) for g in gammas_eff}
    rows = max(1, _CHUNK_ELEMENTS // n)
    starts = iter(range(0, reps, rows))

    def run_chunks():
        # Every thread claims the next chunk start from ``starts``: ``next``
        # on a range iterator is one step under the interpreter lock. The
        # body stays inline: a helper per chunk that freed its arrays on
        # return made the next chunk fault the heap back in.
        try:
            for start in starts:
                k = min(rows, reps - start)
                u = _draw_uniforms(config.seed, k, n, start)
                z = _spacings_from_uniforms(u, config.population,
                                            config.weight, own_cdf)
                for g, coeff in coeffs.items():
                    sums[g][start:start + k] = z @ coeff
        except BaseException:
            for _ in starts:  # the other threads stop after their chunk
                pass
            raise

    workers = min(-(-reps // rows), _WORKERS)
    if workers > 1 and (own_cdf or _array_native(config.population,
                                                  config.weight)):
        with ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(run_chunks) for _ in range(workers - 1)]
            run_chunks()
            for helper in helpers:
                helper.result()
    else:
        run_chunks()
    out = {}
    for g in gammas_eff:
        vals = sums[g] / _gamma(g + 1.0)
        var = float(np.var(vals, ddof=1)) if reps > 1 else None
        out[g] = SimulationSummary(float(vals.mean()), var, vals, config.seed)
    return out[config.gamma] if single else out


@dataclass(frozen=True)
class CltReport:
    ks_distance: float
    ks_threshold: float
    skewness: float
    excess_kurtosis: float
    passes: Optional[bool]
    moment_source: str


def _normal_fit(std: np.ndarray) -> tuple[float, float, float]:
    """Kolmogorov-Smirnov distance of ``std`` from the standard normal, and
    its biased skewness and excess kurtosis (``scipy.stats``' defaults).

    With ``Phi`` at the sorted values ``s_1 <= ... <= s_r``, the distance
    is ``max(max(i/r - Phi(s_i)), max(Phi(s_i) - (i - 1)/r))``.
    """
    mean = std.mean()
    dev = std - mean
    m2 = np.mean(dev ** 2)
    # scipy's test for a spread lost to rounding of the mean
    if not m2 > (1e-15 * mean) ** 2:
        raise PreconditionUnmet(
            "replicate estimates have zero or non-finite spread")
    r = std.size
    cdf = ndtr(np.sort(std))
    ks = max(np.max(np.arange(1, r + 1) / r - cdf),
             np.max(cdf - np.arange(r) / r))
    skew = np.mean(dev ** 3) / m2 ** 1.5
    kurt = np.mean(dev ** 4) / m2 ** 2 - 3.0
    return float(ks), float(skew), float(kurt)


def clt_diagnostic(config: SimulationConfig,
                   exact_moments: Optional[tuple[float, float]] = None,
                   ) -> CltReport:
    """Standardize replicate estimates and compare to a standard normal.

    Moments come from the exact formulas when available (Weibull shape-2
    or ``K = x^2`` population with weight ``x``; the population's own
    self-density weight), else from the Monte Carlo sample itself. The pass
    verdict applies the asymptotic Kolmogorov-Smirnov critical value with
    a 1.5 safety factor, asserted only for ``n >= 200``. Fewer than 2
    replicates, or estimates with zero spread, are refused.
    """
    if config.replicates < 2:
        raise PreconditionUnmet(
            f"require at least 2 replicates, got {config.replicates}")
    source = "provided"
    if exact_moments is None:
        exact_moments, source = _exact_moments(
            config.population, config.weight, config.n, config.gamma)

    summary = simulate_estimator(config)
    if exact_moments is None:
        if summary.variance <= 0.0:
            raise PreconditionUnmet("degenerate Monte Carlo variance")
        mean, var = summary.mean, summary.variance
    else:
        mean, var = exact_moments
        if var <= 0.0:
            raise PreconditionUnmet("degenerate exact variance")
    std = (summary.values - mean) / math.sqrt(var)
    ks, skew, kurt = _normal_fit(std)
    threshold = 1.36 / math.sqrt(config.replicates) * 1.5
    passes = bool(ks < threshold) if config.n >= 200 else None
    return CltReport(ks, threshold, skew, kurt, passes, source)


def consistency_profile(population: DistributionModel,
                        weight: WeightFunction, gamma: float,
                        sample_sizes=(100, 1000, 10000),
                        replicates: int = 200, seed: int = 0,
                        ) -> dict[int, float]:
    """Median absolute estimation error per sample size; the estimator's
    almost-sure convergence shows as a decreasing profile."""
    truth = wfgcpe(population, weight, gamma).value
    out = {}
    for idx, n in enumerate(sample_sizes):
        cfg = SimulationConfig(replicates, n, seed + idx, population,
                               weight, gamma)
        summary = simulate_estimator(cfg)
        out[n] = float(np.median(np.abs(summary.values - truth)))
    return out
