"""Typed refusals of out-of-domain parameters: a zero, negative, NaN or
infinite parameter (or a non-integer grid) gives ``DomainError`` at every
entry point, never a raw ``ZeroDivisionError``/``ValueError``/``TypeError``
nor a NaN, infinite or silently defaulted value."""

import math

import pytest

from wfgcpe.analysis import (SimulationConfig, check_order,
                             convolution_cdf_grid, hr_dfr_implies_wfgcpe_order,
                             mean_value_identity, prh_bound_check,
                             simulate_estimator)
from wfgcpe.distributions import (PrhParameter, make_exponential,
                                  make_frechet, make_power,
                                  make_uniform_shifted, make_weibull_square,
                                  mean_inactivity_time,
                                  prh_expectation_terms, prh_n_step,
                                  prh_recurrence_step, prh_transform,
                                  prh_wfgcpe)
from wfgcpe.empirical import (as_sample, empirical_cdf,
                              exact_moments_self_weight)
from wfgcpe.errors import DomainError, PreconditionUnmet
from wfgcpe.measures import (affine_wfgcpe, discrete_wfe,
                             rl_fractional_integral, tau)
from wfgcpe.weights import power_weight, weight_x

BASE = make_power(1.0, 2.0)
PSI = weight_x()
SIM = SimulationConfig(20, 5, 1, BASE, PSI, 0.5)
NON_FINITE = (math.nan, math.inf)

PRH_ENTRY_POINTS = {
    "PrhParameter": PrhParameter,
    "prh_transform": lambda eta: prh_transform(BASE, eta),
    "prh_expectation_terms":
        lambda eta: prh_expectation_terms(BASE, eta, PSI, 1.0),
    "prh_wfgcpe": lambda eta: prh_wfgcpe(BASE, eta, PSI, 1.0),
    "prh_recurrence_step":
        lambda eta: prh_recurrence_step(BASE, eta, PSI, 1.0, 0.1),
    "prh_n_step": lambda eta: prh_n_step(BASE, eta, PSI, 1.0, 2, 0.1),
    "prh_bound_check": lambda eta: prh_bound_check(BASE, eta, PSI, 1.0),
}


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(PRH_ENTRY_POINTS))
def test_prh_entry_points_refuse_eta(entry, eta):
    with pytest.raises(DomainError):
        PRH_ENTRY_POINTS[entry](eta)


def _refusals():
    for v in NON_FINITE:
        yield prh_expectation_terms, (BASE, 1.5, PSI, v)
        yield make_power, (v, 2.0)
        yield make_power, (1.0, v)
        yield make_frechet, (v, 4.0)
        yield make_frechet, (1.0, v)
        yield make_uniform_shifted, (v,)
        yield make_weibull_square, (v,)
        yield make_exponential, (v,)
        yield power_weight, (v,)
        yield rl_fractional_integral, (math.exp, math.log1p, v, 0.0, 1.0)
        yield prh_n_step, (BASE, 1.5, PSI, 1.0, v, 0.1)
        yield exact_moments_self_weight, (v, 0.5)
    yield affine_wfgcpe, (BASE, PSI, 1.0, math.nan, 0.0)
    yield affine_wfgcpe, (BASE, PSI, 1.0, 1.0, math.inf)
    yield power_weight, (-1.0,)
    # NaN and infinities slip past sign checks such as ``p < 0``
    yield discrete_wfe, ([math.nan, 1.0],)
    yield discrete_wfe, ([0.5, 0.5], [math.nan, 1.0])
    yield discrete_wfe, ([0.5, 0.5], [math.inf, 1.0])
    yield empirical_cdf, (as_sample([1.0, 2.0, 3.0]), math.nan)
    yield check_order, (BASE, BASE, "st", math.nan)
    yield check_order, (BASE, BASE, "st", 256.5)
    # tau at NaN once read as tau at the start of the support
    yield tau, (make_weibull_square(1.0), PSI, 1.0, math.nan)
    for v in (*NON_FINITE, -math.inf):
        yield prh_n_step, (BASE, 1.5, PSI, 1.0, 2, v)
        yield prh_recurrence_step, (BASE, 1.5, PSI, 1.0, v)
        # an infinite end once reached np.linspace and quadrature
        yield rl_fractional_integral, (math.exp, math.exp, 1.0, v, 1.0)
        yield rl_fractional_integral, (math.exp, math.exp, 1.0, 0.0, v)
        yield mean_inactivity_time, (make_exponential(1.0), v)
    # counts that validation let through, until numpy refused them
    for reps, n in ((10.0, 5), (2.5, 5), (True, 5), (math.nan, 5),
                    (20, 20.0)):
        yield SimulationConfig, (reps, n, 1, BASE, PSI, 0.5)
    # every order of ``gammas`` is checked, and at least one is required
    for gammas in ([math.nan], [math.inf], [-1.0], [0.0], [0.5, math.nan],
                   []):
        yield simulate_estimator, (SIM, gammas)


def _shown(a):
    if isinstance(a, list):
        return "[" + ", ".join(f"{v:g}" for v in a) + "]"
    return f"{a:g}"


def _case_id(fn, args):
    shown = ", ".join(_shown(a) for a in args
                      if isinstance(a, (int, float, list)))
    return f"{fn.__name__}({shown})"


@pytest.mark.parametrize("fn, args", [
    pytest.param(fn, args, id=_case_id(fn, args)) for fn, args in _refusals()])
def test_out_of_domain_parameter_is_refused(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


_UNMET = [
    (hr_dfr_implies_wfgcpe_order, (make_uniform_shifted(0.0),
                                   make_uniform_shifted(0.5), PSI, 0.5),
     PreconditionUnmet, "neither model is DFR"),
    (mean_value_identity, (make_exponential(0.5), make_exponential(2.0),
                           PSI, 0.5),
     PreconditionUnmet, "usual stochastic order"),
    (convolution_cdf_grid, (make_exponential(1.0), BASE),
     DomainError, "finite supports"),
]


@pytest.mark.parametrize("fn, args, error, match", [
    pytest.param(*case, id=case[0].__name__) for case in _UNMET])
def test_unmet_hypothesis_is_refused(fn, args, error, match):
    with pytest.raises(error, match=match):
        fn(*args)
