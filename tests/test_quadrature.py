"""Tests for the adaptive quadrature engine."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
import scipy.integrate
from scipy.special import gamma as gamma_fn

import wfgcpe
from wfgcpe.analysis import mean_value_identity
from wfgcpe.errors import DomainError, NonConvergence
from wfgcpe.measures import CLOSED_FORM, QUADRATURE
from wfgcpe.quadrature import (_ENDS_CUT, _TANH_SINH_ENDS,
                               _TANH_SINH_MIN_LEVEL, DEFAULT_ABS_TOL,
                               DEFAULT_REL_TOL, Integrand, integrate)
from wfgcpe.weights import BUILTIN_WEIGHTS

GAMMAS = (0.25, 0.5, 1.0, 1.5, 2.75)


def test_constant_integrand():
    r = integrate(Integrand(lambda x: 1.0, 0.0, 1.0))
    assert abs(r.value - 1.0) < 1e-12


def test_log_singularity_moment():
    # int_0^1 u (-ln u)^0.5 du = Gamma(1.5) / 2^1.5
    r = integrate(Integrand(lambda u: u * (-math.log(u)) ** 0.5, 0.0, 1.0))
    assert abs(r.value - 0.313328534328875062) < 1e-10


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("g", GAMMAS)
def test_known_moment_battery(m, g):
    # int_0^1 u^m (-ln u)^g du = Gamma(g+1) / (m+1)^(g+1)
    r = integrate(Integrand(lambda u: u ** m * (-math.log(u)) ** g, 0.0, 1.0))
    expected = gamma_fn(g + 1.0) / (m + 1.0) ** (g + 1.0)
    assert abs(r.value - expected) / expected <= 1e-8


def test_exponential_tail():
    f = Integrand(lambda x: math.exp(-x), 0.0, math.inf)
    assert abs(integrate(f).value - 1.0) < 1e-9


TAIL_TRANSFORMS = ("inverse", "exp", "qagi")


def _mapped(f, transform):
    """``f`` on (lo, inf), carried onto (0, 1) by a change of variable so
    that ``integrate`` takes its finite-interval route: ``x = lo + (1 -
    t)/t`` ("inverse") or ``x = lo - ln(1 - t)`` ("exp"). "qagi" returns
    ``f`` as it is, for QUADPACK's QAGI to map. A node whose Jacobian's
    denominator rounds to 0 counts as 0."""
    ev, lo = f.eval, f.lo
    if transform == "qagi":
        return f
    if transform == "inverse":
        def g(t):
            tt = t * t
            return ev(lo + (1.0 - t) / t) / tt if tt else 0.0
    else:
        def g(t):
            return ev(lo - math.log1p(-t)) / (1.0 - t) if t < 1.0 else 0.0
    return Integrand(g, 0.0, 1.0)


def test_tail_transforms_agree():
    # QAGI's own map of (0, inf) onto (0, 1), and the two substitutions
    # through tanh-sinh, against the closed form
    f = Integrand(lambda x: x * math.exp(-x), 0.0, math.inf)
    tol = 10.0 * max(DEFAULT_ABS_TOL, DEFAULT_REL_TOL)
    for transform in TAIL_TRANSFORMS:
        assert abs(integrate(_mapped(f, transform)).value - 1.0) <= tol


def test_tail_transform_offset_domain():
    # domain starting at 2, integrand e^{-(x-2)}
    f = Integrand(lambda x: math.exp(2.0 - x), 2.0, math.inf)
    assert abs(integrate(f).value - 1.0) < 1e-9


def test_linearity_on_random_polynomials():
    rng = np.random.default_rng(20240817)
    for _ in range(5):
        cf = rng.uniform(-2, 2, size=4)
        cg = rng.uniform(-2, 2, size=4)
        a, b = rng.uniform(-3, 3, size=2)

        def f(x):
            return float(np.polyval(cf, x))

        def g(x):
            return float(np.polyval(cg, x))

        lhs = integrate(Integrand(lambda x: a * f(x) + b * g(x),
                                  0.0, 2.0)).value
        rhs = (a * integrate(Integrand(f, 0.0, 2.0)).value
               + b * integrate(Integrand(g, 0.0, 2.0)).value)
        assert abs(lhs - rhs) <= 10.0 * max(DEFAULT_ABS_TOL,
                                            DEFAULT_REL_TOL * abs(lhs))


def test_divergent_integral_raises():
    with pytest.raises(NonConvergence) as err:
        integrate(Integrand(lambda x: 1.0 / x, 0.0, 1.0))
    assert err.value.abs_error is None or err.value.abs_error > 0


@pytest.mark.parametrize("abs_err", [-1.47e-5, math.nan, math.inf])
def test_negative_or_nonfinite_error_estimate_raises(monkeypatch, abs_err):
    # QUADPACK's estimate is a heuristic; a divergent Frechet integral
    # returned -1.47e-5, which passed a one-sided ``abs_err <= tol``;
    # a right-infinite domain always reaches QUADPACK
    monkeypatch.setattr("scipy.integrate.quad",
                        lambda *a, **k: (-0.386, abs_err, {"last": 24}))
    with pytest.raises(NonConvergence) as err:
        integrate(Integrand(lambda x: math.exp(-x), 0.0, math.inf))
    assert err.value.value == -0.386
    assert "after 24 subdivisions" in str(err.value)


def test_integrand_validation():
    with pytest.raises(DomainError):
        Integrand(lambda x: x, 1.0, 1.0)
    with pytest.raises(DomainError):
        Integrand(lambda x: x, -0.5, 1.0)


def test_bad_tolerances():
    f = Integrand(lambda x: x, 0.0, 1.0)
    with pytest.raises(DomainError):
        integrate(f, abs_tol=0.0)
    with pytest.raises(DomainError):
        integrate(f, rel_tol=-1e-9)


NON_FINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("y", NON_FINITE)
def test_non_finite_node_counts_as_zero_on_finite_support(y):
    q = integrate(Integrand(lambda x: y, 0.0, 1.0))
    assert q.value == 0.0 and q.abs_error_estimate == 0.0


@pytest.mark.parametrize("transform", TAIL_TRANSFORMS)
@pytest.mark.parametrize("y", NON_FINITE)
def test_non_finite_node_counts_as_zero_on_tail_transforms(transform, y):
    # the one guard sits after the Jacobian, in Python or in QUADPACK
    q = integrate(_mapped(Integrand(lambda x: y, 0.5, math.inf), transform))
    assert q.value == 0.0 and q.abs_error_estimate == 0.0


def test_largest_float_on_a_right_infinite_support_diverges():
    # finite at every node, so the guard keeps it; QAGI's Jacobian then
    # overflows inside QUADPACK, and the integral is infinite anyway
    with pytest.raises(NonConvergence):
        integrate(Integrand(lambda x: sys.float_info.max, 0.5, math.inf))


@pytest.mark.parametrize("f", [Integrand(lambda x: 1.0 / x, 0.0, 1.0),
                               Integrand(math.sin, 0.0, math.inf)])
def test_divergent_integral_raises_without_a_warning(f):
    # QUADPACK's own failure flag: without full_output, scipy would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            integrate(f)


# (model, weight, gamma) -> evaluations / subdivisions: the tanh-sinh
# nodes and settled level, in u = K(x) on the two finite supports and the
# three right-infinite ones; all must stay put
EVALUATION_COUNTS = [
    (wfgcpe.make_power(1.0, 2.0), wfgcpe.weight_x(), 0.5, 55, 3),
    (wfgcpe.make_frechet(1.0, 4.0), wfgcpe.weight_x_squared(), 1.5, 69, 3),
    (wfgcpe.make_weibull_square(1.0), wfgcpe.weight_sqrt_x(), 0.25, 83, 3),
    (wfgcpe.make_exponential(1.0), wfgcpe.weight_exp_neg(), 2.75, 55, 3),
    (wfgcpe.make_uniform_shifted(0.5), wfgcpe.weight_one(), 1.0, 55, 3),
]


@pytest.mark.parametrize("model, weight, gamma, evaluations, subdivisions",
                         EVALUATION_COUNTS)
def test_evaluations_are_quadpack_neval_and_python_calls(
        model, weight, gamma, evaluations, subdivisions):
    # the one model callable each node calls: the quantile in u
    calls = [0]
    inner = model.quantile_logs

    def counted(*args):
        calls[0] += 1
        return inner(*args)

    model = dataclasses.replace(model, quantile_logs=counted)
    q = wfgcpe.wfgcpe(model, weight, gamma, method="quadrature").quadrature
    assert (q.evaluations, q.subdivisions) == (evaluations, subdivisions)
    assert q.rule == "tanh_sinh"
    assert calls[0] == evaluations


@pytest.mark.parametrize("f, transform", [
    # substituted by hand: bisection toward an end of (0, 1) makes t*t
    # underflow to 0, or t round to 1, where the node counts as 0
    (Integrand(lambda x: 1.0 / x, 1.0, math.inf), "inverse"),
    (Integrand(lambda x: 1.0 / x if x > 0 else 0.0, 0.0, math.inf),
     "inverse"),
    (Integrand(lambda x: 1.0 / x, 1.0, math.inf), "exp"),
    (Integrand(lambda x: x ** -0.5, 1.0, math.inf), "exp"),
    (Integrand(lambda x: x, 1.0, math.inf), "exp"),
    (Integrand(lambda x: 1.0 / x, 1.0, math.inf), "qagi"),
    (Integrand(lambda x: 1.0 / x if x > 0 else 0.0, 0.0, math.inf), "qagi"),
    (Integrand(lambda x: x, 1.0, math.inf), "qagi"),
    # QAGI extrapolates these to -2 and -1 with a passing error estimate,
    # although no subinterval is negative
    (Integrand(lambda x: x ** -0.5, 1.0, math.inf), "qagi"),
    (Integrand(lambda x: 1.0, 0.0, math.inf), "qagi"),
])
def test_divergent_tail_is_nonconvergence_not_a_raw_error(f, transform):
    with pytest.raises(NonConvergence):
        integrate(_mapped(f, transform))


def test_a_negative_tail_integral_with_negative_subintervals_passes():
    # the sign check reads QUADPACK's subinterval values, not the integrand
    q = integrate(Integrand(lambda x: -math.exp(-x), 0.0, math.inf))
    assert abs(q.value + 1.0) < 1e-9


def _closed_form_grid():
    """(model, closed-form twin, weight): power, shifted uniform (integer
    exponents only) and the PRH of power(1, 2), which is power(1, 3)."""
    prh = wfgcpe.prh_transform(wfgcpe.make_power(1.0, 2.0), 1.5)
    cells = []
    for m, twin, weights in (
            (wfgcpe.make_power(1.0, 2.0), None, ("one", "x", "x2", "sqrtx")),
            (wfgcpe.make_power(2.0, 3.0), None, ("one", "x", "x2", "sqrtx")),
            (wfgcpe.make_uniform_shifted(0.5), None, ("one", "x", "x2")),
            (prh, wfgcpe.make_power(1.0, 3.0), ("one", "x", "x2", "sqrtx"))):
        cells += [(m, twin or m, BUILTIN_WEIGHTS[w]()) for w in weights]
    return cells


@pytest.mark.parametrize("gamma", GAMMAS)
def test_bounded_supports_match_closed_forms_to_1e13(gamma):
    # tanh-sinh is built for the endpoint singularities of K (-ln K)^gamma;
    # QUADPACK's extrapolation at the same tolerances is off by up to 1.8e-12
    for model, twin, psi in _closed_form_grid():
        got = wfgcpe.wfgcpe(model, psi, gamma, method=QUADRATURE).value
        want = wfgcpe.wfgcpe(twin, psi, gamma, method=CLOSED_FORM).value
        assert abs(got - want) <= 1e-13 * abs(want), (model.family, psi.tag)


def _count_quadpack(monkeypatch):
    calls = []
    quad = scipy.integrate.quad

    def counted(*a, **k):
        out = quad(*a, **k)
        calls.append(out)
        return out

    monkeypatch.setattr("scipy.integrate.quad", counted)
    return calls


def test_interior_kink_falls_back_to_quadpack(monkeypatch):
    # |x - 1| on (0, 2) has a kink at the centre, where tanh-sinh does not
    # settle
    calls = _count_quadpack(monkeypatch)
    q = integrate(Integrand(lambda x: abs(x - 1.0), 0.0, 2.0))
    assert len(calls) == 1 and q.rule == "quadpack"
    assert abs(q.value - 1.0) <= 1e-14


def test_mean_value_identity_in_u_has_no_kink(monkeypatch):
    # K1 = min(x, 1) against uniform(0, 2): in x = Q1(u) the kink at x = 1
    # is the end of U(0, 1)'s support, so the rule settles
    calls = _count_quadpack(monkeypatch)
    identity, bound = mean_value_identity(
        wfgcpe.make_uniform_shifted(0.0), wfgcpe.make_power(2.0, 1.0),
        wfgcpe.weight_x(), 0.5)
    assert not calls
    assert identity.lhs == 0.19245008972987526  # 3^-1.5, the closed form
    assert abs(identity.rhs - identity.lhs) <= 1e-16
    # E[tau1(X2)] = int x (-ln x)^0.5 x/2 dx / Gamma(1.5): half the entropy
    assert abs(bound.rhs - 0.5 * identity.lhs) <= 1e-16


def test_node_error_near_an_end_falls_back_to_quadpack(monkeypatch):
    # tanh-sinh nodes reach 1e-37 of an end, QUADPACK's never this close
    seen = []

    def f(x):
        seen.append(x)
        if x < 1e-17:
            raise ZeroDivisionError("too near the end")
        return x * x

    calls = _count_quadpack(monkeypatch)
    q = integrate(Integrand(f, 0.0, 1.0))
    value, err, info = calls[0][:3]
    assert (q.value, q.abs_error_estimate) == (value, err)
    assert q.subdivisions == info["last"]
    assert q.evaluations == len(seen) > info["neval"]
    assert abs(q.value - 1.0 / 3.0) < 1e-15


def test_a_kink_stops_the_rule_after_level_4(monkeypatch):
    # |x - 0.3| converges algebraically, not double exponentially: the rule
    # gives up once a level shrinks its change less than tenfold
    seen = []

    def f(x):
        seen.append(x)
        return abs(x - 0.3)

    calls = _count_quadpack(monkeypatch)
    q = integrate(Integrand(f, 0.0, 1.0))
    assert len(calls) == 1
    # the nodes through level 4 of the cut it runs: level 0 to t = 6 and
    # the later levels to t = 4; a stop after level 5 adds up to 128 more
    assert len(seen) - calls[0][2]["neval"] <= 1 + 2 * 6 + sum(
        map(len, _ENDS_CUT[3][:_TANH_SINH_MIN_LEVEL + 2]))
    assert abs(q.value - 0.29) < 1e-14


@pytest.mark.parametrize("level", range(_TANH_SINH_MIN_LEVEL,
                                         len(_TANH_SINH_ENDS)))
def test_tanh_sinh_weights_integrate_one(level):
    # every level the rule may stop at; below it the step is too coarse
    weights = [math.exp(end[2]) for nodes in _TANH_SINH_ENDS[:level + 1]
               for pair in nodes for end in pair]
    total = 0.5 * math.pi + math.fsum(weights)
    assert abs(total / 2 ** level - 2.0) <= 1e-15


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.5, 1.5),
                                    (1.0, 1.0 + 2.0 ** -40), (3.0, 1e6)])
def test_no_node_is_an_endpoint(monkeypatch, lo, hi):
    # a step of integral 0.3: the rule does not settle and QUADPACK runs;
    # level 0 holds the nodes nearest the ends
    seen = []

    def f(x):
        seen.append(x)
        return 1.0 / (hi - lo) if x < lo + 0.3 * (hi - lo) else 0.0

    calls = _count_quadpack(monkeypatch)
    try:
        integrate(Integrand(f, lo, hi))
    except NonConvergence:  # QUADPACK cannot bisect 2^-40 down to the step
        pass
    assert len(calls) == 1
    assert all(lo < x < hi for x in seen)


def test_end_logs_keep_one_minus_u_exact():
    # (1 - u)^-0.9 holds 0.25 of its 10 within 1e-16 of u = 1, where 1 - u
    # rounds; as logs, the nodes reach e^-34,599 of the end
    q = integrate(Integrand(lambda node: math.exp(-0.9 * node[1] + node[2]),
                            0.0, 1.0, True))
    assert q.rule == "tanh_sinh" and abs(q.value - 10.0) <= 1e-12


def test_quadpack_takes_end_logs_too(monkeypatch):
    # the kink keeps the rule from settling; QUADPACK's nodes reach the
    # integrand as the logs of u and 1 - u at weight 1, and none at an end
    seen = []

    def f(node):
        seen.append(node)
        lu, lw, lwt = node
        return math.exp(lwt) * abs(math.exp(lu) - 0.3)

    calls = _count_quadpack(monkeypatch)
    q = integrate(Integrand(f, 0.0, 1.0, True))
    assert len(calls) == 1 and q.rule == "quadpack"
    assert abs(q.value - 0.29) < 1e-14
    quadpack = [(lu, lw) for lu, lw, lwt in seen if lwt == 0.0]
    assert len(quadpack) == calls[0][2]["neval"]
    assert all(lu < 0.0 and lw < 0.0 for lu, lw in quadpack)
    assert min(lu for lu, _ in quadpack) < math.log(0.5) < max(
        lu for lu, _ in quadpack)
