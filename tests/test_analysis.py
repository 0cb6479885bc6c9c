"""Tests for ordering verifiers, bound checks, and the Monte Carlo harness."""

import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from wfgcpe import analysis, distributions, measures
from wfgcpe.analysis import (SimulationConfig, _draw_uniforms, bound_suite,
                             check_order, clt_diagnostic,
                             consistency_profile, convolution_cdf_grid,
                             dispersive_implies_wfgcpe_order,
                             find_st_counterexample,
                             hr_dfr_implies_wfgcpe_order, is_dfr,
                             mean_value_identity, prh_bound_check,
                             simulate_estimator, sum_bound_check)
from wfgcpe.distributions import (make_custom, make_exponential,
                                  make_frechet, make_power,
                                  make_uniform_shifted, make_weibull_square,
                                  prh_transform)
from wfgcpe.empirical import _estimator_coefficients, _exact_moments
from wfgcpe.errors import (ConstraintError, DomainError, PreconditionUnmet,
                           WfgcpeError)
from wfgcpe.measures import wfgcpe
from wfgcpe.quadrature import Integrand
from wfgcpe.weights import (BUILTIN_WEIGHTS, custom_weight,
                            piecewise_linear_weight, power_weight,
                            self_density_weight, weight_exp_neg, weight_one,
                            weight_x)


def test_check_order_st():
    m1, m2 = make_power(1.0, 1.0), make_power(1.0, 3.0)
    assert check_order(m1, m2, "st").holds  # x^3 <= x on (0,1)
    bad = check_order(m2, m1, "st")
    assert bad.status == "violated" and bad.witness is not None


def test_check_order_reflexive():
    m = make_power(1.0, 2.0)
    for rel in ("st", "hr", "disp", "dcx"):
        assert check_order(m, m, rel).holds, rel


def test_check_order_dispersive_scaling():
    narrow = make_uniform_shifted(0.0)
    wide = make_power(2.0, 1.0)  # uniform on (0, 2): quantile gap doubled
    assert check_order(narrow, wide, "disp").holds
    assert not check_order(wide, narrow, "disp").holds


def _disp_loop(m1, m2, grid=256):
    """The O(grid^2) pairwise dispersive check, kept as the reference."""
    us = np.linspace(0.0, 1.0, grid + 2)[1:-1]
    q1 = np.array([m1.quantile(u) for u in us])
    q2 = np.array([m2.quantile(u) for u in us])
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            if (q1[i] - q1[j]) < (q2[i] - q2[j]) - 1e-9:
                return "violated", (float(us[i]), float(us[j]))
    return "holds_on_grid", None


DISP_PAIRS = [
    (make_exponential(2.0), make_exponential(1.0)),
    (make_exponential(1.0), make_exponential(2.0)),
    (make_uniform_shifted(0.0), make_power(2.0, 1.0)),
    (make_power(2.0, 1.0), make_uniform_shifted(0.0)),
    # Q_exp - Q_weib = t - sqrt(t), t = -ln(1 - u): falls, then rises
    (make_weibull_square(1.0), make_exponential(1.0)),
    # the reverse rises, then falls: the witness v lies inside the grid
    (make_exponential(1.0), make_weibull_square(1.0)),
    (make_power(1.0, 2.0), make_power(1.0, 0.5)),
    (make_frechet(1.0, 4.0), make_exponential(0.5)),
]


@pytest.mark.parametrize("m1, m2", DISP_PAIRS,
                         ids=lambda m: f"{m.family}{m.params}")
def test_check_order_disp_matches_pairwise_loop(m1, m2):
    verdict = check_order(m1, m2, "disp")
    assert (verdict.status, verdict.witness) == _disp_loop(m1, m2)


def _exact_survival(m, x):
    """``1 - K`` in a form without cancellation where ``K`` nears 1."""
    p = m.params
    if m is SQUARE_FLOAT_ONLY:
        return (1.0 - x) * (1.0 + x)
    if m.family == "exponential":
        return np.exp(-p["rate"] * x)
    if m.family == "weibull_square":
        return np.exp(-p["theta"] * x * x)
    if m.family == "frechet":
        return -np.expm1(-p["b"] * x ** -p["c"])
    if m.family == "power":
        return -np.expm1(p["c"] * np.log(np.minimum(x / p["b"], 1.0)))
    return np.clip(1.0 + p["a"] - x, 0.0, 1.0)


def _st_hr_loop(m1, m2, relation, grid=256):
    """The per-point "st" and "hr" checks, kept as the reference, at both
    models' quantiles at the interior and the tail probabilities; hr reads
    survivals free of cancellation, so it needs no rounding allowance."""
    tails = [2.0 ** -k for k in range(1, 34)]
    us = list(np.linspace(0.0, 1.0, grid + 2)[1:-1]) + tails + [
        1.0 - t for t in tails]
    xs = sorted({float(m.quantile(float(u))) for m in (m1, m2) for u in us}
                - {math.inf})
    if relation == "st":
        for x in xs:
            if m2.cdf(x) > m1.cdf(x) + 1e-9:
                return "violated", (float(x),)
        return "holds_on_grid", None
    ratios, pts = [], []
    for x in xs:
        s1, s2 = _exact_survival(m1, x), _exact_survival(m2, x)
        if s1 > 1e-12 and s2 > 1e-12:
            ratios.append(s2 / s1)
            pts.append(float(x))
    for i in range(1, len(ratios)):
        if ratios[i] < ratios[i - 1] - 1e-9:
            return "violated", (pts[i],)
    return ("inconclusive" if len(ratios) < 2 else "holds_on_grid"), None


#: ``K = x^2`` on (0, 1) with float-only callables: the elementwise map
SQUARE_FLOAT_ONLY = make_custom(
    cdf=lambda x: min(max(x, 0.0), 1.0) ** 2,
    pdf=lambda x: 2.0 * x if 0.0 < x < 1.0 else 0.0,
    quantile=lambda u: math.sqrt(u), support=(0.0, 1.0))

ST_HR_PAIRS = [
    (make_power(1.0, 1.0), make_power(1.0, 3.0)),
    (make_power(1.0, 3.0), make_power(1.0, 1.0)),
    (make_exponential(2.0), make_exponential(1.0)),
    (make_exponential(1.0), make_exponential(2.0)),
    (make_weibull_square(1.0), make_exponential(1.0)),
    (make_frechet(1.0, 4.0), make_exponential(0.5)),
    (make_uniform_shifted(0.0), make_power(2.0, 1.0)),
    (make_uniform_shifted(0.0), SQUARE_FLOAT_ONLY),
    (SQUARE_FLOAT_ONLY, make_uniform_shifted(0.0)),
]


@pytest.mark.parametrize("relation", ["st", "hr"])
@pytest.mark.parametrize("m1, m2", ST_HR_PAIRS,
                         ids=lambda m: f"{m.family}{m.params}")
def test_check_order_st_hr_match_per_point_loop(m1, m2, relation):
    verdict = check_order(m1, m2, relation)
    assert (verdict.status, verdict.witness) == _st_hr_loop(m1, m2,
                                                            relation)


#: Twelve builtin models: 132 ordered pairs for the dense reference
ORDER_MODELS = [
    make_exponential(2.0), make_exponential(1.0), make_exponential(1.2),
    make_weibull_square(1.0), make_weibull_square(0.5),
    make_power(1.0, 2.0), make_power(1.0, 0.5), make_power(2.0, 1.0),
    make_uniform_shifted(0.0), make_uniform_shifted(0.3),
    make_frechet(1.0, 4.0), make_frechet(2.0, 3.0),
]

#: 257 * 80 - 1 interior probabilities, 80 per step of the default grid,
#: and tails 2^(-k/8) down to 2^-33 at both ends
_DENSE_TAILS = np.exp2(-np.arange(8, 33 * 8 + 1) / 8)
_DENSE_PROBS = np.concatenate([np.linspace(0.0, 1.0, 257 * 80 + 1)[1:-1],
                               _DENSE_TAILS, 1.0 - _DENSE_TAILS])


def _survival_integral(m, x):
    """``int_0^x (1 - K)`` in closed form; for Frechet, ``x (1 - K)`` plus
    the partial mean ``b^(1/c) Gamma(1 - 1/c, b x^-c)``."""
    p = m.params
    if m.family == "exponential":
        return -np.expm1(-p["rate"] * x) / p["rate"]
    if m.family == "weibull_square":
        theta = p["theta"]
        return 0.5 * np.sqrt(np.pi / theta) * special.erf(np.sqrt(theta) * x)
    if m.family == "frechet":
        b, c = p["b"], p["c"]
        return (x * _exact_survival(m, x) + b ** (1.0 / c)
                * special.gamma(1.0 - 1.0 / c)
                * special.gammaincc(1.0 - 1.0 / c, b * x ** -c))
    if m.family == "power":
        t = np.minimum(x, p["b"])
        return t - t * (t / p["b"]) ** p["c"] / (p["c"] + 1.0)
    y = np.clip(x - p["a"], 0.0, 1.0)
    return np.minimum(x, p["a"]) + y - 0.5 * y * y


def _dense_margins(m1, m2):
    """Largest violation of st, hr and dcx at both models' quantiles at
    ``_DENSE_PROBS``: ``max(K2 - K1)``, the largest fall of ``Kbar2 /
    Kbar1`` (``None`` with fewer than two points to compare), and the
    largest ``int (K1 - K2) = int (Kbar2 - Kbar1)`` from 0, exact."""
    xs = np.unique(np.concatenate([m.quantile(_DENSE_PROBS)
                                   for m in (m1, m2)]))
    k1, k2 = m1.cdf(xs), m2.cdf(xs)
    s1, s2 = _exact_survival(m1, xs), _exact_survival(m2, xs)
    keep = (s1 > 1e-12) & (s2 > 1e-12)
    r = s2[keep] / s1[keep]
    return {"st": np.max(k2 - k1),
            "hr": np.max(np.maximum.accumulate(r) - r) if r.size > 1 else None,
            "dcx": np.max(_survival_integral(m2, xs)
                          - _survival_integral(m1, xs))}


@pytest.mark.parametrize("relation", ["st", "hr", "dcx"])
def test_check_order_matches_a_dense_reference(relation):
    # either verdict is accepted where the violation is under 1e-6
    wrong = []
    for m1 in ORDER_MODELS:
        for m2 in ORDER_MODELS:
            if m1 is m2:
                continue
            v = _dense_margins(m1, m2)[relation]
            want = ("inconclusive" if v is None else
                    "violated" if v > 1e-9 else "holds_on_grid")
            got = check_order(m1, m2, relation).status
            if got != want and not (want == "violated" and v <= 1e-6
                                    and got == "holds_on_grid"):
                wrong.append((m1.family, m1.params, m2.family, m2.params,
                              got, want, v))
    assert wrong == []


E1 = make_exponential(1.0)
#: (model, DFR, log-concave density) for models with known shapes
SHAPES = [
    (E1, True, True),
    (prh_transform(E1, 0.5), True, False),
    (make_weibull_square(1.0), False, True),
    (make_power(1.0, 2.0), False, True),
    (make_uniform_shifted(0.3), False, True),
    (prh_transform(E1, 2.0), False, True),
    (make_power(1.0, 0.5), False, False),
    (make_frechet(1.0, 4.0), False, False),
    (make_frechet(1.0, 1.0), False, False),
    (make_frechet(0.5, 2.0), False, False),
]


@pytest.mark.parametrize("model, dfr, log_concave", SHAPES,
                         ids=[f"{m.family}{m.params}" for m, _, _ in SHAPES])
def test_shape_checks_on_known_models(model, dfr, log_concave):
    assert is_dfr(model) == dfr
    assert analysis._is_log_concave_pdf(model) == log_concave


#: dcx-ordered pairs with equal means: ``int_0^t (K1 - K2)`` is -e^-t past
#: 2 for the first, and -e^(-2t) / 2 past 1 for the second, so it rises to
#: 0 only as t grows without bound
EQUAL_MEANS = [(make_power(2.0, 1.0), make_exponential(1.0)),
               (make_uniform_shifted(0.0), make_exponential(2.0))]


@pytest.mark.parametrize("grid", [64, 256, 1000])
@pytest.mark.parametrize("m1, m2", EQUAL_MEANS,
                         ids=lambda m: f"{m.family}{m.params}")
def test_dcx_holds_on_equal_mean_pairs(m1, m2, grid):
    assert check_order(m1, m2, "dcx", grid).status == "holds_on_grid"
    assert check_order(m2, m1, "dcx", grid).status == "violated"


#: DFR models whose ``ln(1 - K)`` is derived from a ``K`` that rounds near
#: 1: PRH of an exponential below eta = 1, and an exponential from its cdf
DERIVED_DFR = [prh_transform(E1, eta) for eta in (0.1, 0.3, 0.7, 0.9)] + [
    make_custom(cdf=lambda x: -math.expm1(-x) if x > 0.0 else 0.0,
                pdf=lambda x: math.exp(-x) if x > 0.0 else 0.0,
                quantile=lambda u: -math.log1p(-u), support=(0.0, math.inf))]


@pytest.mark.parametrize("grid", [64, 777, 2048])
@pytest.mark.parametrize("model", DERIVED_DFR,
                         ids=lambda m: f"{m.family}{m.params}")
def test_dfr_allows_for_rounding_of_one_minus_k(model, grid):
    assert is_dfr(model, grid)


def test_no_order_check_runs_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("an order check called integrate")

    for module in (analysis, distributions, measures):
        monkeypatch.setattr(module, "integrate", no_quadrature)
    pairs = [(make_exponential(2.0), make_frechet(1.0, 4.0)),
             (SQUARE_FLOAT_ONLY, make_uniform_shifted(0.0))]
    for m1, m2 in pairs:
        for relation in ("st", "hr", "disp", "dcx"):
            check_order(m1, m2, relation)
            check_order(m2, m1, relation)


#: Parameters at least 20% apart, either one the larger
_APART = st.tuples(st.floats(1.2, 5.0), st.booleans())


def _spread(base, apart):
    ratio, first_larger = apart
    return (base * ratio, base) if first_larger else (base, base * ratio)


def _status(holds):
    return "holds_on_grid" if holds else "violated"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.2, 5.0), _APART)
def test_exponential_orders_follow_the_rates(rate, apart):
    r1, r2 = _spread(rate, apart)
    m1, m2 = make_exponential(r1), make_exponential(r2)
    assert check_order(m1, m2, "st").status == _status(r1 >= r2)
    assert check_order(m1, m2, "hr").status == _status(r1 >= r2)
    assert check_order(m1, m2, "dcx").status == _status(r1 <= r2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.5, 5.0), st.floats(0.2, 6.0), _APART)
def test_power_orders_follow_the_shapes(b, c, apart):
    c1, c2 = _spread(c, apart)
    m1, m2 = make_power(b, c1), make_power(b, c2)
    assert check_order(m1, m2, "st").status == _status(c1 <= c2)
    assert check_order(m1, m2, "dcx").status == _status(c1 >= c2)


def test_check_order_grid_validation():
    m = make_power(1.0, 2.0)
    with pytest.raises(DomainError):
        check_order(m, m, "st", grid=32)
    with pytest.raises(DomainError):
        check_order(m, m, "lexicographic")


def test_dispersive_implication():
    narrow = make_uniform_shifted(0.0)
    wide = make_power(2.0, 1.0)
    rep = dispersive_implies_wfgcpe_order(narrow, wide, weight_x(), 0.75)
    assert rep.holds and rep.slack >= -1e-9
    with pytest.raises(PreconditionUnmet):
        dispersive_implies_wfgcpe_order(narrow, wide, weight_exp_neg(), 0.75)
    with pytest.raises(PreconditionUnmet):
        dispersive_implies_wfgcpe_order(wide, narrow, weight_x(), 0.75)


def test_is_dfr():
    assert is_dfr(make_exponential(1.0))
    assert not is_dfr(make_weibull_square(1.0))  # increasing failure rate


def test_hr_dfr_implication():
    m1, m2 = make_exponential(2.0), make_exponential(1.0)
    assert check_order(m1, m2, "hr").holds
    rep = hr_dfr_implies_wfgcpe_order(m1, m2, weight_one(), 1.5)
    assert rep.holds
    with pytest.raises(PreconditionUnmet):
        hr_dfr_implies_wfgcpe_order(m2, m1, weight_one(), 1.5)


def test_mean_value_identity():
    pairs = [
        (make_power(1.0, 1.0), make_power(1.0, 2.0)),
        (make_uniform_shifted(0.0), make_power(2.0, 1.0)),
    ]
    for m1, m2 in pairs:
        identity, bound = mean_value_identity(m1, m2, weight_x(), 0.75)
        assert identity.holds, (identity.lhs, identity.rhs)
        assert bound.holds and bound.slack >= -1e-9
    m = make_power(1.0, 2.0)
    with pytest.raises(PreconditionUnmet):
        mean_value_identity(m, m, weight_x(), 0.75)


@pytest.mark.parametrize("m1, m2, gamma", [
    (make_exponential(2.0), make_exponential(1.0), 0.25),
    (make_weibull_square(2.0), make_weibull_square(1.0), 0.25),
    (make_frechet(1.0, 8.0), make_frechet(2.0, 8.0), 0.5)],
    ids=["exponential", "weibull_square", "frechet"])
def test_mean_value_identity_holds_on_unbounded_pairs(m1, m2, gamma):
    # a slowly decaying tail keeps mass past any truncation point: the
    # integrals run to infinity
    identity, bound = mean_value_identity(m1, m2, weight_x(), gamma)
    assert identity.holds and identity.slack <= 1e-14, identity
    assert bound.holds


def test_mean_value_identity_refuses_a_divergent_entropy():
    # the entropy's gate speaks before the divergent tau integrals
    with pytest.raises(ConstraintError, match="diverges"):
        mean_value_identity(make_frechet(1.0, 8.0), make_frechet(2.0, 8.0),
                            weight_x(), 0.25)


def test_check_reports_carry_builtin_types():
    power = make_power(1.0, 2.0)
    reports = bound_suite(power, weight_x(), 0.5, xi=weight_x(),
                          other=make_uniform_shifted(0.0))
    reports += bound_suite(make_exponential(1.0), weight_x(), 0.5)
    reports += mean_value_identity(make_exponential(2.0),
                                   make_exponential(1.0), weight_x(), 0.5)
    for r in reports:
        assert type(r.holds) is bool, r
        for v in (r.lhs, r.rhs, r.slack):
            assert type(v) is float, r


def test_bound_suite_sample():
    reports = bound_suite(make_power(1.0, 2.0), weight_x(), 1.0,
                          xi=weight_x())
    assert all(r.holds for r in reports)
    names = {r.name for r in reports}
    assert "one_minus_cdf_lower_bound" in names
    assert "log_sum_entropy_lower_bound" in names


def test_bound_suite_log_sum_reports_divergence_not_bugs():
    base = make_power(1.0, 2.0)
    # a zero density makes H(X) diverge: the bound is vacuous, not an error;
    # quantile_logs=None derives the logs from the injected pdf
    zero = dataclasses.replace(base, pdf=lambda x: 0.0, quantile_logs=None)
    rep = {r.name: r for r in bound_suite(zero, weight_x(), 1.0)}
    rep = rep["log_sum_entropy_lower_bound"]
    assert rep.holds and math.isnan(rep.rhs)
    assert rep.note.startswith("inapplicable: zero density")

    def broken(x):
        raise TypeError("density bug")

    with pytest.raises(TypeError, match="density bug"):
        bound_suite(dataclasses.replace(base, pdf=broken, quantile_logs=None),
                    weight_x(), 1.0)


@pytest.mark.parametrize("model", [
    make_power(1.0, 2.0), make_uniform_shifted(0.5), make_frechet(1.0, 4.0),
    make_weibull_square(1.0), make_exponential(1.0)],
    ids=lambda m: m.family)
@pytest.mark.parametrize("psi", [weight_x(), weight_exp_neg()],
                         ids=lambda w: w.tag)
def test_bound_suite_log_sum_is_one_integral(monkeypatch, model, psi):
    # ln D + H(X) as one integral: clauses (a) and (b) take one each
    calls = []
    real, real_kernel = analysis.integrate, analysis._log_kernel_integral

    def counted(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    def counted_kernel(*args, **kwargs):
        calls.append(args)
        return real_kernel(*args, **kwargs)

    monkeypatch.setattr(analysis, "integrate", counted)
    monkeypatch.setattr(analysis, "_log_kernel_integral", counted_kernel)
    g = 2.75
    rhs = {r.name: r.rhs for r in bound_suite(model, psi, g)}
    assert len(calls) == 2
    q, pdf = model.quantile, model.pdf
    ln_d = real(Integrand(lambda u: math.log(psi(q(u)) * u)
                          + g * math.log(-math.log(u)), 0.0, 1.0)).value
    h_x = real(Integrand(lambda u: -math.log(pdf(q(u))), 0.0, 1.0)).value
    expected = math.exp(ln_d + h_x) / math.gamma(g + 1.0)
    got = rhs["log_sum_entropy_lower_bound"]
    assert abs(got - expected) <= 1e-10 * expected


def test_infinite_means_are_typed_errors():
    # the quantile meets the support's ends, so the divergence is
    # QUADPACK's to report, not a raw ZeroDivisionError or ValueError
    with pytest.raises(WfgcpeError):
        make_frechet(1.0, 1.0).mean()
    with pytest.raises(WfgcpeError):
        make_exponential(1.0).expectation(math.exp)


def test_monotone_weight_bound_directions():
    m = make_uniform_shifted(0.0)
    inc = {r.name: r for r in bound_suite(m, weight_x(), 0.75)}
    assert inc["monotone_weight_upper_bound"].holds
    dec = {r.name: r for r in bound_suite(m, weight_exp_neg(), 0.75)}
    assert dec["monotone_weight_lower_bound"].holds
    assert dec["tau_at_mean_lower_bound"].holds
    assert not math.isnan(dec["tau_at_mean_lower_bound"].rhs)


def test_jensen_power_bound_gamma_one_equality():
    m = make_uniform_shifted(0.0)
    reports = {r.name: r for r in bound_suite(m, weight_x(), 1.0,
                                              xi=weight_x())}
    rep = reports["jensen_power_lower_bound"]
    assert rep.holds and abs(rep.lhs - rep.rhs) < 1e-9


def test_jensen_power_bound_of_a_weight_without_a_power():
    # xi^gamma built pointwise matches the x^gamma power weight
    m = make_power(1.0, 2.0)
    xi = custom_weight(lambda x: x, lambda x: 0.5 * x * x)
    got, want = ({r.name: r for r in bound_suite(m, weight_x(), 0.5, xi=w)
                  }["jensen_power_upper_bound"] for w in (xi, weight_x()))
    assert abs(got.lhs - want.lhs) <= 1e-12 * want.lhs
    assert abs(got.rhs - want.rhs) <= 1e-12 * want.rhs


@pytest.mark.parametrize("a", [0.5, 3.0])
@pytest.mark.parametrize("psi, mean_log_psi", [
    (weight_one(), lambda a: 0.0),
    (weight_x(), lambda a: (a + 1.0) * math.log(a + 1.0) - a * math.log(a)
     - 1.0),
    (weight_exp_neg(), lambda a: -(a + 0.5)),
], ids=("one", "x", "expneg"))
@pytest.mark.parametrize("g", [0.5, 2.75])
def test_log_sum_bound_on_a_shifted_uniform(monkeypatch, a, psi,
                                            mean_log_psi, g):
    # k = 1 on (a, a + 1): ln D + H = int_0^1 ln psi(a + u) du - 1 - g C,
    # on end-log nodes even where Q(u) rounds onto a + 1, where k is 0
    rules = []
    real = analysis.integrate

    def recorded(f, *args, **kwargs):
        out = real(f, *args, **kwargs)
        rules.append(out.rule)
        return out

    monkeypatch.setattr(analysis, "integrate", recorded)
    rhs = {r.name: r.rhs for r in bound_suite(make_uniform_shifted(a), psi, g)
           }["log_sum_entropy_lower_bound"]
    assert rules == ["tanh_sinh"]
    want = math.exp(mean_log_psi(a) - 1.0 - g * np.euler_gamma) / math.gamma(
        g + 1.0)
    assert abs(rhs - want) <= 1e-14 * want


def test_sum_bound_two_uniforms():
    u = make_uniform_shifted(0.0)
    rep = sum_bound_check(u, u, weight_x(), 1.0)
    assert rep.holds and rep.slack >= -1e-6
    with pytest.raises(PreconditionUnmet):
        sum_bound_check(u, u, weight_exp_neg(), 1.0)
    with pytest.raises(PreconditionUnmet):
        sum_bound_check(make_power(1.0, 0.5), u, weight_x(), 1.0)


def test_convolution_cdf_grid():
    u = make_uniform_shifted(0.0)
    xs, cdf = convolution_cdf_grid(u, u, grid=2048)
    # triangular distribution on (0, 2): CDF(1) = 1/2
    mid = np.interp(1.0, xs, cdf)
    assert abs(mid - 0.5) < 1e-3
    assert cdf[0] == 0.0 and cdf[-1] == 1.0


@pytest.mark.parametrize("first", [0, 1])
def test_convolution_of_supports_of_different_widths(first):
    # uniform(0, 1) + uniform(0, 2): K(1) = 1/4, K(2) = 3/4, support (0, 3);
    # each density once took the other's step, for K(1) = 1/2 or 1/8
    pair = (make_power(1.0, 1.0), make_power(2.0, 1.0))
    xs, cdf = convolution_cdf_grid(pair[first], pair[1 - first])
    assert abs(xs[-1] - 3.0) <= 2.0 / 4095
    assert np.allclose(np.interp([1.0, 2.0], xs, cdf), [0.25, 0.75],
                       atol=1e-3)


def test_log_sum_bound_in_quantile_space(monkeypatch):
    # ln psi = -x for e^{-x}: Frechet(1, 4) settles on the rule, and with
    # c <= 1 the infinite mean makes the bound 0 (once "math domain error")
    quad = []
    monkeypatch.setattr("scipy.integrate.quad",
                        lambda *a, **k: quad.append(a))
    for c, zero in ((4.0, False), (1.0, True), (0.8, True)):
        reports = {r.name: r for r in bound_suite(make_frechet(1.0, c),
                                                  weight_exp_neg(), 2.75)}
        rep = reports["log_sum_entropy_lower_bound"]
        assert rep.holds and rep.note == ""
        assert (rep.rhs == 0.0) == zero and rep.rhs < rep.lhs
    assert not quad


def test_prh_bound_check():
    base = make_uniform_shifted(0.0)
    rng = np.random.default_rng(17)
    for _ in range(8):
        eta = float(rng.uniform(0.2, 5.0))
        g = float(rng.uniform(0.3, 2.5))
        rep = prh_bound_check(base, eta, weight_x(), g)
        assert rep.holds, (eta, g, rep)


def test_find_st_counterexample():
    pair = find_st_counterexample()
    assert pair == (0.5, 2.0)
    c1, c2 = pair

    def closed(c, g):
        return c ** g / (c + 2.0) ** (g + 1.0)

    d_low = closed(c1, 0.5) - closed(c2, 0.5)
    d_high = closed(c1, 2.5) - closed(c2, 2.5)
    assert d_low * d_high < 0.0


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

def _config(**kw):
    base = dict(replicates=500, n=8, seed=2024, population=make_power(1.0, 2.0),
                weight=weight_x(), gamma=0.5)
    base.update(kw)
    return SimulationConfig(**base)


def test_simulate_determinism():
    s1 = simulate_estimator(_config())
    s2 = simulate_estimator(_config())
    assert np.array_equal(s1.values, s2.values)
    s3 = simulate_estimator(_config(seed=2025))
    assert not np.array_equal(s1.values, s3.values)


def test_simulate_single_replicate():
    s = simulate_estimator(_config(replicates=1))
    assert s.variance is None and not s.variance_defined
    assert s.values.shape == (1,)


def test_simulate_multi_gamma_reuses_draws():
    res = simulate_estimator(_config(), gammas=(0.5, 1.5))
    single = simulate_estimator(_config(gamma=1.5))
    assert np.array_equal(res[1.5].values, single.values)


def test_simulation_config_validation():
    with pytest.raises(DomainError):
        _config(replicates=0)
    with pytest.raises(DomainError):
        _config(n=1)
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            _config(gamma=gamma)
    for seed in (-1, 1.5, "7"):
        with pytest.raises(DomainError):
            _config(seed=seed)


@pytest.mark.parametrize("n", (5, 8, 15, 500))
def test_draw_uniforms_chunk_invariant(n):
    reps, seed = 23, 77
    whole = _draw_uniforms(seed, reps, n)
    assert whole.shape == (reps, n)
    assert np.all((whole >= 0.0) & (whole < 1.0))
    # chunk sizes that are not multiples of 4, and one row at a time
    for sizes in ((7, 5, 11), (3,) * 7 + (2,), (1,) * reps):
        start, rows = 0, []
        for k in sizes:
            rows.append(_draw_uniforms(seed, k, n, start))
            start += k
        assert start == reps
        assert np.array_equal(np.vstack(rows), whole)
    # rows are drawn from disjoint counter blocks
    assert len(np.unique(whole)) == whole.size


def test_draw_uniforms_rows_are_consecutive_words():
    # replicate i takes the stream's doubles [i n, (i + 1) n): no padding
    seed, reps, n = 77, 9, 7
    bits = np.random.PCG64DXSM(np.random.SeedSequence(seed))
    stream = np.random.Generator(bits).random(reps * n)
    assert np.array_equal(_draw_uniforms(seed, reps, n),
                          stream.reshape(reps, n))
    assert np.array_equal(_draw_uniforms(seed, 2, n, 4), stream[28:42]
                          .reshape(2, n))


def test_simulate_chunking_is_invisible(monkeypatch):
    whole = simulate_estimator(_config(), gammas=(0.5, 1.5))
    monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", 30)  # 3 rows of n=8
    chunked = simulate_estimator(_config(), gammas=(0.5, 1.5))
    for g in (0.5, 1.5):
        np.testing.assert_allclose(chunked[g].values, whole[g].values,
                                   rtol=1e-14, atol=0.0)


def _threaded_config(**kw):
    # 131 rows of n = 500 per chunk: six chunks of 700 replicates
    base = dict(replicates=700, n=500, population=make_weibull_square(1.0))
    return _config(**{**base, **kw})


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every pool ``simulate_estimator`` builds."""
    built = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, max_workers, **kw):
            built.append(max_workers)
            super().__init__(max_workers, **kw)

    monkeypatch.setattr(analysis, "ThreadPoolExecutor", Counted)
    return built


@pytest.mark.parametrize("gammas", (None, (0.5, 1.5)))
def test_simulate_values_do_not_depend_on_worker_count(monkeypatch, pools,
                                                       gammas):
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(analysis, "_WORKERS", workers)
        got = simulate_estimator(_threaded_config(), gammas)
        runs.append(got if gammas else {0.5: got})
    assert pools == [1, 2]
    for got in runs[1:]:
        for g, summary in got.items():
            assert np.array_equal(summary.values, runs[0][g].values)
            assert summary.mean == runs[0][g].mean
            assert summary.variance == runs[0][g].variance


def test_simulate_threads_stress(monkeypatch):
    # more threads than cores, one-row chunks and a short switch interval:
    # a chunk start claimed twice or never changes or leaves a row unset
    monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", 500)
    monkeypatch.setattr(analysis, "_WORKERS", 1)
    serial = simulate_estimator(_threaded_config(replicates=60))
    monkeypatch.setattr(analysis, "_WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = simulate_estimator(_threaded_config(replicates=60))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(threaded.values, serial.values)


@pytest.mark.parametrize("workers, kw, expected", [
    (1, {}, []),                         # six chunks, one CPU
    (2, dict(replicates=131), []),       # one chunk, two CPUs
    (2, dict(replicates=132), [1]),      # two chunks, two CPUs
    (8, {}, [5]),                        # no more threads than chunks
])
def test_pool_only_for_several_chunks_and_cpus(monkeypatch, pools, workers,
                                               kw, expected):
    monkeypatch.setattr(analysis, "_WORKERS", workers)
    simulate_estimator(_threaded_config(**kw))
    assert pools == expected


@pytest.mark.parametrize("raises_on", ("calling", "helper"))
def test_no_thread_outlives_a_failing_call(monkeypatch, raises_on):
    # The other side holds its first chunk until the failing side has
    # failed: unheld, the helpers took all six chunks before the calling
    # thread claimed one in about 4 of 100 calls, and nothing raised. A
    # thread set, not a count, so that a thread unrelated to the call
    # that ends meanwhile cannot hide one the call left running.
    model = make_weibull_square(1.0)
    failed = threading.Event()

    def quantile(u):
        on_caller = threading.current_thread() is threading.main_thread()
        if u.size > 2:
            if on_caller == (raises_on == "calling"):
                failed.set()
                raise DomainError(f"chunk failed on the {raises_on} thread")
            assert failed.wait(timeout=30)
        return model.quantile(u)

    monkeypatch.setattr(analysis, "_WORKERS", 3)
    before = set(threading.enumerate())
    simulate_estimator(_threaded_config())
    assert set(threading.enumerate()) <= before
    failing = _threaded_config(population=dataclasses.replace(
        model, quantile=quantile))
    with pytest.raises(DomainError, match=f"on the {raises_on} thread"):
        simulate_estimator(failing)
    assert set(threading.enumerate()) <= before


def test_a_failing_chunk_stops_the_other_threads(monkeypatch):
    # 60 one-row chunks: the helper may finish the chunk it holds when the
    # calling thread fails, but claims no new one after that
    model = make_weibull_square(1.0)
    failed = threading.Event()
    helper_rows = []

    def quantile(u):
        if u.size > 2:
            if threading.current_thread() is threading.main_thread():
                failed.set()
                raise DomainError("chunk failed")
            assert failed.wait(timeout=30)
            helper_rows.append(len(u))
        return model.quantile(u)

    monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", 500)
    monkeypatch.setattr(analysis, "_WORKERS", 2)
    failing = _threaded_config(replicates=60, population=dataclasses.replace(
        model, quantile=quantile))
    with pytest.raises(DomainError, match="chunk failed"):
        simulate_estimator(failing)
    assert len(helper_rows) < 10


@pytest.mark.parametrize("kw", [
    dict(population=SQUARE_FLOAT_ONLY),
    dict(weight=custom_weight(lambda x: x)),  # Psi by quadrature
], ids=("make_custom", "custom_weight"))
def test_float_only_callables_stay_on_the_calling_thread(monkeypatch, pools,
                                                         kw):
    monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", 10)  # 2 rows of n=5
    serial = simulate_estimator(_config(replicates=40, n=5, **kw))
    monkeypatch.setattr(analysis, "_WORKERS", 4)
    threaded = simulate_estimator(_config(replicates=40, n=5, **kw))
    assert pools == []
    assert np.array_equal(threaded.values, serial.values)


def test_self_density_chunks_run_on_threads(monkeypatch, pools):
    # the self-density path only sorts and diffs uniforms, so a model
    # with float-only callables still runs its chunks on threads
    weight = self_density_weight(SQUARE_FLOAT_ONLY)
    assert analysis._array_native(SQUARE_FLOAT_ONLY, weight)
    config = _config(replicates=40, n=5, population=SQUARE_FLOAT_ONLY,
                     weight=weight)
    monkeypatch.setattr(analysis, "_CHUNK_ELEMENTS", 10)  # 2 rows of n=5
    monkeypatch.setattr(analysis, "_WORKERS", 1)
    serial = simulate_estimator(config)
    monkeypatch.setattr(analysis, "_WORKERS", 2)
    threaded = simulate_estimator(config)
    assert pools == [1]
    assert np.array_equal(threaded.values, serial.values)


ARRAY_FAMILIES = [
    make_power(2.0, 3.0), make_uniform_shifted(0.5), make_frechet(1.0, 4.0),
    make_weibull_square(1.5), make_exponential(2.0),
    prh_transform(make_power(1.0, 2.0), 1.7),
    prh_transform(make_weibull_square(1.0), 0.6),
]


def _scalar_map(fn, xs):
    return np.array([fn(float(x)) for x in xs])


def _assert_cdf_close(got, want):
    """Within rtol=1e-15 times the condition number ``max(1, -ln K)`` of
    ``exp``: a K = exp(-y) computed from a y one ulp apart (numpy's SIMD
    ``pow`` and libm's differ by up to one) differs by ``y`` ulps."""
    cond = np.maximum(1.0, -np.log(np.where(want > 0.0, want, 1.0)))
    assert np.all(np.abs(got - want) <= 1e-15 * cond * want)


@pytest.mark.parametrize("model", ARRAY_FAMILIES, ids=lambda m: m.family)
def test_family_array_quantile_and_cdf_match_scalar(model):
    us = np.concatenate([np.linspace(0.0, 1.0, 203)[1:-1],
                         [1e-300, 1e-12, 1.0 - 1e-12]])
    got = model.quantile(us)
    assert isinstance(got, np.ndarray)
    np.testing.assert_allclose(got, _scalar_map(model.quantile, us),
                               rtol=1e-15, atol=0.0)
    lo = model.support[0]
    xs = np.concatenate([[lo - 1.0, lo], lo + np.linspace(0.0, 6.0, 301)])
    got = model.cdf(xs)
    assert isinstance(got, np.ndarray)
    _assert_cdf_close(got, _scalar_map(model.cdf, xs))


ARRAY_WEIGHTS = [factory() for factory in BUILTIN_WEIGHTS.values()] + [
    power_weight(1.5), self_density_weight(make_weibull_square(1.0)),
    piecewise_linear_weight([0.5, 1.0, 2.5], [1.0, 3.0, 0.5]),
]


@pytest.mark.parametrize("weight", ARRAY_WEIGHTS, ids=lambda w: w.tag)
def test_weight_array_big_psi_matches_scalar(weight):
    xs = np.concatenate([[0.0, 0.5, 1.0, 2.5], np.linspace(0.0, 6.0, 257)])
    got = weight.big_psi(xs)
    assert isinstance(got, np.ndarray)
    np.testing.assert_allclose(got, _scalar_map(weight.big_psi, xs),
                               rtol=1e-15, atol=0.0)


def test_simulate_scalar_only_custom_model_and_weights():
    # math-only callables reject arrays and go through the elementwise map
    square = SQUARE_FLOAT_ONLY
    with pytest.raises(TypeError):
        square.quantile(np.array([0.25, 0.5]))
    reference = simulate_estimator(_config(replicates=40, n=5))
    closed = custom_weight(lambda x: x, lambda x: 0.5 * math.pow(x, 2))
    quad = custom_weight(lambda x: x)  # Psi by quadrature, floats only
    for weight, rtol in ((closed, 1e-12), (quad, 1e-8)):
        got = simulate_estimator(_config(replicates=40, n=5,
                                         population=square, weight=weight))
        np.testing.assert_allclose(got.values, reference.values, rtol=rtol)


@pytest.mark.parametrize("population", [
    make_weibull_square(1.0), make_frechet(1.0, 4.0), make_power(2.0, 3.0)],
    ids=lambda m: m.family)
def test_self_density_path_matches_general_path(population):
    weight = self_density_weight(population)
    # a wrapped cdf is not the weight's antiderivative: the general path
    wrapped = dataclasses.replace(population,
                                  cdf=lambda x, k=population.cdf: k(x))
    fast, general = (simulate_estimator(_config(
        population=m, weight=weight, n=50, replicates=300, gamma=1.5))
        for m in (population, wrapped))
    np.testing.assert_allclose(fast.values, general.values, rtol=1e-14,
                               atol=0.0)


def test_self_density_values_do_not_depend_on_the_population():
    # Psi = K makes Psi(Q(u)) = u: no quantile is evaluated, and every
    # population gives the same replicate values, bit for bit
    calls = []

    def quantile(u):
        calls.append(u)
        return math.sqrt(u)

    square = dataclasses.replace(SQUARE_FLOAT_ONLY, quantile=quantile)
    runs = [simulate_estimator(_config(population=m,
                                       weight=self_density_weight(m))).values
            for m in (square, make_weibull_square(1.0),
                      make_frechet(1.0, 4.0))]
    assert calls == []
    for values in runs[1:]:
        assert np.array_equal(values, runs[0])


def test_simulate_matches_a_sort_free_dirichlet_sampler():
    # K = x^2 with psi = x: Psi = K / 2, so the spacings are half the
    # interior spacings of n uniforms, which are parts 2..n of a
    # Dirichlet(1, ..., 1) over n + 1 parts (Pyke 1965); normalized
    # exponentials draw them with no sort
    import scipy.stats

    n, reps, gammas = 10, 4000, (0.5, 1.5)
    sim = simulate_estimator(_config(n=n, replicates=reps, seed=31), gammas)
    e = np.random.default_rng(32).standard_exponential((reps, n + 1))
    z = 0.5 * (e / e.sum(axis=1, keepdims=True))[:, 1:n]
    for g in gammas:
        exact = z @ _estimator_coefficients(n, g) / special.gamma(g + 1.0)
        got = sim[g]
        assert scipy.stats.ks_2samp(got.values, exact).pvalue > 1e-3
        se = math.sqrt((got.variance + exact.var(ddof=1)) / reps)
        assert abs(got.mean - exact.mean()) <= 3.0 * se


@pytest.mark.parametrize("size, seed", [(2, 0), (3, 1), (40, 2), (2000, 3)])
def test_normal_fit_matches_scipy_stats(size, seed):
    import scipy.stats

    rng = np.random.default_rng(seed)
    z = rng.standard_gamma(4.0, size) - 4.0  # skewed, heavy right tail
    z[size // 2:] = np.round(z[size // 2:], 1)  # with ties
    got = analysis._normal_fit(z)
    want = (scipy.stats.kstest(z, "norm").statistic, scipy.stats.skew(z),
            scipy.stats.kurtosis(z))
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


def test_clt_refuses_fewer_than_two_replicates():
    with pytest.raises(PreconditionUnmet, match="2 replicates"):
        clt_diagnostic(_config(replicates=1,
                               population=make_weibull_square(1.0)))


def test_clt_refuses_zero_spread():
    zero = custom_weight(lambda x: 0.0 * x, lambda x: 0.0 * x)
    with pytest.raises(PreconditionUnmet, match="non-finite spread"):
        clt_diagnostic(_config(weight=zero), exact_moments=(0.0, 1.0))


def test_clt_small_n_reports_only():
    rep = clt_diagnostic(_config(n=5, population=make_weibull_square(1.0)))
    assert rep.passes is None
    assert rep.moment_source == "exact_weibull"


def test_clt_monte_carlo_moment_fallback():
    rep = clt_diagnostic(_config(weight=weight_one(), replicates=400, n=250))
    assert rep.moment_source == "monte_carlo"
    assert rep.passes is not None


@pytest.mark.parametrize("weight, source", [
    (power_weight(1.0), "exact_weibull"),
    # psi = x^2 under the tag "x": its moments are not those of psi = x
    (custom_weight(lambda x: x * x, lambda x: x ** 3 / 3.0, tag="x"),
     "monte_carlo"),
], ids=("power_weight", "x2_tagged_x"))
def test_exact_moments_follow_the_weight_power(weight, source):
    population = make_weibull_square(1.0)
    assert _exact_moments(population, weight, 200, 0.5)[1] == source


def test_clt_self_weight_source():
    u = make_uniform_shifted(0.0)
    rep = clt_diagnostic(_config(population=u, weight=self_density_weight(u),
                                 replicates=400, n=250))
    assert rep.moment_source == "exact_self_weight"
    assert rep.passes


@pytest.mark.parametrize("owner, source", [
    (make_uniform_shifted(0.0), "monte_carlo"),
    (make_exponential(1.0), "monte_carlo"),
    # another instance of the population's own family and parameter
    (make_weibull_square(1.0), "exact_self_weight"),
], ids=("uniform", "exponential", "weibull"))
def test_self_density_moments_need_the_population_cdf(owner, source):
    # another model's density has no Beta(1, n) spacings under this one
    rep = clt_diagnostic(SimulationConfig(2000, 200, 1,
                                          make_weibull_square(1.0),
                                          self_density_weight(owner), 0.5))
    assert rep.moment_source == source
    assert rep.passes


def test_consistency_profile_shrinks():
    prof = consistency_profile(make_power(1.0, 2.0), weight_x(), 0.5,
                               sample_sizes=(50, 400), replicates=60)
    assert prof[400] < prof[50]
