"""Quadrature in the right tail: an in-test mpmath oracle for the Weibull
and exponential families and for the Frechet forms, typed refusals of
divergent Frechet integrals before any quadrature (the PRH identities
and expectation terms included), the PRH decomposition against the transformed model, and the
closed forms by weight exponent against mpmath, and finite supports at
large gamma. Every kernel and the PRH terms run in u = K(x) on the
tanh-sinh rule at its end logs."""

import dataclasses
import json
import math

import mpmath as mp
import pytest
import scipy.integrate

from wfgcpe import cli, distributions, measures
from wfgcpe.cli import EXIT_NONCONVERGENCE, EXIT_USAGE, main
from wfgcpe.distributions import (make_exponential, make_frechet,
                                  make_power, make_uniform_shifted,
                                  make_weibull_square, mean_inactivity_time,
                                  prh_expectation_terms, prh_n_step,
                                  prh_recurrence_step, prh_transform,
                                  prh_wfgcpe)
from wfgcpe.errors import ConstraintError, DomainError, NonConvergence
from wfgcpe.measures import (affine_wfgcpe, dynamic_wfgcpe, tau, wfgcpe,
                             wfgcre)
from wfgcpe.weights import (BUILTIN_WEIGHTS, custom_weight, power_weight,
                            self_density_weight)

MP_WEIGHTS = {
    "one": lambda x: mp.mpf(1),
    "x": lambda x: x,
    "x2": lambda x: x * x,
    "sqrtx": mp.sqrt,
    "expneg": lambda x: mp.exp(-x),
}

#: K(x) = 1 - e^{-t(x)} for both families, at theta = rate = 1.
FAMILIES = {
    "weibull_square": (make_weibull_square(1.0), lambda x: x * x),
    "exponential": (make_exponential(1.0), lambda x: x),
}

CELLS = (
    [("weibull_square", w, 0.25)
     for w in ("one", "x", "x2", "sqrtx", "expneg")]
    + [("weibull_square", "x", 0.5)]
    + [("exponential", w, 0.25) for w in ("one", "x", "x2", "sqrtx")]
    + [("exponential", w, 0.5) for w in ("x", "x2")]
)


def _mp_log1m_exp(t):
    """ln(1 - e^{-t}): ``-log(K)`` would round ``K`` to 1 in the tail,
    and ``log1p(-e^{-t})`` alone loses ``1 - e^{-t}`` near 0."""
    if t < mp.log(2):
        return mp.log(-mp.expm1(-t))
    return mp.log1p(-mp.exp(-t))


def _mp_wfgcpe(t_of_x, weight, gamma):
    psi = MP_WEIGHTS[weight]

    def f(x):
        if x == 0:
            return mp.mpf(0)
        nl = -_mp_log1m_exp(t_of_x(x))
        return psi(x) * mp.exp(-nl) * nl ** gamma

    with mp.workdps(20):
        return float(mp.quad(f, [0, 1, 4, mp.inf]) / mp.gamma(gamma + 1))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("t", [1e-10, 1e-3, 0.5, 0.6931471805599453, 1.0,
                               5.0, 40.0, 700.0])
def test_log_cdf_is_exact_at_both_ends(family, t):
    model, t_of_x = FAMILIES[family]
    x = t if family == "exponential" else t ** 0.5
    with mp.workdps(30):
        expected = float(_mp_log1m_exp(mp.mpf(t_of_x(x))))
    assert abs(model.log_cdf(x) - expected) <= 1e-15 * abs(expected)


@pytest.mark.parametrize("family,weight,gamma", CELLS)
def test_tail_cells_match_mpmath(family, weight, gamma):
    model, t_of_x = FAMILIES[family]
    got = wfgcpe(model, BUILTIN_WEIGHTS[weight](), gamma,
                 method="quadrature").value
    expected = _mp_wfgcpe(t_of_x, weight, gamma)
    assert abs(got - expected) <= 1e-9 * abs(expected)


def _mp_frechet_wfgcre(weight, gamma):
    """Residual form of Frechet(1, 4): survival S = 1 - e^{-x^-4}."""
    psi = MP_WEIGHTS[weight]

    def f(x):
        if x == 0:
            return mp.mpf(0)
        log_s = _mp_log1m_exp(x ** -4)
        return psi(x) * mp.exp(log_s) * (-log_s) ** gamma

    with mp.workdps(20):
        return float(mp.quad(f, [0, 1, mp.inf]) / mp.gamma(gamma + 1))


@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 1.5, 2.75])
@pytest.mark.parametrize("weight", sorted(MP_WEIGHTS))
def test_frechet_residual_cells_match_mpmath(weight, gamma):
    got = wfgcre(make_frechet(1.0, 4.0), BUILTIN_WEIGHTS[weight](), gamma)
    expected = _mp_frechet_wfgcre(weight, gamma)
    assert abs(got - expected) <= 1e-8 * abs(expected)


def test_frechet_residual_cell_holds_the_engine_tolerance():
    # 40-digit mpmath; Python's inverse tail map once gave 0.0556237948068,
    # 1.8e-9 off and above the engine's rel_tol of 1e-9
    got = wfgcre(make_frechet(1.0, 4.0), BUILTIN_WEIGHTS["expneg"](), 2.75)
    expected = 0.0556237947077040
    assert abs(got - expected) <= 1e-9 * expected


#: wfgcre of Frechet(1, 4) with weight x^p, p just below its bound 3, from
#: 40-digit mpmath in z = ln x^4: below z = 90 by quadrature, above it
#: (where S = e^-z to 40 digits) as e^{-g-1} Gamma(g + 1, e z), e = 1 -
#: (p + 1)/4. The integrand in u grows like (1 - u)^{-1 + e}, and x^p
#: passes the largest float from x = 1e106.
FRECHET_RESIDUAL_NEAR_BOUND = [
    (2.8, 0.3, 12.328635851788883581), (2.8, 2.0, 2000.0097014918860713),
    (2.9, 0.3, 30.284398935830066026), (2.9, 1.0, 400.01545303019467721),
    (2.9, 2.0, 16000.007101540457061), (2.92, 2.0, 31250.006534654998515),
    (2.95, 0.3, 74.505407980731062081), (2.95, 1.0, 1600.0137833753704263),
    (2.95, 2.0, 128000.00565280585853)]


@pytest.mark.parametrize("p,gamma,expected", FRECHET_RESIDUAL_NEAR_BOUND)
def test_frechet_residual_near_its_bound_keeps_the_far_tail(p, gamma,
                                                            expected):
    got = wfgcre(make_frechet(1.0, 4.0), power_weight(p), gamma)
    assert abs(got - expected) <= 1e-12 * expected


#: Frechet(1, 4) with weight x^p diverges for gamma <= (p + 1) / 4; at
#: these cells QUADPACK's estimate once passed and the value came out
#: negative. The declared tail index and weight growth now refuse them.
DIVERGENT_FRECHET = [("x", 0.25), ("x2", 0.25), ("x2", 0.5), ("sqrtx", 0.25)]


@pytest.mark.parametrize("weight,gamma", DIVERGENT_FRECHET)
def test_divergent_frechet_is_refused(weight, gamma):
    model = make_frechet(1.0, 4.0)
    psi = BUILTIN_WEIGHTS[weight]()
    with pytest.raises(ConstraintError):
        wfgcpe(model, psi, gamma, method="quadrature")
    with pytest.raises(ConstraintError):
        affine_wfgcpe(model, psi, gamma, 1.5, 0.5)


def test_divergent_tau_is_refused():
    model = make_frechet(1.0, 4.0)
    with pytest.raises(ConstraintError):
        tau(model, BUILTIN_WEIGHTS["x2"](), 0.5, model.quantile(0.3))


def test_divergent_compute_exits_2(capsys):
    # sqrtx has no Frechet closed form, so compute takes the quadrature
    # path, which refuses before integrating
    code = main(["compute", "--dist", "frechet", "--b", "1", "--c", "4",
                 "--weight", "sqrtx", "--gamma", "0.25"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == "" and "error:" in captured.err


# ---------------------------------------------------------------------------
# The divergence rule on the Frechet(1, 4) grid
# ---------------------------------------------------------------------------

FRECHET = make_frechet(1.0, 4.0)
GAMMAS = (0.25, 0.5, 1.0, 1.5, 2.75)
#: The weight growth p of each builtin weight; self_density declares none
#: (its density decays like x^-5, so no cell diverges).
GROWTH = {"one": 0.0, "x": 1.0, "x2": 2.0, "sqrtx": 0.5,
          "expneg": -math.inf, "self_density": None}
TAU_U = 0.3
AFFINE = (1.5, 0.5)


def _weight(name):
    if name == "self_density":
        return self_density_weight(FRECHET)
    return BUILTIN_WEIGHTS[name]()


def _mp_weight(name):
    if name == "self_density":  # k(x) = 4 x^-5 e^{-x^-4}
        return lambda x: 4 * x ** -5 * mp.exp(-x ** -4)
    return MP_WEIGHTS[name]


def _diverges(name, gamma):
    p = GROWTH[name]
    return p is not None and gamma <= (p + 1) / 4


def _mp_frechet(measure, name, gamma):
    """In ``t = x^-4`` the kernel is ``psi(x) e^{-t} t^gamma`` with
    ``dx = t^{-5/4} dt / 4``, singular like ``t^{gamma - (p + 1)/4 - 1}``
    at 0; ``t = v^8`` makes every finite cell of the grid bounded there."""
    psi = _mp_weight(name)
    a, b = AFFINE if measure == "affine" else (1, 0)
    hi = (-mp.log(TAU_U) if measure == "tau" else mp.inf) ** 0.125
    damped = measure != "tau"

    def f(v):
        if v == 0:
            return mp.mpf(0)
        t = v ** 8
        x = a * t ** -0.25 + b
        return (2 * a * psi(x) * (mp.exp(-t) if damped else 1)
                * t ** gamma * v ** -3)

    with mp.workdps(20):
        return float(mp.quad(f, [0, 1, hi] if hi > 1 else [0, hi])
                     / mp.gamma(gamma + 1))


MEASURES = {
    "wfgcpe": lambda psi, g: wfgcpe(FRECHET, psi, g,
                                    method="quadrature").value,
    "tau": lambda psi, g: tau(FRECHET, psi, g, FRECHET.quantile(TAU_U)),
    "affine": lambda psi, g: affine_wfgcpe(FRECHET, psi, g, *AFFINE),
}
GRID = [(m, w, g) for m in MEASURES for w in GROWTH for g in GAMMAS]


def _forbid_quadrature(monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a refused cell called integrate")

    for module in (measures, distributions):
        monkeypatch.setattr(module, "integrate", no_quadrature)


@pytest.mark.parametrize("measure,name,gamma", GRID)
def test_frechet_grid(monkeypatch, measure, name, gamma):
    """Refused, without a quadrature call, exactly where gamma <= (p+1)/4;
    elsewhere equal to the mpmath value."""
    psi = _weight(name)
    if _diverges(name, gamma):
        _forbid_quadrature(monkeypatch)
        with pytest.raises(ConstraintError, match="diverges"):
            MEASURES[measure](psi, gamma)
        return
    got = MEASURES[measure](psi, gamma)
    expected = _mp_frechet(measure, name, gamma)
    assert abs(got - expected) <= 1e-8 * abs(expected)


def test_residual_rule():
    # 1 - K ~ x^-4: the residual kernel diverges iff p + 1 >= 4, any gamma
    with pytest.raises(ConstraintError, match="diverges for gamma > 0"):
        wfgcre(FRECHET, power_weight(3.0), 2.75)
    assert wfgcre(FRECHET, power_weight(2.5), 2.75) > 0.0


def test_prh_model_inherits_the_tail_index():
    model = prh_transform(FRECHET, 1.7)
    assert model.tail_index == 4.0
    with pytest.raises(ConstraintError):
        wfgcpe(model, BUILTIN_WEIGHTS["x"](), 0.5)


def test_undeclared_weight_still_ends_in_nonconvergence(monkeypatch, capsys):
    # psi = x without a declared growth: quadrature decides, as before,
    # also under a builtin's tag
    for tag in ("custom", "x"):
        with pytest.raises(NonConvergence):
            wfgcpe(FRECHET, custom_weight(lambda x: x, tag=tag), 0.5)
    monkeypatch.setitem(cli.BUILTIN_WEIGHTS, "sqrtx",
                        lambda: custom_weight(math.sqrt, tag="sqrtx"))
    code = main(["compute", "--dist", "frechet", "--b", "1", "--c", "4",
                 "--weight", "sqrtx", "--gamma", "0.25"])
    captured = capsys.readouterr()
    assert code == EXIT_NONCONVERGENCE
    assert captured.out == "" and "error:" in captured.err


# ---------------------------------------------------------------------------
# PRH decomposition against the transformed model's quadrature
# ---------------------------------------------------------------------------

WEIBULL = make_weibull_square(1.0)
ETA = 1.7


def _direct(gamma):
    return wfgcpe(prh_transform(WEIBULL, ETA), BUILTIN_WEIGHTS["x"](), gamma,
                  method="quadrature").value


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5])
def test_prh_decomposition_matches_transformed_model(gamma):
    # at gamma <= 1 an unused order-gamma term once diverged, and at
    # gamma = 1 the quantile's argument rounded to 1 and raised
    psi = BUILTIN_WEIGHTS["x"]()
    direct = [_direct(gamma + k) for k in range(4)]
    got = {0: prh_wfgcpe(WEIBULL, ETA, psi, gamma),
           1: prh_recurrence_step(WEIBULL, ETA, psi, gamma, direct[0])}
    for n in (1, 2, 3):
        assert abs(prh_n_step(WEIBULL, ETA, psi, gamma, n, direct[0])
                   - direct[n]) <= 1e-8 * direct[n]
    for k, value in got.items():
        assert abs(value - direct[k]) <= 1e-8 * direct[k]


# ---------------------------------------------------------------------------
# The PRH identities on the Frechet(1, 4) grid
# ---------------------------------------------------------------------------

PRH_IDENTITIES = {
    # each maps (eta, psi, gamma, the order-gamma entropy) to the entropy
    # at the order gamma + k it returns
    "prh_wfgcpe": (0, lambda eta, psi, g, prior:
                   prh_wfgcpe(FRECHET, eta, psi, g)),
    "prh_recurrence_step": (1, lambda eta, psi, g, prior:
                            prh_recurrence_step(FRECHET, eta, psi, g, prior)),
    "prh_n_step": (2, lambda eta, psi, g, prior:
                   prh_n_step(FRECHET, eta, psi, g, 2, prior)),
}
#: (1.7, sqrtx, 0.5) integrates (1 - u)^{-7/8} at u = 1 in E(gamma); it
#: holds (2.5931979096) because the rule passes 1 - u to the integrand.
PRH_GRID = [(i, eta, w, g) for i in PRH_IDENTITIES
            for eta in (0.5, 1.7, 3.0) for w in ("one", "x", "x2", "sqrtx")
            for g in (0.25, 0.5)]


@pytest.mark.parametrize("identity,eta,name,gamma", PRH_GRID)
def test_prh_identities_on_the_frechet_grid(monkeypatch, identity, eta,
                                            name, gamma):
    """Refused, without a quadrature call, wherever the transformed
    model's entropy is (18 of the 24 cells); elsewhere equal to it."""
    psi = BUILTIN_WEIGHTS[name]()
    model = prh_transform(FRECHET, eta)
    k, run_identity = PRH_IDENTITIES[identity]
    if _diverges(name, gamma):
        with pytest.raises(ConstraintError):
            wfgcpe(model, psi, gamma)
        _forbid_quadrature(monkeypatch)
        with pytest.raises(ConstraintError, match="diverges"):
            run_identity(eta, psi, gamma, 0.1)
        return
    prior, expected = (wfgcpe(model, psi, gamma + j).value for j in (0, k))
    got = run_identity(eta, psi, gamma, prior)
    assert abs(got - expected) <= 1e-7 * expected


#: Et(gamma)'s x-space integrand x psi' K2 (-ln K2)^{gamma-1} decays like
#: x^{p - 4(gamma-1)}: finite only for gamma > (p + 1)/4 + 1.
ET_GRID = [(name, g) for name in ("x", "x2", "sqrtx")
           for g in (0.25, 0.5, 1.0, 1.5)]


@pytest.mark.parametrize("name,gamma", ET_GRID)
def test_prh_expectation_terms_refuse_a_divergent_et(monkeypatch, name,
                                                     gamma):
    """11 of the 12 cells diverge in Et and are refused, naming Et and its
    order gamma - 1, without a quadrature call; the finite one,
    sqrt(x) at gamma = 1.5, equals its closed form."""
    psi = BUILTIN_WEIGHTS[name]()
    if gamma - 1.0 > (psi.growth + 1.0) / 4.0:
        # Et = eta^{11/8} Gamma(1/8) / (8 Gamma(3/2)) for sqrt(x), g = 1.5
        expected = 1.7 ** 1.375 * math.gamma(0.125) / (8 * math.gamma(1.5))
        got = prh_expectation_terms(FRECHET, 1.7, psi, gamma).e_tilde_term
        assert abs(got - expected) <= 1e-9 * expected
        return
    _forbid_quadrature(monkeypatch)
    with pytest.raises(ConstraintError, match=r"^Et, of order gamma - 1: "
                       rf".* diverges .*, got {gamma - 1.0:g}$"):
        prh_expectation_terms(FRECHET, 1.7, psi, gamma)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("name", ["x", "x2", "sqrtx"])
@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
def test_light_tails_refuse_et_at_orders_up_to_one(monkeypatch, family, name,
                                                   gamma):
    # tail index inf, lighter than any power: Et's order gamma - 1 <= 0
    # leaves no kernel, and psi' ~ x^{p-1} does not decay fast enough
    base = FAMILIES[family][0]
    assert base.tail_index == math.inf
    _forbid_quadrature(monkeypatch)
    with pytest.raises(ConstraintError, match=r"^Et, of order gamma - 1: "):
        prh_expectation_terms(base, 1.7, BUILTIN_WEIGHTS[name](), gamma)


# ---------------------------------------------------------------------------
# Closed forms by weight exponent against mpmath
# ---------------------------------------------------------------------------

def _mp_power(b, c, name, gamma):
    psi = MP_WEIGHTS[name]

    def f(x):
        nl = -c * mp.log(x / b)
        return psi(x) * mp.exp(-nl) * nl ** gamma

    with mp.workdps(20):
        return float(mp.quad(f, [0, b]) / mp.gamma(gamma + 1))


def _mp_frechet_cpe(b, c, name, gamma):
    psi = MP_WEIGHTS[name]

    def f(x):
        nl = b * x ** -c
        return psi(x) * mp.exp(-nl) * nl ** gamma

    with mp.workdps(20):
        return float(mp.quad(f, [0, 1, 4, mp.inf]) / mp.gamma(gamma + 1))


def _mp_uniform(a, name, gamma):
    psi = MP_WEIGHTS[name]

    def f(t):  # t = x - a = K(x)
        return psi(a + t) * t * (-mp.log(t)) ** gamma

    with mp.workdps(20):
        return float(mp.quad(f, [0, 1]) / mp.gamma(gamma + 1))


CLOSED_CELLS = (
    [(make_power, (b, c), w, g, _mp_power)
     for b, c in ((1.3, 2.2), (2.0, 0.7)) for w in ("one", "sqrtx")
     for g in (0.25, 1.0, 2.75)]
    + [(make_frechet, (1.3, 2.2), "sqrtx", g, _mp_frechet_cpe)
       for g in (1.0, 2.75)]
    + [(make_frechet, (0.7, 5.0), "sqrtx", g, _mp_frechet_cpe)
       for g in (0.5, 1.0, 2.75)]
    + [(make_uniform_shifted, (a,), w, g, _mp_uniform)
       for a in (0.0, 0.7, 3.0) for w in ("one", "x", "x2")
       for g in (0.25, 1.0, 2.75)]
)


@pytest.mark.parametrize("family,params,name,gamma,oracle", CLOSED_CELLS)
def test_closed_form_matches_mpmath(family, params, name, gamma, oracle):
    report = wfgcpe(family(*params), BUILTIN_WEIGHTS[name](), gamma)
    expected = oracle(*params, name, gamma)
    assert report.method == "closed_form"
    assert abs(report.value - expected) <= 1e-9 * expected


@pytest.mark.parametrize("c", [2.2, 5.0])
@pytest.mark.parametrize("method", ["auto", "closed_form", "quadrature"])
def test_sqrtx_frechet_refused_at_and_below_the_bound(monkeypatch, c,
                                                      method):
    # sqrt(x) ~ x^0.5: the bound is (0.5 + 1) / c
    model = make_frechet(1.3, c)
    _forbid_quadrature(monkeypatch)
    for gamma in (1.5 / c, 0.9 * 1.5 / c):
        with pytest.raises(ConstraintError, match="diverges"):
            wfgcpe(model, BUILTIN_WEIGHTS["sqrtx"](), gamma, method=method)
    assert wfgcpe(model, BUILTIN_WEIGHTS["sqrtx"](), 1.01 * 1.5 / c,
                  method="closed_form").value > 0.0


def test_builtin_tag_without_growth_takes_quadrature():
    model = make_power(1.3, 2.2)
    report = wfgcpe(model, custom_weight(lambda x: x, tag="x"), 0.5)
    assert report.method == "quadrature"
    closed = wfgcpe(model, BUILTIN_WEIGHTS["x"](), 0.5)
    assert closed.method == "closed_form"
    assert abs(report.value - closed.value) <= 1e-9 * closed.value


# ---------------------------------------------------------------------------
# Right-infinite kernels and PRH terms in u = K(x), at the rule's end logs
# ---------------------------------------------------------------------------

#: The 69 finite cells of Frechet(1, 4), Weibull shape 2 and exponential(1)
RIGHT_INFINITE_CELLS = [
    (family, w, g) for family in ("exponential", "frechet", "weibull_square")
    for w in sorted(MP_WEIGHTS) for g in GAMMAS
    if not (family == "frechet" and _diverges(w, g))]


@pytest.mark.parametrize("family,weight,gamma", RIGHT_INFINITE_CELLS)
def test_right_infinite_cells_hold_1e12_without_quadpack(family, weight,
                                                         gamma):
    # QAGI's worst error here was 1.1e-12 (exponential, psi = 1, 0.25)
    if family == "frechet":
        model, expected = FRECHET, _mp_frechet("wfgcpe", weight, gamma)
    else:
        model, t_of_x = FAMILIES[family]
        expected = _mp_wfgcpe(t_of_x, weight, gamma)
    report = wfgcpe(model, BUILTIN_WEIGHTS[weight](), gamma,
                    method="quadrature")
    assert report.quadrature.rule == "tanh_sinh"
    assert abs(report.value - expected) <= 1e-12 * expected


PRH_BASES = {
    "exponential": make_exponential(1.0), "frechet": FRECHET,
    "weibull_square": WEIBULL, "power(1,2)": make_power(1.0, 2.0),
    "power(2,0.5)": make_power(2.0, 0.5),
    "uniform(0.5)": make_uniform_shifted(0.5),
    "uniform(3)": make_uniform_shifted(3.0),
}


@pytest.mark.parametrize("base", sorted(PRH_BASES))
def test_prh_decomposition_on_seven_bases(monkeypatch, base):
    """prh_wfgcpe against the transformed model's entropy at 1e-8, over
    eta in {0.3, 0.5, 1.7, 3}, the builtin weights and GAMMAS: 676 finite
    cells, none of which runs QUADPACK; the 24 divergent Frechet cells are
    refused without a quadrature call."""
    def no_quadpack(*args, **kwargs):
        raise AssertionError("QUADPACK ran")

    monkeypatch.setattr(scipy.integrate, "quad", no_quadpack)
    model = PRH_BASES[base]
    for eta in (0.3, 0.5, 1.7, 3.0):
        transformed = prh_transform(model, eta)
        for name in sorted(MP_WEIGHTS):
            psi = BUILTIN_WEIGHTS[name]()
            for gamma in GAMMAS:
                if base == "frechet" and _diverges(name, gamma):
                    with monkeypatch.context() as m:
                        _forbid_quadrature(m)
                        with pytest.raises(ConstraintError):
                            prh_wfgcpe(model, eta, psi, gamma)
                    continue
                direct = wfgcpe(transformed, psi, gamma, method="quadrature")
                got = prh_wfgcpe(model, eta, psi, gamma)
                assert direct.quadrature.rule == "tanh_sinh"
                assert abs(got - direct.value) <= 1e-8 * direct.value, (
                    eta, name, gamma)


def test_prh_terms_of_exponential_at_order_1_5():
    # once NonConvergence: the quantile's argument rounded onto 1, and
    # 1/lambda1 with it; the values are x-space mpmath's to 2.4e-16
    terms = prh_expectation_terms(make_exponential(1.0), 1.7,
                                  BUILTIN_WEIGHTS["x2"](), 1.5)
    assert abs(terms.e_term - 2.772853233931677) <= 1e-14
    assert abs(terms.e_tilde_term - 75.952751737838) <= 1e-12


@pytest.mark.parametrize("family,u", [("exponential", 30.0),
                                      ("exponential", 60.0),
                                      ("exponential", 70.0),
                                      ("exponential", 200.0),
                                      ("frechet", 800.0)])
def test_tau_deep_in_the_tail(family, u):
    # u = K(x) on (K(lo), 1) with 1 - K(lo) below 1e-11: ln u is taken
    # from 1 - u; QAGI's values were up to 7% off, inside abs_tol, and
    # 2.5e-6 off past 1 - K(lo) = e^-64
    model = FRECHET if family == "frechet" else FAMILIES[family][0]
    if family == "frechet":  # (x^-4)^1.5 = x^-6
        expected = u ** -5 / 5 / math.gamma(2.5)
    else:
        with mp.workdps(30):  # in t = e^{-x}: -ln K = -ln(1 - t)
            expected = float(mp.quad(lambda t: (-mp.log1p(-t)) ** 1.5 / t,
                                     [0, mp.exp(-u)]) / mp.gamma(2.5))
    got = tau(model, BUILTIN_WEIGHTS["one"](), 1.5, u)
    assert abs(got - expected) <= 1e-9 * expected


@pytest.mark.parametrize("gamma", [1.0, 2.0])
@pytest.mark.parametrize("u", [1e3, 1e4, 1e5])
def test_tau_on_a_prh_model_where_its_cdf_rounds_to_1(u, gamma):
    # K = K1^1.7 rounds to 1 past u = 1e3: the nodes in u start from
    # ln(1 - K) at u, which only ln K1 keeps; -ln K = 1.7 x^-4
    model = prh_transform(make_frechet(1.0, 4.0), 1.7)
    expected = (1.7 ** gamma * u ** (1.0 - 4.0 * gamma)
                / ((4.0 * gamma - 1.0) * math.gamma(gamma + 1.0)))
    got = tau(model, BUILTIN_WEIGHTS["one"](), gamma, u)
    assert abs(got - expected) <= 1e-12 * expected


@pytest.mark.parametrize("b,c,name", [(0.7, 5.0, "one"), (0.7, 5.0, "x2"),
                                      (3.0, 10.0, "sqrtx")])
def test_near_the_divergence_bound_the_tail_stays_on_the_rule(b, c, name):
    # at 1.05 (p + 1) / c the integrand in u grows like (1 - u)^{-1 + e},
    # e = 0.05 (p + 1) / c <= 0.03: a share 1e-275^e of its mass lies past
    # t = 6, and none to speak of past the rule's last node at t = 10
    psi = BUILTIN_WEIGHTS[name]()
    gamma = 1.05 * (psi.growth + 1.0) / c
    model = make_frechet(b, c)
    report = wfgcpe(model, psi, gamma, method="quadrature")
    expected = wfgcpe(model, psi, gamma, method="closed_form").value
    assert report.quadrature.rule == "tanh_sinh"
    assert abs(report.value - expected) <= 1e-9 * expected


@pytest.mark.parametrize("c", [1.5, 2.0, 3.0, 4.0, 6.0, 10.0])
@pytest.mark.parametrize("name", ["one", "x", "x2", "sqrtx"])
def test_within_two_percent_of_the_bound_no_value_is_silently_off(c, name):
    # at k (p + 1) / c the integrand in u grows like (1 - u)^{-1 + e}, e =
    # (k - 1)(p + 1)/c: past x = e^709.78 (x^2 past 1.8e308 from x = 1e154)
    # lies a share e^{-709.78 c e} of the mass, kept by p ln x in the log
    # sum; past the rule's last node, e^-34,599 from 1, a share e^{-34,599
    # e}. Each cell holds 1e-10 of the closed form, or, where e < 1e-3 may
    # leave more than that past t = 10, raises
    model, psi = make_frechet(1.0, c), BUILTIN_WEIGHTS[name]()
    for k in (1.002, 1.005, 1.01, 1.02):
        gamma = k * (psi.growth + 1.0) / c
        expected = wfgcpe(model, psi, gamma, method="closed_form").value
        try:
            got = wfgcpe(model, psi, gamma, method="quadrature").value
        except NonConvergence:
            assert (k - 1.0) * (psi.growth + 1.0) / c < 1e-3
            continue
        assert abs(got - expected) <= 1e-10 * expected


@pytest.mark.parametrize("c", [2.0, 4.0])
@pytest.mark.parametrize("name", ["x", "x2", "sqrtx"])
def test_prh_terms_near_the_bound_keep_the_far_tail(c, name):
    # Frechet(1, c)^eta is Frechet(eta, c): the decomposition's x psi =
    # x^{p+1} and x psi' = p x^p run as powers of x in the log sum
    psi, eta = BUILTIN_WEIGHTS[name](), 1.7
    for k in (1.01, 1.05):
        gamma = k * (psi.growth + 1.0) / c
        expected = wfgcpe(make_frechet(eta, c), psi, gamma,
                          method="closed_form").value
        got = prh_wfgcpe(make_frechet(1.0, c), eta, psi, gamma)
        assert abs(got - expected) <= 1e-9 * expected


@pytest.mark.parametrize("c", [2.0, 4.0])
@pytest.mark.parametrize("name", ["one", "x", "x2", "sqrtx"])
def test_undeclared_tail_exponent_settles_on_the_rule_or_diverges(c, name):
    # with no tail index the gate passes every cell to quadrature: at or
    # below the bound the terms do not decay by t = 10, or the log sum
    # overflows and QUADPACK in u gives up; above it the rule holds the
    # tail out to t = 10
    model = dataclasses.replace(make_frechet(1.0, c), tail_index=None)
    psi = BUILTIN_WEIGHTS[name]()
    bound = (psi.growth + 1.0) / c
    for k in (0.5, 0.95, 1.0):
        with pytest.raises(NonConvergence):
            wfgcpe(model, psi, k * bound, method="quadrature")
    report = wfgcpe(model, psi, 1.05 * bound, method="quadrature")
    expected = wfgcpe(make_frechet(1.0, c), psi, 1.05 * bound,
                      method="closed_form").value
    assert report.quadrature.rule == "tanh_sinh"
    assert abs(report.value - expected) <= 1e-10 * expected


def test_no_closed_form_at_or_below_an_undeclared_bound():
    # the closed form answers only where the integral converges, so with
    # no tail index to refuse a cell, auto falls to quadrature, which
    # diverges, and closed_form has nothing to give
    model = dataclasses.replace(make_frechet(1.0, 2.0), tail_index=None)
    for name, gammas in (("one", (0.4, 0.5)), ("x", (0.4, 0.5, 0.75, 1.0))):
        for gamma in gammas:
            psi = BUILTIN_WEIGHTS[name]()
            with pytest.raises(NonConvergence):
                wfgcpe(model, psi, gamma)
            with pytest.raises(DomainError, match="no closed form"):
                wfgcpe(model, psi, gamma, method="closed_form")
    report = wfgcpe(model, BUILTIN_WEIGHTS["one"](), 1.0)
    assert report.method == "closed_form"
    assert abs(report.value - math.sqrt(math.pi) / 2.0) <= 1e-15


@pytest.mark.parametrize("gamma, expected", [(0.02, 252818.5247145362864),
                                             (0.03, 75311.14093851754)])
def test_exponential_x2_near_gamma_0_holds_its_far_tail(gamma, expected):
    # in u the integrand decays like (1 - u)^{g - 1} times logs: at
    # g = 0.02 a share 3e-6 of its mass lies past t = 6, 1.5e-275 from 1
    assert abs(_mp_wfgcpe(lambda x: x, "x2", gamma) / expected - 1) < 1e-15
    report = wfgcpe(make_exponential(1.0), BUILTIN_WEIGHTS["x2"](), gamma)
    assert report.quadrature.rule == "tanh_sinh"
    assert abs(report.value - expected) <= 1e-12 * expected


def test_exponential_x2_near_gamma_0_scales_with_the_rate():
    # x -> x / rate: ln K is the same function of rate x, so the entropy
    # of psi = x^2 scales by rate^-3
    psi, gamma, rate = BUILTIN_WEIGHTS["x2"](), 0.023, 0.00345
    unit = wfgcpe(make_exponential(1.0), psi, gamma).value
    got = wfgcpe(make_exponential(rate), psi, gamma).value
    assert abs(got - rate ** -3 * unit) <= 1e-12 * got


def test_compute_prints_the_far_tail_value(capsys):
    code = main(["compute", "--dist", "exponential", "--theta", "1",
                 "--weight", "x2", "--gamma", "0.02", "--format", "json"])
    value = json.loads(capsys.readouterr().out)["rows"][0]["value"]
    assert code == 0
    assert abs(value - 252818.5247145362864) <= 1e-12 * value


# ---------------------------------------------------------------------------
# Finite supports in u = K(x): the mass within e^-gamma of a nonzero end
# ---------------------------------------------------------------------------

def _mp_power_wfgcre(c, name, gamma):
    """Residual form of K = x^c on (0, 1), ln(1 - K) tail-exact."""
    psi = MP_WEIGHTS[name]

    def f(x):
        log_s = _mp_log1m_exp(-c * mp.log(x))
        return psi(x) * mp.exp(log_s) * (-log_s) ** gamma

    with mp.workdps(40):
        return float(mp.quad(f, [0, 0.5, 1]) / mp.gamma(gamma + 1))


def _mp_uniform_expneg(a, j, gamma):
    """``(1/Gamma(g+1)) int_0^1 e^{-(a+t)} t^{j-1} (-ln t)^g dt`` as
    ``e^-a sum_k (-1)^k / (k! (k + j)^(g+1))``: ``tau`` at the support's
    start for ``j = 1``, the entropy for ``j = 2``. Quadrature in t misses
    the peak at t = e^-g."""
    with mp.workdps(40):
        return float(mp.exp(-a) * mp.nsum(
            lambda k: (-1) ** k / (mp.factorial(k) * (k + j) ** (gamma + 1)),
            [0, mp.inf]))


U3, U400 = make_uniform_shifted(3.0), make_uniform_shifted(400.0)

#: The x route ended the first five in NonConvergence and held the others
#: no better than 1.7e-11, 7.7e-12, 2.9e-12, 59% and 1.6e-5.
FINITE_SUPPORT_CELLS = {
    "wfgcre/power/x/30": (
        lambda: wfgcre(make_power(1.0, 4.0), BUILTIN_WEIGHTS["x"](), 30.0),
        lambda: _mp_power_wfgcre(4.0, "x", 30.0)),
    "tau/U3/one/10": (
        lambda: tau(U3, BUILTIN_WEIGHTS["one"](), 10.0, 3.0), lambda: 1.0),
    "dynamic/U3/one/30": (
        lambda: dynamic_wfgcpe(U3, BUILTIN_WEIGHTS["one"](), 30.0, 3.5),
        lambda: 0.5 * 2.0 ** -31),
    "affine/U3/one/30": (
        lambda: affine_wfgcpe(U3, BUILTIN_WEIGHTS["one"](), 30.0, 2.0, 1.0),
        lambda: 2.0 ** -30),
    "wfgcpe/U3/sqrtx/30": (
        lambda: wfgcpe(U3, BUILTIN_WEIGHTS["sqrtx"](), 30.0,
                       method="quadrature").value,
        lambda: _mp_uniform(3.0, "sqrtx", 30.0)),
    "dynamic/U3/one/20": (
        lambda: dynamic_wfgcpe(U3, BUILTIN_WEIGHTS["one"](), 20.0, 3.5),
        lambda: 0.5 * 2.0 ** -21),
    "affine/U3/one/20": (
        lambda: affine_wfgcpe(U3, BUILTIN_WEIGHTS["one"](), 20.0, 2.0, 1.0),
        lambda: 2.0 ** -20),
    "tau/U400/one/1": (
        lambda: tau(U400, BUILTIN_WEIGHTS["one"](), 1.0, 400.0), lambda: 1.0),
    "tau/U400/expneg/30": (
        lambda: tau(U400, BUILTIN_WEIGHTS["expneg"](), 30.0, 0.0),
        lambda: _mp_uniform_expneg(400, 1, 30)),
    "wfgcpe/U400/expneg/30": (
        lambda: wfgcpe(U400, BUILTIN_WEIGHTS["expneg"](), 30.0,
                       method="quadrature").value,
        lambda: _mp_uniform_expneg(400, 2, 30)),
    "mean_inactivity/U400/400.5": (
        lambda: mean_inactivity_time(U400, 400.5), lambda: 0.25),
}


# ---------------------------------------------------------------------------
# The past lifetime X | X <= t where 1 - K(t) is far below 1e-13
# ---------------------------------------------------------------------------

def _mp_exponential_dynamic(name, gamma, t):
    """Dynamic form of K = 1 - e^{-x} at t, ln(K(x)/K(t)) tail-exact; the
    kernel ends like (t - x)^gamma at t."""
    psi = MP_WEIGHTS[name]
    with mp.workdps(40):
        lkt = _mp_log1m_exp(mp.mpf(t))

        def f(x):
            nl = lkt - _mp_log1m_exp(x)
            return psi(x) * mp.exp(-nl) * nl ** gamma if nl > 0 else 0

        return float(mp.quad(f, [0, 1, t / 2, t - 1, t]) / mp.gamma(gamma + 1))


def _mp_frechet_past(name, gamma, t):
    """Dynamic form of Frechet(1, 4) at t (mean inactivity time for
    ``name`` None): -ln(K(x)/K(t)) = x^-4 - t^-4."""
    psi = MP_WEIGHTS.get(name)

    def f(x):
        d = x ** -4 - t ** -4
        return (mp.exp(-d) if psi is None
                else psi(x) * mp.exp(-d) * d ** gamma / mp.gamma(gamma + 1))

    with mp.workdps(30):
        t = mp.mpf(t)
        cuts = [mp.mpf(10) ** (k / 2) for k in range(-1, int(2 * mp.log10(t)))]
        return float(mp.quad(f, [0, *cuts, t / 2, t]))


#: Nodes in u = K(x)/K(t) miss the step of e^l where 1 - u meets
#: (1 - K(t))/K(t): they ended the exponential cells in NonConvergence or
#: up to 22% off. The x route held those, but gave 5.4e-20 and 6.2e-18 in
#: place of the Frechet cells at gamma 1.5, and was 1.3e-5 and 1.2e-5 off
#: on the other two.
DEEP_PAST_CELLS = {
    **{f"dynamic/exponential/{w}/{g}/35": (
        lambda w=w, g=g: dynamic_wfgcpe(
            FAMILIES["exponential"][0], BUILTIN_WEIGHTS[w](), g, 35.0),
        lambda w=w, g=g: _mp_exponential_dynamic(w, g, 35))
       for w in ("one", "x") for g in (0.05, 0.25)},
    **{f"dynamic/frechet/{w}/{g}/1e5": (
        lambda w=w, g=g: dynamic_wfgcpe(FRECHET, BUILTIN_WEIGHTS[w](), g,
                                        1e5),
        lambda w=w, g=g: _mp_frechet_past(w, g, 1e5))
       for w, g in (("one", 1.5), ("x", 1.5), ("x", 0.25))},
    **{f"mean_inactivity/exponential/{t:g}": (
        lambda t=t: mean_inactivity_time(FAMILIES["exponential"][0], t),
        lambda t=t: t / -math.expm1(-t) - 1.0)
       for t in (35.0, 100.0)},
    "mean_inactivity/frechet/1e5": (
        lambda: mean_inactivity_time(FRECHET, 1e5),
        lambda: _mp_frechet_past(None, None, 1e5)),
}


KERNEL_CELLS = {**FINITE_SUPPORT_CELLS, **DEEP_PAST_CELLS}


@pytest.mark.parametrize("cell", sorted(KERNEL_CELLS))
def test_kernel_cells_hold_1e12(cell):
    got, expected = (f() for f in KERNEL_CELLS[cell])
    assert abs(got - expected) <= 1e-12 * expected
