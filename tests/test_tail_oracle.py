"""Quadrature in the right tail: an in-test mpmath oracle for the Weibull
and exponential families and for the Frechet forms, typed refusals of
divergent Frechet integrals before any quadrature (the PRH identities
and expectation terms included), the PRH decomposition against the transformed model, and the
closed forms by weight exponent against mpmath."""

import math

import mpmath as mp
import pytest

from wfgcpe import cli, distributions, measures
from wfgcpe.cli import EXIT_NONCONVERGENCE, EXIT_USAGE, main
from wfgcpe.distributions import (make_exponential, make_frechet,
                                  make_power, make_uniform_shifted,
                                  make_weibull_square,
                                  prh_expectation_terms, prh_n_step,
                                  prh_recurrence_step, prh_transform,
                                  prh_wfgcpe)
from wfgcpe.errors import ConstraintError, NonConvergence
from wfgcpe.measures import affine_wfgcpe, tau, wfgcpe, wfgcre
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
#: The one finite cell where the quantile-space PRH integrals give up
#: although the transformed model's entropy is finite (2.5931979096).
PRH_NONCONVERGENT = (1.7, "sqrtx", 0.5)


def _prh_cell(identity, eta, name, gamma):
    marks = []
    if (eta, name, gamma) == PRH_NONCONVERGENT:
        marks = pytest.mark.xfail(raises=NonConvergence, strict=True,
                                  reason="E(gamma) integrand singular at u=1")
    return pytest.param(identity, eta, name, gamma, marks=marks)


PRH_GRID = [_prh_cell(i, eta, w, g) for i in PRH_IDENTITIES
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


@pytest.mark.parametrize("name,gamma", [
    cell if cell != ("sqrtx", 1.5) else pytest.param(
        *cell, marks=pytest.mark.xfail(
            raises=NonConvergence, strict=True,
            reason="quantile-space Et; finite (2.20421822318)"))
    for cell in ET_GRID])
def test_prh_expectation_terms_refuse_a_divergent_et(monkeypatch, name,
                                                     gamma):
    """11 of the 12 cells diverge in Et and are refused, naming Et and its
    order gamma - 1, without a quadrature call; the finite one,
    sqrt(x) at gamma = 1.5, still ends in NonConvergence."""
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
