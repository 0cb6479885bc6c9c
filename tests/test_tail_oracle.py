"""Quadrature in the right tail: an in-test mpmath oracle for the Weibull
and exponential families and for the Frechet residual form, and typed
refusals of divergent Frechet integrals."""

import mpmath as mp
import pytest

from wfgcpe.cli import EXIT_NONCONVERGENCE, main
from wfgcpe.distributions import (make_exponential, make_frechet,
                                  make_weibull_square)
from wfgcpe.errors import NonConvergence
from wfgcpe.measures import affine_wfgcpe, tau, wfgcpe, wfgcre
from wfgcpe.weights import BUILTIN_WEIGHTS

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
#: these cells QUADPACK's estimate passed and the value came out negative.
DIVERGENT_FRECHET = [("x", 0.25), ("x2", 0.25), ("x2", 0.5), ("sqrtx", 0.25)]


@pytest.mark.parametrize("weight,gamma", DIVERGENT_FRECHET)
def test_divergent_frechet_is_refused(weight, gamma):
    model = make_frechet(1.0, 4.0)
    psi = BUILTIN_WEIGHTS[weight]()
    with pytest.raises(NonConvergence):
        wfgcpe(model, psi, gamma, method="quadrature")
    with pytest.raises(NonConvergence):
        affine_wfgcpe(model, psi, gamma, 1.5, 0.5)


def test_divergent_tau_is_refused():
    model = make_frechet(1.0, 4.0)
    with pytest.raises(NonConvergence):
        tau(model, BUILTIN_WEIGHTS["x2"](), 0.5, model.quantile(0.3))


def test_divergent_compute_exits_4(capsys):
    # sqrtx has no Frechet closed form, so compute takes quadrature
    code = main(["compute", "--dist", "frechet", "--b", "1", "--c", "4",
                 "--weight", "sqrtx", "--gamma", "0.25"])
    captured = capsys.readouterr()
    assert code == EXIT_NONCONVERGENCE
    assert captured.out == "" and "error:" in captured.err
