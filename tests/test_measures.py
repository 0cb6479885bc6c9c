"""Tests for the information-measure functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from wfgcpe.distributions import (make_exponential, make_frechet, make_power,
                                  make_uniform_shifted, make_weibull_square)
from wfgcpe.errors import (DegenerateNormalizer, DomainError,
                           MonotonicityError, UnboundedSupport)
from wfgcpe.measures import (affine_wfgcpe, discrete_wfe, dynamic_wfgcpe,
                             normalized_wfgcpe, rl_fractional_integral, tau,
                             weighted_cpe, wfgcpe, wfgcpe_gamma_zero_limit,
                             wfgcpe_via_fractional_bridge, wfgcre)
from wfgcpe.weights import (weight_exp_neg, weight_one, weight_sqrt_x,
                            weight_x, weight_x_squared)


def uniform_closed(a, tag, g):
    if tag == "one":
        return 0.5 ** (g + 1.0)
    if tag == "x":
        return 3.0 ** -(g + 1.0) + a * 2.0 ** -(g + 1.0)
    return (4.0 ** -(g + 1.0) + 2.0 * a * 3.0 ** -(g + 1.0)
            + a * a * 2.0 ** -(g + 1.0))


@pytest.mark.parametrize("a", [0.0, 1.0, 3.0])
@pytest.mark.parametrize("g", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("tag", ["one", "x", "x2"])
def test_uniform_shifted_exact(a, g, tag):
    by_tag = {"one": weight_one(), "x": weight_x(), "x2": weight_x_squared()}
    m = make_uniform_shifted(a)
    got = wfgcpe(m, by_tag[tag], g, method="quadrature").value
    assert abs(got - uniform_closed(a, tag, g)) <= 1e-9


def test_wfgcpe_nonnegative_and_method_tags():
    m = make_power(1.0, 2.0)
    r = wfgcpe(m, weight_x(), 0.5)
    assert r.method == "closed_form" and r.value >= 0.0
    r = wfgcpe(m, weight_x(), 0.5, method="quadrature")
    assert r.method == "quadrature" and r.quadrature.subdivisions >= 1
    assert type(r.value) is float
    # the Frechet closed form goes through scipy's gamma
    assert type(wfgcpe(make_frechet(1.0, 4.0), weight_x(), 1.5).value) is float
    for gamma in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            wfgcpe(m, weight_x(), gamma)
    with pytest.raises(DomainError):
        wfgcpe(m, weight_x(), 0.5, method="telepathy")


def test_degenerate_limit():
    # power c -> infinity concentrates at b; the entropy vanishes
    assert wfgcpe(make_power(1.0, 200.0), weight_x(), 1.0).value < 1e-2
    assert wfgcpe(make_power(1.0, 2000.0), weight_x(), 1.0).value < 1e-3


def test_gamma_zero_limit():
    u = make_uniform_shifted(0.0)
    assert abs(wfgcpe_gamma_zero_limit(u, weight_x()) - 1.0 / 3.0) < 1e-9
    assert abs(wfgcpe_gamma_zero_limit(u, weight_one()) - 0.5) < 1e-9
    with pytest.raises(UnboundedSupport):
        wfgcpe_gamma_zero_limit(make_frechet(1.0, 4.0), weight_x())
    # continuity: small gamma approaches the limit
    p = make_power(1.0, 2.0)
    limit = wfgcpe_gamma_zero_limit(p, weight_x())
    small = wfgcpe(p, weight_x(), 1e-4, method="quadrature").value
    assert abs(small - limit) <= 1e-3


def test_weighted_cpe():
    for b, c in [(1.0, 2.0), (2.0, 3.0), (1.5, 0.7)]:
        m = make_power(b, c)
        expected = b * b * c / (c + 2.0) ** 2
        assert abs(weighted_cpe(m, weight_x()) - expected) < 1e-9
        assert abs(weighted_cpe(m, weight_x())
                   - wfgcpe(m, weight_x(), 1.0).value) < 1e-12
    u = make_uniform_shifted(0.0)
    assert abs(weighted_cpe(u, weight_one()) - 0.25) < 1e-9


def test_normalized_closed_form_power():
    # (c+2)^(g-1) / (Gamma(g+1) b^(2(g-1)))
    for b, c in [(1.0, 2.0), (2.0, 3.0)]:
        for g in (0.25, 0.5, 1.5, 2.75):
            m = make_power(b, c)
            expected = ((c + 2.0) ** (g - 1.0)
                        / (gamma_fn(g + 1.0) * b ** (2.0 * (g - 1.0))))
            got = normalized_wfgcpe(m, weight_x(), g)
            assert abs(got - expected) / expected <= 1e-6


def test_normalized_limits():
    m = make_power(1.0, 2.0)
    assert abs(normalized_wfgcpe(m, weight_x(), 1.0) - 1.0) <= 1e-9
    # gamma -> 0+ limit is int psi K dx = int x * x^2 dx = 1/4
    assert abs(normalized_wfgcpe(m, weight_x(), 1e-4) - 0.25) <= 1e-3


@pytest.mark.parametrize("a, g", [(100.0, 7.5), (397.5, 2.5)])
def test_normalized_past_an_underflowing_normalizer(a, g):
    # with psi = e^{-x} on (a, a + 1) the entropy and the normalizer both
    # carry e^{-a}, so the normalized value is e^{a (g - 1)} times that at
    # a = 0; the normalizer's g-th power underflows to 0 here
    base = normalized_wfgcpe(make_uniform_shifted(0.0), weight_exp_neg(), g)
    got = normalized_wfgcpe(make_uniform_shifted(a), weight_exp_neg(), g)
    assert math.isfinite(got)
    assert abs(math.log(got) - (a * (g - 1.0) + math.log(base))) <= 1e-12


def test_normalized_overflow_is_refused():
    # e^{2581.8}: past the largest float
    with pytest.raises(DegenerateNormalizer, match="overflows"):
        normalized_wfgcpe(make_uniform_shifted(397.5), weight_exp_neg(), 7.5)


def test_dynamic_wfgcpe():
    u = make_uniform_shifted(0.0)
    # conditioning on X <= 0.5 rescales uniform(0, 0.5): value 0.5 * 1/4
    assert abs(dynamic_wfgcpe(u, weight_one(), 1.0, 0.5) - 0.125) < 1e-9
    full = wfgcpe(u, weight_one(), 1.0).value
    assert abs(dynamic_wfgcpe(u, weight_one(), 1.0, 1.0 - 1e-9) - full) < 1e-6
    assert dynamic_wfgcpe(u, weight_one(), 1.0, 1e-6) < 1e-5
    with pytest.raises(DomainError):
        dynamic_wfgcpe(u, weight_one(), 1.0, 1.5)


def test_tau():
    u = make_uniform_shifted(0.0)
    assert tau(u, weight_one(), 1.0, 1.0) == 0.0
    assert abs(tau(u, weight_one(), 1.0, 0.0) - 1.0) < 1e-9
    # expectation of tau recovers the entropy
    p = make_power(1.0, 2.0)
    e_tau = p.expectation(lambda x: tau(p, weight_x(), 0.5, x))
    assert abs(e_tau - wfgcpe(p, weight_x(), 0.5).value) <= 1e-7


def test_wfgcre_symmetry():
    u = make_uniform_shifted(0.0)
    for g in (0.5, 1.0, 2.0):
        # symmetric on (0,1): residual equals past for psi = 1
        assert abs(wfgcre(u, weight_one(), g) - 0.5 ** (g + 1.0)) < 1e-9
        # weighted symmetry: CPE^x = s*CRE - CRE^x with s = 1
        lhs = wfgcpe(u, weight_x(), g, method="quadrature").value
        rhs = wfgcre(u, weight_one(), g) - wfgcre(u, weight_x(), g)
        assert abs(lhs - rhs) <= 1e-7


@pytest.mark.parametrize("weight, g, expected", [
    (weight_sqrt_x, 0.072, 737.04645803556321021),
    (weight_one, 0.05, 57.838220640882741814),
    (weight_x, 0.1, 9854.9040091082113626)])
def test_wfgcre_of_a_steep_power_model(weight, g, expected):
    # (x/b)^c is below 1.1e-16 over most of (0, b) at c = 97.7, where a
    # log_survival derived as ln(1 - K) rounds to 0 and the rule does not
    # settle; 40-digit mpmath in y = -ln((x/b)^c)
    got = wfgcre(make_power(351.0, 97.7), weight(), g)
    assert abs(got - expected) <= 1e-10 * expected


def test_affine_identity_and_shift():
    p = make_power(1.0, 2.0)
    assert abs(affine_wfgcpe(p, weight_x(), 0.5, 1.0, 0.0)
               - wfgcpe(p, weight_x(), 0.5).value) < 1e-9
    # shifting uniform(0,1) by a reproduces the shifted-family closed form
    u = make_uniform_shifted(0.0)
    for a0 in (1.0, 3.0):
        got = affine_wfgcpe(u, weight_x(), 0.75, 1.0, a0)
        assert abs(got - uniform_closed(a0, "x", 0.75)) < 1e-9
    with pytest.raises(DomainError):
        affine_wfgcpe(u, weight_x(), 0.5, -1.0, 0.0)


def test_affine_decomposition_law():
    # aX + b with psi = x: a^2 CPE^x + a b CPE^1
    rng = np.random.default_rng(99)
    p = make_power(1.0, 2.0)
    cpe_x = wfgcpe(p, weight_x(), 0.5).value
    cpe_1 = wfgcpe(p, weight_one(), 0.5).value
    for _ in range(20):
        a = float(rng.uniform(0.2, 3.0))
        b = float(rng.uniform(0.0, 2.0))
        direct = affine_wfgcpe(p, weight_x(), 0.5, a, b)
        decomposed = a * a * cpe_x + a * b * cpe_1
        assert abs(direct - decomposed) <= 1e-7


AFFINE_FAMILIES = (make_power(1.0, 2.0), make_uniform_shifted(0.5),
                   make_frechet(1.0, 4.0), make_weibull_square(1.0),
                   make_exponential(1.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(AFFINE_FAMILIES), st.floats(0.6, 3.0),
       st.floats(0.1, 5.0), st.floats(0.0, 3.0))
def test_affine_decomposition_law_on_every_family(model, g, a, b):
    # Frechet's tail index 4 keeps psi = x finite above gamma = 1/2
    cpe_x = wfgcpe(model, weight_x(), g).value
    cpe_1 = wfgcpe(model, weight_one(), g).value
    want = a * a * cpe_x + a * b * cpe_1
    got = affine_wfgcpe(model, weight_x(), g, a, b)
    assert abs(got - want) <= 1e-12 * want


def test_rl_fractional_integral():
    assert abs(rl_fractional_integral(lambda t: 1.0, lambda t: t,
                                      1.0, 0.0, 1.0) - 1.0) < 1e-9
    for g in (0.5, 1.5):
        t_end = 0.8
        got = rl_fractional_integral(lambda t: 1.0, lambda t: t,
                                     g + 1.0, 0.0, t_end)
        expected = t_end ** (g + 1.0) / gamma_fn(g + 2.0)
        assert abs(got - expected) < 1e-8
    with pytest.raises(MonotonicityError):
        rl_fractional_integral(lambda t: 1.0, lambda t: -t, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        rl_fractional_integral(lambda t: 1.0, lambda t: t, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("g", [0.5, 1.5])
def test_fractional_bridge(g):
    p = make_power(1.0, 2.0)
    bridged = wfgcpe_via_fractional_bridge(p, weight_x(), g)
    direct = wfgcpe(p, weight_x(), g).value
    assert abs(bridged - direct) <= 1e-5
    with pytest.raises(UnboundedSupport):
        wfgcpe_via_fractional_bridge(make_frechet(1.0, 4.0), weight_x(), 1.5)


def test_discrete_wfe():
    assert abs(discrete_wfe([0.5, 0.5]) - math.log(2.0)) < 1e-12
    assert discrete_wfe([1.0, 0.0, 0.0]) == 0.0
    # frozen scalar oracle: 2*(1/4)*sqrt(ln 4) + (3/4)*sqrt(ln(4/3))
    got = discrete_wfe([0.25, 0.75], weights=[2.0, 1.0], alpha=0.5)
    assert abs(got - 0.990975027234726080) < 1e-12


def test_discrete_wfe_validation():
    with pytest.raises(DomainError):
        discrete_wfe([0.5, 0.4])
    with pytest.raises(DomainError):
        discrete_wfe([-0.5, 1.5])
    with pytest.raises(DomainError):
        discrete_wfe([0.5, 0.5], alpha=1.5)
    with pytest.raises(DomainError):
        discrete_wfe([0.5, 0.5], weights=[1.0])
    with pytest.raises(DomainError):
        discrete_wfe([0.5, 0.5], weights=[1.0, -1.0])
