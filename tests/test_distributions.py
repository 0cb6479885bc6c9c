"""Tests for distribution families and the proportional-reversed-hazard
decomposition."""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from wfgcpe import distributions
from wfgcpe.distributions import (DistributionModel, PrhParameter,
                                  make_custom, make_exponential,
                                  make_frechet, make_power,
                                  make_uniform_shifted, make_weibull_square,
                                  mean_inactivity_time, prh_expectation_terms,
                                  prh_n_step, prh_recurrence_step,
                                  prh_transform, prh_wfgcpe)
from wfgcpe.errors import ConstraintError, DomainError, ValidationError
from wfgcpe.measures import wfgcpe
from wfgcpe.weights import (piecewise_linear_weight, weight_one, weight_x,
                            weight_x_squared)

GAMMAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.75)


def test_power_closed_form_values():
    m = make_power(1.0, 2.0)
    # b^2 / (c (1 + 2/c)^(g+1)) at g=0.5: 1 / (2 * 2^1.5)
    assert abs(wfgcpe(m, weight_x(), 0.5).value
               - 1.0 / (2.0 * 2.0 ** 1.5)) < 1e-12
    m = make_power(2.0, 3.0)
    assert abs(wfgcpe(m, weight_x(), 1.0).value - 0.48) < 1e-12


def test_power_parameter_validation():
    for b, c in [(0.0, 1.0), (1.0, 0.0), (-1.0, 2.0)]:
        with pytest.raises(DomainError):
            make_power(b, c)


@pytest.mark.parametrize("family,weights", [
    ("power12", ("x", "x2", "one")),
    ("power23", ("x", "x2", "one")),
    ("uniform1", ("x", "x2", "one")),
    ("frechet14", ("x", "x2", "one")),
])
@pytest.mark.parametrize("g", GAMMAS)
def test_closed_form_vs_quadrature(family, weights, g):
    models = {
        "power12": make_power(1.0, 2.0),
        "power23": make_power(2.0, 3.0),
        "uniform1": make_uniform_shifted(1.0),
        "frechet14": make_frechet(1.0, 4.0),
    }
    by_tag = {"one": weight_one(), "x": weight_x(), "x2": weight_x_squared()}
    m = models[family]
    for tag in weights:
        if family == "frechet14":
            threshold = {"one": 0.25, "x": 0.5, "x2": 0.75}[tag]
            if g <= threshold + 0.05:
                continue
        closed = wfgcpe(m, by_tag[tag], g, method="closed_form").value
        quad = wfgcpe(m, by_tag[tag], g, method="quadrature").value
        assert abs(closed - quad) / abs(closed) <= 1e-7, (family, tag, g)


def test_frechet_closed_values():
    m = make_frechet(1.0, 4.0)
    assert abs(wfgcpe(m, weight_x(), 1.0).value
               - math.sqrt(math.pi) / 4.0) < 1e-12
    # frozen high-precision oracle: 2^0.4 Gamma(1.1) / (5 Gamma(2.5))
    m = make_frechet(2.0, 5.0)
    assert abs(wfgcpe(m, weight_x(), 1.5).value
               - 0.188862819172851423) < 1e-12


def test_frechet_constraint_errors():
    m = make_frechet(1.0, 4.0)
    with pytest.raises(ConstraintError):
        wfgcpe(m, weight_x_squared(), 0.5)  # needs gamma > 3/4
    with pytest.raises(ConstraintError):
        wfgcpe(m, weight_x(), 0.5)  # needs gamma > 2/4, strict


def test_frechet_per_weight_threshold():
    # weight x only needs gamma > 2/c, even where 3/c would forbid it
    m = make_frechet(1.0, 4.0)
    closed = wfgcpe(m, weight_x(), 0.6, method="closed_form").value
    quad = wfgcpe(m, weight_x(), 0.6, method="quadrature").value
    assert abs(closed - quad) / closed < 1e-7


def test_uniform_shifted_support_and_cdf():
    m = make_uniform_shifted(3.0)
    assert m.support == (3.0, 4.0)
    assert m.cdf(3.5) == 0.5
    assert m.cdf(2.0) == 0.0
    assert m.cdf(5.0) == 1.0
    with pytest.raises(DomainError):
        make_uniform_shifted(-0.1)


def test_expectation_and_mean():
    m = make_uniform_shifted(0.0)
    assert abs(m.mean() - 0.5) < 1e-9
    assert abs(m.expectation(lambda x: x * x) - 1.0 / 3.0) < 1e-9


def test_reversed_hazard():
    m = make_uniform_shifted(0.0)
    assert abs(m.reversed_hazard(0.5) - 2.0) < 1e-12
    with pytest.raises(DomainError):
        m.reversed_hazard(0.0)


def test_make_custom_validates():
    # quantile inconsistent with the CDF
    with pytest.raises(ValidationError):
        make_custom(cdf=lambda x: min(max(x, 0.0), 1.0),
                    pdf=lambda x: 1.0 if 0 < x < 1 else 0.0,
                    quantile=lambda u: u ** 2,
                    support=(0.0, 1.0))
    # density does not integrate to 1
    with pytest.raises(ValidationError):
        make_custom(cdf=lambda x: min(max(x, 0.0), 1.0),
                    pdf=lambda x: 0.5 if 0 < x < 1 else 0.0,
                    quantile=lambda u: u,
                    support=(0.0, 1.0))
    good = make_custom(cdf=lambda x: min(max(x, 0.0), 1.0),
                       pdf=lambda x: 1.0 if 0 < x < 1 else 0.0,
                       quantile=lambda u: u,
                       support=(0.0, 1.0))
    assert good.family == "custom"


def test_make_custom_accepts_a_narrow_uniform():
    # pdf/K * K and pdf differ only by rounding, which once refused this
    width = 2e-9
    cdf = lambda x: min(max(x / width, 0.0), 1.0)  # noqa: E731
    pdf = lambda x: 1.0 / width if 0 < x < width else 0.0  # noqa: E731
    model = make_custom(cdf, pdf, lambda u: u * width, (0.0, width))
    assert model.support == (0.0, width)
    with pytest.raises(ValidationError, match="quantile/CDF mismatch"):
        make_custom(cdf, pdf, lambda u: u * u * width, (0.0, width))


# ---------------------------------------------------------------------------
# Proportional reversed hazard
# ---------------------------------------------------------------------------

def test_prh_transform_identity():
    base = make_power(1.0, 2.0)
    same = prh_transform(base, 1.0)
    for x in np.linspace(0.05, 0.95, 13):
        assert abs(same.cdf(x) - base.cdf(x)) < 1e-12


def test_prh_transform_of_uniform_is_power():
    base = make_uniform_shifted(0.0)
    t = prh_transform(base, PrhParameter(3.0))
    p = make_power(1.0, 3.0)
    for x in np.linspace(0.05, 0.95, 13):
        assert abs(t.cdf(x) - p.cdf(x)) < 1e-12
        assert abs(t.pdf(x) - p.pdf(x)) < 1e-12


def test_prh_reversed_hazard_scaling():
    base = make_uniform_shifted(0.0)
    t = prh_transform(base, 2.0)
    assert abs(t.reversed_hazard(0.5) - 2.0 * base.reversed_hazard(0.5)) < 1e-12
    assert abs(t.reversed_hazard(0.5) - 4.0) < 1e-12


def test_prh_expectation_terms_uniform_base():
    base = make_uniform_shifted(0.0)
    for c in (1.0, 2.0, 3.5):
        for g in (0.5, 1.0, 1.75):
            terms = prh_expectation_terms(base, c, weight_x(), g)
            expected = (c / (2.0 + c)) ** g
            assert abs(terms.e_term - expected) < 1e-9
            assert abs(terms.e_tilde_term - expected) < 1e-9
    t = prh_expectation_terms(base, 2.0, weight_x(), 1.5)
    assert abs(t.e_term - 0.5 ** 1.5) < 1e-9


def test_prh_expectation_terms_constant_weight():
    base = make_uniform_shifted(0.0)
    t = prh_expectation_terms(base, 2.0, weight_one(), 1.2)
    assert t.e_tilde_term == 0.0


def test_prh_wfgcpe_closed_case():
    base = make_uniform_shifted(0.0)
    for c in (1.0, 2.0, 4.0):
        for g in (0.5, 1.0, 2.0):
            val = prh_wfgcpe(base, c, weight_x(), g)
            assert abs(val - c ** g / (2.0 + c) ** (g + 1.0)) < 1e-9
    assert abs(prh_wfgcpe(base, 1.0, weight_x(), 1.0) - 1.0 / 9.0) < 1e-9


def test_prh_identity_seeded_draws():
    rng = np.random.default_rng(7)
    for _ in range(6):
        base = (make_uniform_shifted(0.0) if rng.random() < 0.5
                else make_power(1.0, float(rng.uniform(0.5, 4.0))))
        eta = float(rng.uniform(0.2, 5.0))
        g = float(rng.uniform(0.3, 2.5))
        direct = wfgcpe(prh_transform(base, eta), weight_x(), g).value
        decomposed = prh_wfgcpe(base, eta, weight_x(), g)
        assert abs(direct - decomposed) <= 1e-7


def test_prh_recurrence_step():
    base = make_uniform_shifted(0.0)
    # power base via eta=c=2, psi=x, gamma=0.5 -> closed form at gamma+1
    prior = prh_wfgcpe(base, 2.0, weight_x(), 0.5)
    stepped = prh_recurrence_step(base, 2.0, weight_x(), 0.5, prior)
    assert abs(stepped - 2.0 ** 1.5 / 4.0 ** 2.5) < 1e-9
    # eta=1, psi=1: Example closed form 1/2^(g+1) at g=2
    prior = prh_wfgcpe(base, 1.0, weight_one(), 1.0)
    stepped = prh_recurrence_step(base, 1.0, weight_one(), 1.0, prior)
    assert abs(stepped - 0.125) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_prh_n_step_matches_chained(n):
    base = make_uniform_shifted(0.0)
    eta, g = 2.0, 0.25
    prior = prh_wfgcpe(base, eta, weight_x(), g)
    chained = prior
    for k in range(n):
        chained = prh_recurrence_step(base, eta, weight_x(), g + k, chained)
    direct = prh_n_step(base, eta, weight_x(), g, n, prior)
    assert abs(direct - chained) <= 1e-6
    # and both agree with the quadrature value at order g + n
    truth = wfgcpe(prh_transform(base, eta), weight_x(), g + n).value
    assert abs(direct - truth) <= 1e-6


def test_prh_identities_return_plain_floats():
    base = make_power(1.0, 2.0)
    prior = np.float64(prh_wfgcpe(base, 2.0, weight_x(), 0.5))
    terms = prh_expectation_terms(base, 2.0, weight_x(), 0.5)
    for value in (prh_wfgcpe(base, 2.0, weight_x(), 0.5),
                  prh_recurrence_step(base, 2.0, weight_x(), 0.5, prior),
                  prh_n_step(base, 2.0, weight_x(), 0.5, 2, prior),
                  prh_n_step(base, 2.0, weight_x(), 0.5, np.int64(3), prior),
                  terms.e_term, terms.e_tilde_term):
        assert type(value) is float


def test_prh_recurrence_is_the_one_step_of_the_n_step(monkeypatch):
    # E(g + 1) cancels at n = 1: 4 integrals there, 6 above
    base, eta, g = make_power(1.0, 2.0), 1.5, 0.75
    prior = wfgcpe(prh_transform(base, eta), weight_x(), g).value
    calls, real = [], distributions.integrate

    def counted(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(distributions, "integrate", counted)
    stepped = prh_recurrence_step(base, eta, weight_x(), g, prior)
    assert len(calls) == 4
    assert stepped == prh_n_step(base, eta, weight_x(), g, 1, prior)
    for n in (2, 3):
        del calls[:]
        prh_n_step(base, eta, weight_x(), g, n, prior)
        assert len(calls) == 6


def test_prh_terms_take_no_quadpack_where_the_quantile_hits_the_end(
        monkeypatch):
    # u -> 1 rounds the quantile onto b, where the density is 0: that node
    # counts 0 instead of raising ZeroDivisionError into QUADPACK
    def no_quadpack(*args, **kwargs):
        raise AssertionError("QUADPACK ran")

    monkeypatch.setattr("scipy.integrate.quad", no_quadpack)
    base, eta, g, n = make_power(1.996, 3.552), 2.701, 1.0, 2
    c2 = 3.552 * eta
    truth = make_power(1.996, c2).closed_wfgcpe
    got = prh_n_step(base, eta, weight_x(), g, n, truth(1.0, g))
    assert abs(got - truth(1.0, g + n)) <= 1e-9 * truth(1.0, g + n)


def test_piecewise_weight_slope_in_the_singular_et_term():
    # Et's integrand is singular at the support end for gamma < 1, so a
    # central difference near the knot at 0.3 showed (7e-4 off); mpmath
    # in x-space: eta x^{2 eta + 1} psi'(x) (-2 eta ln x)^{g-1} / Gamma(g)
    eta, g = 0.7, 0.5
    w = piecewise_linear_weight([0.0, 0.3, 1.0], [0.0, 1.0, 0.05])
    got = prh_expectation_terms(make_power(1.0, 2.0), eta, w, g)

    def piece(lo, hi, slope):
        return mp.quad(lambda x: x ** (2 * eta + 1) * slope
                       * (-2 * eta * mp.log(x)) ** (g - 1), [lo, hi])

    with mp.workdps(40):
        expected = float(eta * (piece(0, mp.mpf("0.3"), 1 / mp.mpf("0.3"))
                                + piece(mp.mpf("0.3"), 1,
                                        -mp.mpf("0.95") / mp.mpf("0.7")))
                         / mp.gamma(g))
    assert abs(expected + 0.429082362920) < 1e-12
    assert abs(got.e_tilde_term - expected) <= 1e-9


def test_prh_n_step_validation():
    base = make_uniform_shifted(0.0)
    with pytest.raises(DomainError):
        prh_n_step(base, 2.0, weight_x(), 0.5, 0, 0.1)


def test_mean_inactivity_time():
    u = make_uniform_shifted(0.0)
    assert abs(mean_inactivity_time(u, 1.0) - 0.5) < 1e-9
    p = make_power(1.0, 2.0)
    assert abs(mean_inactivity_time(p, 1.0) - 1.0 / 3.0) < 1e-9
    assert mean_inactivity_time(u, 1e-4) < 1e-3
    with pytest.raises(DomainError):
        mean_inactivity_time(u, 2.0)
    with pytest.raises(DomainError):
        mean_inactivity_time(u, 0.0)


def test_weibull_and_exponential_models():
    w = make_weibull_square(2.0)
    x = 0.7
    assert abs(w.cdf(x) - (1.0 - math.exp(-2.0 * x * x))) < 1e-12
    assert abs(w.cdf(w.quantile(0.3)) - 0.3) < 1e-12
    e = make_exponential(1.5)
    assert abs(e.cdf(e.quantile(0.8)) - 0.8) < 1e-12
    with pytest.raises(DomainError):
        make_weibull_square(0.0)


def _square_model():
    # K = x^2 on (0, 1), with no declared logs
    return make_custom(lambda x: min(max(x, 0.0), 1.0) ** 2,
                       lambda x: 2.0 * x if 0.0 < x < 1.0 else 0.0,
                       lambda u: math.sqrt(u), (0.0, 1.0))


FALLBACK_XS = (-1.0, 0.0, 1e-200, 1e-5, 0.3, 0.5, 0.999, 1.0, 2.0)


def _neg_log(k):
    return math.inf if k == 0.0 else -math.log(k)


def test_fallback_logs_follow_the_cdf():
    m = _square_model()
    for x in FALLBACK_XS:
        k = m.cdf(x)
        assert m.log_cdf(x) == -_neg_log(k), x
        assert m.log_survival(x) == -_neg_log(1.0 - k), x


def test_declared_log_is_kept_as_given():
    def log_cdf(x):
        return 2.0 * math.log(x) if 0.0 < x < 1.0 else -math.inf

    base = _square_model()
    m = DistributionModel(base.cdf, base.pdf, base.quantile, base.support,
                          log_cdf=log_cdf)
    assert m.log_cdf is log_cdf
    assert m.log_survival(0.5) == math.log(0.75)  # derived from the cdf
    frechet = make_frechet(1.0, 4.0)
    moved = dataclasses.replace(frechet, cdf=lambda x: 0.5)
    assert moved.log_cdf is frechet.log_cdf
    assert moved.log_survival is frechet.log_survival


def test_replace_cdf_derives_the_logs_again():
    m = _square_model()
    cube = dataclasses.replace(m, cdf=lambda x: min(max(x, 0.0), 1.0) ** 3)
    for x in FALLBACK_XS:
        k = cube.cdf(x)
        assert cube.log_cdf(x) == -_neg_log(k), x
        assert cube.log_survival(x) == -_neg_log(1.0 - k), x
    # no stale log closes over the old cdf
    assert cube.log_cdf(0.5) == math.log(0.125) != m.log_cdf(0.5)
