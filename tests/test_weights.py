"""Tests for weight functions, antiderivatives, and derivatives."""

import math

import numpy as np
import pytest

from wfgcpe.errors import DomainError, WeightAntiderivativeUnavailable
from wfgcpe.weights import (custom_weight, piecewise_linear_weight,
                            power_weight, weight_exp_neg, weight_one,
                            weight_sqrt_x, weight_x, weight_x_squared)

ALL_BUILTINS = [weight_one(), weight_x(), weight_x_squared(),
                weight_sqrt_x(), weight_exp_neg()]


@pytest.mark.parametrize("w", ALL_BUILTINS, ids=lambda w: w.tag)
def test_antiderivative_consistency(w):
    # (Psi(x+h) - Psi(x-h)) / 2h should recover psi on a probe grid
    h = 1e-6
    for x in np.linspace(0.1, 3.0, 17):
        fd = (w.big_psi(x + h) - w.big_psi(x - h)) / (2.0 * h)
        assert abs(fd - w(x)) < 1e-6


@pytest.mark.parametrize("w", ALL_BUILTINS, ids=lambda w: w.tag)
def test_derivative_consistency(w):
    h = 1e-6
    for x in np.linspace(0.2, 3.0, 9):
        fd = (w(x + h) - w(x - h)) / (2.0 * h)
        assert abs(fd - w.psi_prime(x)) < 1e-5


def test_psi_prime_finite_difference_fallback():
    w = custom_weight(lambda x: x ** 3)
    assert abs(w.psi_prime(2.0) - 12.0) < 1e-4


def test_big_psi_quadrature_fallback():
    w = custom_weight(lambda x: math.cos(x))
    assert abs(w.big_psi(1.2) - math.sin(1.2)) < 1e-9
    assert w.big_psi(0.0) == 0.0


def test_big_psi_unavailable():
    def broken(x):
        raise ValueError("no evaluation here")

    w = custom_weight(broken)
    with pytest.raises(WeightAntiderivativeUnavailable):
        w.big_psi(1.0)


def test_power_weight():
    w = power_weight(1.5)
    assert abs(w(4.0) - 8.0) < 1e-12
    assert abs(w.big_psi(1.0) - 1.0 / 2.5) < 1e-12
    assert power_weight(0).tag == "one"


def test_piecewise_linear_weight():
    w = piecewise_linear_weight([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    assert abs(w(0.5) - 1.0) < 1e-12
    assert abs(w(1.5) - 2.0) < 1e-12
    # trapezoid areas: 1.0 on [0,1], +2.0 on [1,2], flat extension beyond
    assert abs(w.big_psi(1.0) - 1.0) < 1e-12
    assert abs(w.big_psi(2.0) - 3.0) < 1e-12
    assert abs(w.big_psi(3.0) - 5.0) < 1e-12
    assert w.monotonicity == "increasing"


def test_piecewise_linear_weight_slope():
    # the slope of the segment that holds x, right at a knot, and 0 outside
    # the table; a central difference is wrong within 1e-6 of each knot
    w = piecewise_linear_weight([0.0, 0.3, 1.0], [0.0, 1.0, 0.05])
    xs = np.array([-1.0, 0.0, 0.3 - 1e-9, 0.3, 0.3 + 1e-9, 1.0 - 1e-9, 1.0,
                   2.0])
    up, down = 1.0 / 0.3, -0.95 / 0.7
    expected = [0.0, up, up, down, down, down, 0.0, 0.0]
    assert [w.psi_prime(float(x)) for x in xs] == expected
    got = w.derivative(xs)
    assert isinstance(got, np.ndarray) and list(got) == expected
    assert isinstance(w.psi_prime(0.5), float)


def test_piecewise_linear_weight_takes_arrays():
    w = piecewise_linear_weight([0.0, 1.0, 2.0], [0.0, 2.0, 2.0])
    xs = np.array([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    psi, big = w(xs), w.big_psi(xs)
    assert isinstance(psi, np.ndarray) and isinstance(big, np.ndarray)
    assert list(psi) == [0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 2.0]
    np.testing.assert_allclose(big, [0.0, 0.0, 0.25, 1.0, 2.0, 3.0, 5.0],
                               rtol=1e-15, atol=0.0)
    assert big[3] == w.big_psi(1.0) and isinstance(w.big_psi(1.0), float)


def test_piecewise_linear_validation():
    with pytest.raises(DomainError):
        piecewise_linear_weight([0.0], [1.0])
    with pytest.raises(DomainError):
        piecewise_linear_weight([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        piecewise_linear_weight([0.0, 1.0], [1.0, -1.0])
    with pytest.raises(DomainError):
        piecewise_linear_weight([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        piecewise_linear_weight([0.0, math.nan], [1.0, 1.0])


def test_monotonicity_tags():
    assert weight_x().monotonicity == "increasing"
    assert weight_exp_neg().monotonicity == "decreasing"
    assert weight_one().monotonicity == "constant"
    mixed = piecewise_linear_weight([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])
    assert mixed.monotonicity == "neither"
