"""Empirical CDF, the plug-in entropy estimator, and its exact sampling moments.

The estimator replaces the population CDF by the empirical step function,
which collapses the defining integral to a weighted sum over spacings of
the antiderivative-transformed order statistics:

    (1 / Gamma(gamma + 1)) * sum_l Z_l (l/n) (-ln(l/n))^gamma,
    Z_l = Psi(T_{l+1:n}) - Psi(T_{l:n}).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .errors import DomainError, ParseError, ValidationError, require_positive
from .weights import WeightFunction, _elementwise

#: Ordered lifetimes (in days) of 43 blood cancer patients from one of the
#: Ministry of Health hospitals in Saudi Arabia, as published by Abouammoh,
#: Abdulghani and Qamber (1994), "On partial orderings and testing of new
#: better than renewal used classes", Reliab. Eng. Syst. Saf. 43.
#: The listing is reproduced verbatim; the entry 15999 sits between 1578
#: and 1603 and is presumed a typo for 1599 (see the ``corrected`` reading).
#: Dataset version 1.
BLOOD_CANCER_43_LITERAL = (
    115, 181, 255, 418, 441, 461, 516, 739, 743, 789, 807, 865, 924, 983,
    1024, 1062, 1063, 1165, 1191, 1222, 1222, 1251, 1277, 1290, 1357, 1369,
    1408, 1455, 1478, 1549, 1578, 1578, 15999, 1603, 1605, 1696, 1735, 1799,
    1815, 1852, 1899, 1925, 1965,
)

READINGS = ("literal", "corrected")


@dataclass(frozen=True)
class EmpiricalSample:
    """Validated observation vector; ``values`` is an immutable array.

    ``ordered`` records whether the values are nondecreasing. The literal
    blood-cancer listing deliberately keeps the published order even
    though its 15999 entry breaks it.
    """

    values: np.ndarray
    n: int
    source: str
    ordered: bool

    def __post_init__(self):
        self.values.setflags(write=False)


def as_sample(values, source="memory") -> EmpiricalSample:
    """Build a sample, sorted ascending."""
    v = np.asarray(values, dtype=float).ravel()
    if v.size < 2:
        raise ValidationError(f"need at least 2 observations, got {v.size}")
    if np.any(~np.isfinite(v)):
        raise ValidationError("sample contains non-finite values")
    if np.any(v < 0):
        raise ValidationError("sample contains negative values")
    return EmpiricalSample(np.sort(v), int(v.size), source, True)


@dataclass(frozen=True)
class SpacingSummary:
    """Spacings ``Z_l = Psi(T_{l+1:n}) - Psi(T_{l:n})`` for one weight."""

    spacings: np.ndarray
    weight_tag: str


def spacing_summary(sample: EmpiricalSample,
                    psi: WeightFunction) -> SpacingSummary:
    """Spacings of the order statistics: an unordered sample is sorted."""
    v = sample.values if sample.ordered else np.sort(sample.values)
    big = _elementwise(psi.big_psi, v)
    return SpacingSummary(np.diff(big), psi.tag)


def empirical_cdf(sample: EmpiricalSample, x) -> float | np.ndarray:
    """Step function: 0 left of the minimum, ``l/n`` between order
    statistics, 1 at and beyond the maximum. ``x`` must not be NaN."""
    if np.any(np.isnan(x)):
        raise DomainError(f"empirical CDF undefined at NaN, got {x!r}")
    v = np.sort(sample.values) if not sample.ordered else sample.values
    r = np.searchsorted(v, np.asarray(x, dtype=float), side="right") / sample.n
    return float(r) if np.isscalar(x) else r


def _estimator_coefficients(n: int, gamma: float) -> np.ndarray:
    l = np.arange(1, n)
    r = l / n
    return r * (-np.log(r)) ** gamma


def empirical_wfgcpe(sample: EmpiricalSample, psi: WeightFunction,
                     gamma: float) -> float:
    """Plug-in estimator of the weighted fractional cumulative past entropy."""
    require_positive(gamma=gamma)
    z = spacing_summary(sample, psi).spacings
    coeff = _estimator_coefficients(sample.n, gamma)
    return float(z @ coeff) / _gamma(gamma + 1.0)


# ---------------------------------------------------------------------------
# Exact sampling moments of the estimator for tractable populations
# ---------------------------------------------------------------------------

def exact_moments_power_square(n: int, gamma: float,
                               spacing_covariance: bool = False,
                               ) -> tuple[float, float]:
    """Mean and variance of the estimator for the population
    ``K(x) = x^2`` on (0, 1) with weight ``psi = x``.

    There ``Psi(X) = X^2 / 2 = K(X) / 2``, so the spacings are half those
    of :func:`exact_moments_self_weight`, and its moments divided by 2 and
    4 (exactly, in binary floating point) are these. As there, the default
    variance treats the jointly Dirichlet spacings as independent and so
    overstates the true sampling variance; pass ``spacing_covariance=True``
    for the covariance-corrected value (use this when standardizing the
    estimator).
    """
    mean, var = exact_moments_self_weight(n, gamma, spacing_covariance)
    return mean / 2.0, var / 4.0


def exact_moments_weibull(n: int, gamma: float,
                          theta: float = 1.0) -> tuple[float, float]:
    """Mean and variance of the estimator for the population
    ``K(x) = 1 - exp(-theta x^2)`` with weight ``psi = x``.

    The squared-order-statistic spacings are independent exponentials with
    mean ``1 / (theta (n - l))``.
    """
    _check_moment_args(n, gamma)
    require_positive(theta=theta)
    l = np.arange(1, n)
    coeff = _estimator_coefficients(n, gamma)
    g = _gamma(gamma + 1.0)
    mean = (coeff / (2.0 * theta * (n - l))).sum() / g
    var = (coeff ** 2 / (4.0 * theta ** 2 * (n - l) ** 2)).sum() / g ** 2
    return float(mean), float(var)


def exact_moments_self_weight(n: int, gamma: float,
                              spacing_covariance: bool = False,
                              ) -> tuple[float, float]:
    """Mean and variance of the estimator with the self-density weight
    ``psi = k``; the spacings are marginally Beta(1, n) for any absolutely
    continuous population, so the result is population-free.

    By default the variance sums the marginal variances, ignoring the
    pairwise covariance ``-1 / ((1+n)^2 (2+n))`` of the jointly Dirichlet
    spacings; ``spacing_covariance=True`` gives the true sampling variance.
    """
    _check_moment_args(n, gamma)
    coeff = _estimator_coefficients(n, gamma)
    g = _gamma(gamma + 1.0)
    mean = coeff.sum() / (1 + n) / g
    if spacing_covariance:
        quad = (1 + n) * (coeff ** 2).sum() - coeff.sum() ** 2
    else:
        quad = n * (coeff ** 2).sum()
    var = quad / ((1 + n) ** 2 * (2 + n)) / g ** 2
    return float(mean), float(var)


def _check_moment_args(n, gamma):
    if not (n >= 2 and float(n).is_integer()):
        raise DomainError(f"require integer n >= 2, got {n}")
    require_positive(gamma=gamma)


def _exact_moments(population, weight: WeightFunction, n: int,
                   gamma: float) -> tuple[tuple[float, float] | None, str]:
    """Exact, covariance-corrected moments of the estimator where the
    population and weight admit them, and their source; else
    ``(None, "monte_carlo")``."""
    # by tag and by Psi = K at the quartiles, which proxies do not break
    if weight.tag == "self_density":
        x = _elementwise(population.quantile, np.array([0.25, 0.5, 0.75]))
        if np.array_equal(_elementwise(weight.antiderivative, x),
                          _elementwise(population.cdf, x)):
            return exact_moments_self_weight(
                n, gamma, spacing_covariance=True), "exact_self_weight"
    if weight.power == 1.0 and population.family == "weibull_square":
        theta = population.params["theta"]
        return exact_moments_weibull(n, gamma, theta), "exact_weibull"
    if weight.power == 1.0 and (population.family, population.params) == (
            "power", {"b": 1.0, "c": 2.0}):
        return (exact_moments_power_square(n, gamma, spacing_covariance=True),
                "exact_power_square")
    return None, "monte_carlo"


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------

def load_dataset(path_or_tag: str, reading: str = "corrected",
                 ) -> EmpiricalSample:
    """Load a sample from a numeric file or the builtin blood-cancer tag.

    The builtin ``"blood_cancer_43"`` has two readings: ``"literal"``
    keeps the published listing verbatim (entry 15999 included, order
    preserved), ``"corrected"`` substitutes 1599 and re-sorts.
    """
    if path_or_tag == "blood_cancer_43":
        if reading not in READINGS:
            raise DomainError(f"unknown reading {reading!r}; "
                              f"expected one of {READINGS}")
        if reading == "literal":
            v = np.asarray(BLOOD_CANCER_43_LITERAL, dtype=float)
            return EmpiricalSample(v, v.size,
                                   "builtin:blood_cancer_43/literal", False)
        v = [1599 if x == 15999 else x for x in BLOOD_CANCER_43_LITERAL]
        return as_sample(v, "builtin:blood_cancer_43/corrected")
    return _load_file(path_or_tag)


#: Characters read per block. A block ends at its last newline, so it
#: holds whole lines, and peak memory follows the block, not the file.
_BLOCK_BYTES = 1 << 20
#: Values written per ``write`` call by :func:`export_dataset`.
_EXPORT_CHUNK = 1 << 16
_COMMENT = re.compile(r"#[^\n]*")


def _load_file(path: str) -> EmpiricalSample:
    """Parse ``#`` comments, blank lines and numbers separated by commas
    or whitespace, a block of whole lines at a time."""
    if not os.path.exists(path):
        raise ParseError(f"no such file: {path}")
    blocks = []
    lineno = 0
    pending = []  # text read after the last newline
    try:
        with open(path, encoding="utf-8") as fh:
            while chunk := fh.read(_BLOCK_BYTES):
                cut = chunk.rfind("\n") + 1
                if not cut:
                    pending.append(chunk)
                    continue
                pending.append(chunk[:cut])
                text = "".join(pending)
                pending = [chunk[cut:]]
                blocks.append(_parse_block(text, lineno, path))
                lineno += text.count("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    blocks.append(_parse_block("".join(pending), lineno, path))
    values = np.concatenate(blocks)
    if not values.size:
        raise ParseError(f"{path}: no numeric data found")
    return as_sample(values, source=path)


def _parse_block(text: str, lineno: int, path: str) -> np.ndarray:
    """Values of a block of lines whose first follows line ``lineno``."""
    body = _COMMENT.sub("", text) if "#" in text else text
    try:
        # numpy converts each token with the rules of ``float()``
        return np.array(body.replace(",", " ").split(), dtype=float)
    except ValueError:
        return _parse_lines(text, lineno, path)


def _parse_lines(text: str, lineno: int, path: str) -> np.ndarray:
    """Token-by-token parse of one block; names the first bad token."""
    values = []
    for lineno, line in enumerate(text.split("\n"), start=lineno + 1):
        for token in line.split("#", 1)[0].replace(",", " ").split():
            try:
                values.append(float(token))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: not a number: {token!r}",
                    line=lineno) from None
    return np.array(values, dtype=float)


def export_dataset(sample: EmpiricalSample, path: str):
    """Write a sample as one value per line, round-trippable by
    ``load_dataset``."""
    with open(path, "w") as fh:
        for start in range(0, sample.n, _EXPORT_CHUNK):
            chunk = sample.values[start:start + _EXPORT_CHUNK].tolist()
            fh.write("\n".join(map(repr, chunk)) + "\n")
