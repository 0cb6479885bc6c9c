"""Independent reference values for every operation the benchmark checks.

Nothing here imports ``wfgcpe``. Closed forms are derived afresh for the
families that have them; everything else is integrated with mpmath's
tanh-sinh rule at 30 significant digits. mpmath values are cached on disk,
keyed by this file's contents, because the fixed quadrature grid costs
about ten seconds of mpmath and is identical for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile

import mpmath as mp
import numpy as np

MP_DIGITS = 30

#: Exponent p of the builtin weights psi = x^p; "expneg" (e^-x) has none.
WEIGHT_POWER = {"one": 0, "x": 1, "x2": 2, "sqrtx": 0.5}


# ---------------------------------------------------------------------------
# Closed forms of (1/Gamma(g+1)) int psi K (-ln K)^g dx for psi = x^p
# ---------------------------------------------------------------------------

def power_cpe(b, c, p, g):
    """K = (x/b)^c on (0, b): substitute x = b e^{-t/c}."""
    return b ** (p + 1) * c ** g / (c + p + 1) ** (g + 1)


def uniform_cpe(a, p, g):
    """K = x - a on (a, a+1), integer p: binomial expansion of (u + a)^p."""
    return sum(math.comb(p, k) * a ** (p - k) / (k + 2) ** (g + 1)
               for k in range(p + 1))


def frechet_diverges(c, p, g):
    """The integrand decays like x^(p - c g) at infinity."""
    return g <= (p + 1) / c


def frechet_cpe(b, c, p, g):
    """K = exp(-b x^-c): substitute t = b x^-c, a Gamma integral."""
    if frechet_diverges(c, p, g):
        return None
    return (b ** ((p + 1) / c) * math.gamma(g - (p + 1) / c)
            / (c * math.gamma(g + 1)))


def exponential_cre(rate, p, g):
    """Residual form for Kbar = e^{-rate x}."""
    return math.gamma(p + g + 1) / (rate ** (p + 1) * math.gamma(g + 1))


def weibull_cre(theta, p, g):
    """Residual form for Kbar = e^{-theta x^2}."""
    s = (p + 2 * g + 1) / 2
    return theta ** g * math.gamma(s) / (2 * theta ** s * math.gamma(g + 1))


def power_one_minus_cdf_bound(b, c, p, g):
    """(1/Gamma(g+1)) int x^p K (1 - K)^g dx for the power family (a Beta
    integral); the right-hand side of the bound suite's clause (a)."""
    alpha = (p + c + 1) / c
    return b ** (p + 1) / c * math.gamma(alpha) / math.gamma(alpha + g + 1)


def power_affine_cpe(b, c, p, g, a, shift):
    """Entropy of a X + shift for integer weight power p."""
    return a * sum(math.comb(p, k) * a ** k * shift ** (p - k)
                   * power_cpe(b, c, k, g) for k in range(p + 1))


# ---------------------------------------------------------------------------
# mpmath quadrature for the cells without a closed form
# ---------------------------------------------------------------------------

def _mp_weight(tag):
    if tag == "expneg":
        return lambda x: mp.exp(-x)
    if tag == "sqrtx":
        return mp.sqrt
    p = WEIGHT_POWER[tag]
    return lambda x: x ** p


def _mp_cpe(family, params, tag, g):
    psi = _mp_weight(tag)
    g = mp.mpf(g)

    def body(k, nl):
        return k * nl ** g if nl > 0 else mp.mpf(0)

    if family == "power":
        b, c = mp.mpf(params["b"]), mp.mpf(params["c"])
        f = lambda x: psi(x) * body((x / b) ** c, -c * mp.log(x / b))
        pts = [0, b]
    elif family == "uniform_shifted":
        a = mp.mpf(params["a"])
        f = lambda x: psi(x) * body(x - a, -mp.log(x - a))
        pts = [a, a + 1]
    elif family == "frechet":
        b, c = mp.mpf(params["b"]), mp.mpf(params["c"])
        f = lambda x: psi(x) * body(mp.exp(-b * x ** -c), b * x ** -c)
        pts = [0, 1, mp.inf]
    elif family in ("weibull_square", "exponential"):
        r = mp.mpf(params["theta"] if family == "weibull_square"
                   else params["rate"])
        e = 2 if family == "weibull_square" else 1

        def f(x):
            k = -mp.expm1(-r * x ** e)
            return psi(x) * body(k, -mp.log(k))
        pts = [0, 1, 4, mp.inf]
    else:
        raise KeyError(family)
    return mp.quad(f, pts) / mp.gamma(g + 1)


def cpe_reference(family, params, tag, g):
    """Reference entropy of one (family, weight, gamma) cell.

    Returns ``None`` where the integral diverges. ``prh`` cells are the
    power family with its exponent multiplied by eta.
    """
    p = WEIGHT_POWER.get(tag)
    if family == "prh":
        family, params = "power", {"b": params["b"],
                                   "c": params["c"] * params["eta"]}
    if p is not None:
        if family == "power":
            return power_cpe(params["b"], params["c"], p, g)
        if family == "frechet":
            return frechet_cpe(params["b"], params["c"], p, g)
        if family == "uniform_shifted" and p == int(p):
            return uniform_cpe(params["a"], int(p), g)
    key = json.dumps([family, sorted(params.items()), tag, g])
    if key not in _mp_values:
        with mp.workdps(MP_DIGITS):
            _mp_values[key] = float(_mp_cpe(family, params, tag, g))
    return _mp_values[key]


#: mpmath cells computed or loaded so far, keyed by their JSON description.
_mp_values: dict[str, float] = {}
#: How many of them the cache file held when it was last read or written.
_mp_stored = 0


def _cache_file(cache_dir):
    """One cache file per version of this file, so that a changed reference
    formula never reads stale values."""
    with open(__file__, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    return os.path.join(cache_dir, f"mpref-{digest}.json")


def load_cache(cache_dir):
    """Read previously computed mpmath cells, if any."""
    global _mp_stored
    try:
        with open(_cache_file(cache_dir)) as fh:
            _mp_values.update(json.load(fh))
    except (OSError, ValueError):
        pass
    _mp_stored = len(_mp_values)


def save_cache(cache_dir):
    """Write the cells back when new ones were computed."""
    global _mp_stored
    if len(_mp_values) == _mp_stored:
        return
    _mp_stored = len(_mp_values)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir)
    with os.fdopen(fd, "w") as fh:
        json.dump(_mp_values, fh)
    os.replace(tmp, _cache_file(cache_dir))


# ---------------------------------------------------------------------------
# Plug-in estimator and its exact sampling moments (numpy, from scratch)
# ---------------------------------------------------------------------------

def estimator_coefficients(n, g):
    r = np.arange(1, n) / n
    return r * (-np.log(r)) ** g


def big_psi(tag, x):
    """Closed-form antiderivatives Psi with Psi(0) = 0."""
    if tag == "one":
        return x
    if tag == "x":
        return x * x / 2
    if tag == "x2":
        return x ** 3 / 3
    if tag == "sqrtx":
        return 2 / 3 * x ** 1.5
    if tag == "expneg":
        return -np.expm1(-x)
    raise KeyError(tag)


def piecewise_linear_big_psi(xs, ys, x):
    """Trapezoid antiderivative of the linear interpolant of (xs, ys),
    extended by the end values and anchored at Psi(xs[0]) = 0."""
    xs, ys = np.asarray(xs, float), np.asarray(ys, float)
    areas = np.concatenate([[0.0], np.cumsum((ys[1:] + ys[:-1]) / 2
                                              * np.diff(xs))])
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    y = np.interp(x, xs, ys)
    inside = areas[i] + (ys[i] + y) / 2 * (x - xs[i])
    return np.where(x <= xs[0], ys[0] * (x - xs[0]),
                    np.where(x >= xs[-1], areas[-1] + ys[-1] * (x - xs[-1]),
                             inside))


def estimate(values, g, tag=None, table=None):
    """Sort, apply Psi, take spacings and dot with the coefficients."""
    x = np.sort(np.asarray(values, float))
    big = (piecewise_linear_big_psi(*table, x) if table is not None
           else big_psi(tag, x))
    z = np.diff(big)
    return float(z @ estimator_coefficients(x.size, g)) / math.gamma(g + 1)


def _dirichlet_moments(n, g, scale):
    """Mean and covariance-corrected variance of sum c_l D_l * scale for
    uniform spacings D (Dirichlet: E = 1/(n+1), Var = n/((n+1)^2 (n+2)),
    Cov = -1/((n+1)^2 (n+2)))."""
    c = estimator_coefficients(n, g)
    gg = math.gamma(g + 1)
    mean = scale * c.sum() / (n + 1) / gg
    var = (scale ** 2 * ((n + 1) * (c ** 2).sum() - c.sum() ** 2)
           / ((n + 1) ** 2 * (n + 2)) / gg ** 2)
    return float(mean), float(var)


def moments_power_square(n, g):
    """K = x^2, psi = x: Psi(T) = K(T)/2, so Z_l is half a uniform spacing."""
    return _dirichlet_moments(n, g, 0.5)


def published_table4_moments(n, g):
    """Mean and the published (independent-spacings) variance for Table 4."""
    c = estimator_coefficients(n, g)
    gg = math.gamma(g + 1)
    return (float(c.sum() / (2 * (n + 1)) / gg),
            float(n * (c ** 2).sum() / (4 * (n + 1) ** 2 * (n + 2)) / gg ** 2))
