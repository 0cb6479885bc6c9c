"""Tests for ordering verifiers, bound checks, and the Monte Carlo harness."""

import dataclasses
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from wfgcpe import analysis
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
from wfgcpe.errors import DomainError, PreconditionUnmet
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


def _st_hr_loop(m1, m2, relation, grid=256):
    """The per-point "st" and "hr" checks, kept as the reference."""
    lo = min(m.support[0] for m in (m1, m2))
    hi = max(m.quantile(1.0 - 1e-10) if math.isinf(m.support[1])
             else m.support[1] for m in (m1, m2))
    xs = np.linspace(lo, hi, grid + 2)[1:-1]
    if relation == "st":
        for x in xs:
            if m2.cdf(x) > m1.cdf(x) + 1e-9:
                return "violated", (float(x),)
        return "holds_on_grid", None
    ratios, pts = [], []
    for x in xs:
        s1, s2 = m1.survival(x), m2.survival(x)
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


def test_bound_suite_sample():
    reports = bound_suite(make_power(1.0, 2.0), weight_x(), 1.0,
                          xi=weight_x())
    assert all(r.holds for r in reports)
    names = {r.name for r in reports}
    assert "one_minus_cdf_lower_bound" in names
    assert "log_sum_entropy_lower_bound" in names


def test_bound_suite_log_sum_reports_divergence_not_bugs():
    base = make_power(1.0, 2.0)
    # a zero density makes H(X) diverge: the bound is vacuous, not an error
    zero = dataclasses.replace(base, pdf=lambda x: 0.0)
    rep = {r.name: r for r in bound_suite(zero, weight_x(), 1.0)}
    rep = rep["log_sum_entropy_lower_bound"]
    assert rep.holds and math.isnan(rep.rhs)
    assert rep.note.startswith("inapplicable: math domain error")

    def broken(x):
        raise TypeError("density bug")

    with pytest.raises(TypeError, match="density bug"):
        bound_suite(dataclasses.replace(base, pdf=broken), weight_x(), 1.0)


@pytest.mark.parametrize("model", [
    make_power(1.0, 2.0), make_uniform_shifted(0.5), make_frechet(1.0, 4.0),
    make_weibull_square(1.0), make_exponential(1.0)],
    ids=lambda m: m.family)
@pytest.mark.parametrize("psi", [weight_x(), weight_exp_neg()],
                         ids=lambda w: w.tag)
def test_bound_suite_log_sum_is_one_integral(monkeypatch, model, psi):
    # ln D + H(X) as one integral: clauses (a) and (b) take one each
    calls = []
    real = analysis.integrate

    def counted(f, *args, **kwargs):
        calls.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(analysis, "integrate", counted)
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


def test_clt_small_n_reports_only():
    rep = clt_diagnostic(_config(n=5, population=make_weibull_square(1.0)))
    assert rep.passes is None
    assert rep.moment_source == "exact_weibull"


def test_clt_monte_carlo_moment_fallback():
    rep = clt_diagnostic(_config(weight=weight_one(), replicates=400, n=250))
    assert rep.moment_source == "monte_carlo"
    assert rep.passes is not None


def test_clt_self_weight_source():
    u = make_uniform_shifted(0.0)
    rep = clt_diagnostic(_config(population=u, weight=self_density_weight(u),
                                 replicates=400, n=250))
    assert rep.moment_source == "exact_self_weight"
    assert rep.passes


def test_consistency_profile_shrinks():
    prof = consistency_profile(make_power(1.0, 2.0), weight_x(), 0.5,
                               sample_sizes=(50, 400), replicates=60)
    assert prof[400] < prof[50]
