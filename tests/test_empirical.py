"""Tests for the empirical estimator, exact moments, and dataset handling."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from wfgcpe import empirical
from wfgcpe.distributions import make_power
from wfgcpe.empirical import (BLOOD_CANCER_43_LITERAL, EmpiricalSample,
                              as_sample, empirical_cdf, empirical_wfgcpe,
                              exact_moments_power_square,
                              exact_moments_self_weight,
                              exact_moments_weibull, export_dataset,
                              load_dataset, spacing_summary)
from wfgcpe.errors import DomainError, ParseError, ValidationError
from wfgcpe.weights import (custom_weight, piecewise_linear_weight,
                            weight_exp_neg, weight_one, weight_sqrt_x,
                            weight_x)


def test_empirical_cdf_steps():
    s = as_sample([1.0, 2.0, 3.0, 4.0])
    assert empirical_cdf(s, 0.5) == 0.0
    assert empirical_cdf(s, 2.5) == 0.5
    assert empirical_cdf(s, 4.0) == 1.0
    assert empirical_cdf(s, 10.0) == 1.0
    got = empirical_cdf(s, [0.5, 2.5, 10.0])
    assert np.allclose(got, [0.0, 0.5, 1.0])


def test_as_sample_validation():
    with pytest.raises(ValidationError):
        as_sample([1.0])
    with pytest.raises(ValidationError):
        as_sample([1.0, -2.0])
    with pytest.raises(ValidationError):
        as_sample([1.0, math.nan])
    s = as_sample([3.0, 1.0, 2.0])
    assert list(s.values) == [1.0, 2.0, 3.0]
    assert s.ordered and s.n == 3
    with pytest.raises(ValueError):
        s.values[0] = 99.0  # frozen array


def test_two_point_sample():
    s = as_sample([0.0, 1.0])
    got = empirical_wfgcpe(s, weight_one(), 1.0)
    assert abs(got - 0.5 * math.log(2.0)) < 1e-12


def test_estimator_gamma_validation():
    s = as_sample([0.0, 1.0])
    for gamma in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            empirical_wfgcpe(s, weight_one(), gamma)


def test_estimator_matches_step_cdf_riemann():
    # the spacing sum equals direct Riemann evaluation of the defining
    # integral with the empirical step CDF plugged in
    rng = np.random.default_rng(11)
    for n in (5, 12, 20):
        s = as_sample(rng.uniform(0.2, 3.0, size=n))
        for g in (0.5, 1.5):
            est = empirical_wfgcpe(s, weight_x(), g)
            xs = np.linspace(s.values[0], s.values[-1], 200001)
            k = empirical_cdf(s, xs)
            mask = (k > 0.0) & (k < 1.0)
            integrand = np.zeros_like(xs)
            integrand[mask] = xs[mask] * k[mask] * (-np.log(k[mask])) ** g
            riemann = np.trapezoid(integrand, xs) / gamma_fn(g + 1.0)
            assert abs(est - riemann) / est < 1e-3


def test_scale_law():
    rng = np.random.default_rng(3)
    raw = rng.uniform(0.1, 2.0, size=9)
    s1 = as_sample(raw)
    c = 2.5
    s2 = as_sample(c * raw)
    for g in (0.25, 1.0, 2.0):
        v1 = empirical_wfgcpe(s1, weight_x(), g)
        v2 = empirical_wfgcpe(s2, weight_x(), g)
        assert abs(v2 - c * c * v1) < 1e-9 * max(1.0, abs(v2))


def test_ties_give_zero_spacings():
    s = as_sample([1.0, 2.0, 2.0, 3.0])
    z = spacing_summary(s, weight_x()).spacings
    assert z[1] == 0.0
    assert np.isfinite(empirical_wfgcpe(s, weight_x(), 0.5))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1e4), min_size=2, max_size=60),
       st.randoms(use_true_random=False),
       st.sampled_from([0.25, 0.5, 1.0, 2.75]))
def test_estimate_does_not_depend_on_sample_order(values, rnd, gamma):
    shuffled = list(values)
    rnd.shuffle(shuffled)
    v = np.array(shuffled, dtype=float)
    unordered = EmpiricalSample(v, v.size, "memory",
                                bool(np.all(np.diff(v) >= 0)))
    for weight in (weight_x(), weight_sqrt_x()):
        assert (empirical_wfgcpe(unordered, weight, gamma)
                == empirical_wfgcpe(as_sample(values), weight, gamma))


def test_literal_reading_is_estimated_on_its_order_statistics():
    lit = load_dataset("blood_cancer_43", reading="literal")
    for g in (0.25, 0.5, 2.75):
        for weight in (weight_sqrt_x(), weight_x()):
            got = empirical_wfgcpe(lit, weight, g)
            assert got > 0
            assert got == empirical_wfgcpe(as_sample(lit.values), weight, g)


@pytest.mark.parametrize("weight", [
    weight_sqrt_x(), weight_exp_neg(),
    piecewise_linear_weight([0.0, 1.0, 4.0], [1.0, 0.5, 2.0]),
    custom_weight(lambda x: x, lambda x: 0.5 * math.pow(x, 2)),
], ids=lambda w: w.tag)
def test_spacings_match_elementwise_psi(weight):
    # one whole-sample Psi call, or the map for a float-only antiderivative
    s = as_sample(np.random.default_rng(5).exponential(1.5, 200))
    z = spacing_summary(s, weight).spacings
    big = np.array([weight.big_psi(float(t)) for t in s.values])
    np.testing.assert_allclose(z, np.diff(big), rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# Exact moments
# ---------------------------------------------------------------------------

def test_power_square_moment_examples():
    mean, var = exact_moments_power_square(5, 0.25)
    assert abs(mean - 0.153878) < 5e-7
    assert abs(var - 0.004609893) < 1e-8
    mean, var = exact_moments_power_square(50, 1.5)
    assert abs(mean - 0.086481) < 5e-7
    mean, var = exact_moments_power_square(10, 0.5)
    assert abs(mean - 0.156472) < 5e-7


def test_power_square_covariance_corrected_variance():
    # frozen against a 40k-replicate Monte Carlo oracle (which rejects the
    # marginal-sum value 0.0024169 by hundreds of standard errors)
    _, var = exact_moments_power_square(10, 0.5, spacing_covariance=True)
    assert abs(var - 0.000618249746909264) < 1e-15
    _, var_indep = exact_moments_power_square(10, 0.5)
    assert var < var_indep  # correlations are negative


def test_weibull_moment_examples():
    mean, _ = exact_moments_weibull(2, 1.0)
    assert abs(mean - 0.25 * math.log(2.0)) < 1e-12
    m1, v1 = exact_moments_weibull(20, 0.75, theta=1.0)
    m3, v3 = exact_moments_weibull(20, 0.75, theta=3.0)
    assert abs(m3 - m1 / 3.0) < 1e-12
    assert abs(v3 - v1 / 9.0) < 1e-12
    with pytest.raises(DomainError):
        exact_moments_weibull(10, 0.5, theta=0.0)


def test_self_weight_moment_examples():
    mean, _ = exact_moments_self_weight(2, 1.0)
    assert abs(mean - math.log(2.0) / 6.0) < 1e-12  # (1/3)(1/2) ln 2
    # coefficient ratio vs the power-square case is exactly 2
    for n, g in [(5, 0.25), (12, 1.5)]:
        m_self, _ = exact_moments_self_weight(n, g)
        m_ps, _ = exact_moments_power_square(n, g)
        assert abs(m_self - 2.0 * m_ps) < 1e-14


def test_moment_argument_validation():
    with pytest.raises(DomainError):
        exact_moments_power_square(1, 0.5)
    with pytest.raises(DomainError):
        exact_moments_power_square(10, -1.0)
    for moments in (exact_moments_power_square, exact_moments_weibull,
                    exact_moments_self_weight):
        for gamma in (math.inf, math.nan):
            with pytest.raises(DomainError):
                moments(10, gamma)


# ---------------------------------------------------------------------------
# Dataset handling
# ---------------------------------------------------------------------------

def test_builtin_dataset_readings():
    lit = load_dataset("blood_cancer_43", reading="literal")
    assert lit.n == 43
    assert lit.values.min() == 115
    assert lit.values.max() == 15999
    assert not lit.ordered  # the published listing breaks its own order
    cor = load_dataset("blood_cancer_43", reading="corrected")
    assert cor.n == 43
    assert cor.values.max() == 1965
    assert cor.ordered
    assert 1599 in cor.values and 15999 not in cor.values
    with pytest.raises(DomainError):
        load_dataset("blood_cancer_43", reading="upside_down")
    assert len(BLOOD_CANCER_43_LITERAL) == 43


def test_file_loading(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# lifetimes\n1.0, 2.0\n3.0 4.0  # trailing comment\n")
    s = load_dataset(str(path))
    assert list(s.values) == [1.0, 2.0, 3.0, 4.0]
    assert s.source == str(path)


def test_file_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\nbogus\n")
    with pytest.raises(ParseError) as err:
        load_dataset(str(path))
    assert err.value.line == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ParseError):
        load_dataset(str(empty))
    with pytest.raises(ParseError):
        load_dataset(str(tmp_path / "missing.csv"))


def test_export_round_trip(tmp_path):
    s = load_dataset("blood_cancer_43", reading="corrected")
    out = tmp_path / "export.txt"
    export_dataset(s, str(out))
    back = load_dataset(str(out))
    assert np.array_equal(back.values, s.values)
    assert (empirical_wfgcpe(back, weight_sqrt_x(), 0.25)
            == empirical_wfgcpe(s, weight_sqrt_x(), 0.25))


def test_corrected_reading_against_population_scale():
    # sanity: the estimator on a power(1,2) sample approaches the closed form
    pop = make_power(1.0, 2.0)
    rng = np.random.default_rng(123)
    s = as_sample(pop.quantile(rng.random(4000)))
    est = empirical_wfgcpe(s, weight_x(), 0.5)
    truth = 1.0 / (2.0 * 2.0 ** 1.5)
    assert abs(est - truth) / truth < 0.05


def test_undecodable_file_is_a_parse_error(tmp_path):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"1.0\n\xff\xfe2.0\n")
    with pytest.raises(ParseError, match="not UTF-8") as err:
        load_dataset(str(path))
    assert str(path) in str(err.value)


# ---------------------------------------------------------------------------
# Block parser and chunked export against the per-token reference
# ---------------------------------------------------------------------------

def _reference_load(path):
    """The per-token parser the block parser replaced."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            for token in text.replace(",", " ").split():
                try:
                    values.append(float(token))
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: not a number: {token!r}",
                        line=lineno) from None
    if not values:
        raise ParseError(f"{path}: no numeric data found")
    return as_sample(values, source=path)


def _reference_export(sample, path):
    """The per-value writer the chunked export replaced."""
    with open(path, "w") as fh:
        for v in sample.values:
            fh.write(f"{float(v)!r}\n")


def _outcome(load, path):
    try:
        s = load(path)
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None)
    return "sample", s.values.tobytes(), s.n


_TOKENS = st.one_of(
    st.floats(0.0, 1e6).map(repr),
    st.integers(0, 10 ** 6).map(str),
    st.sampled_from(["1_000", "٣.٥", "1e3", ".5", "5."]))
# one token that the parser or the sample check refuses
_BAD = st.sampled_from(["bogus", "1..2", "0x10", "1e", "nan(1)", "\ufeff1",
                        "nan", "-inf", "-1.5"])
# form feed and U+2028 separate tokens but do not end a line
_SEPARATORS = st.sampled_from([" ", ",", ", ", "\t", " ,", "\x0c",
                               "\u2028"])


@st.composite
def _data_files(draw):
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        tokens = draw(st.lists(_TOKENS, max_size=5))
        sep = draw(_SEPARATORS)
        line = sep.join(tokens)
        if draw(st.booleans()):
            line += draw(st.sampled_from([" # note, 1.0", "#", "# x y"]))
        lines.append(line)
    if lines and draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = f"{lines[at]} {draw(_BAD)}".lstrip()
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    return text.encode("utf-8"), draw(st.integers(1, 40))


@settings(max_examples=200, deadline=None)
@given(_data_files())
def test_block_parser_matches_per_token_reference(tmp_path_factory, case):
    data, block = case
    path = tmp_path_factory.mktemp("parse") / "data.csv"
    path.write_bytes(data)
    want = _outcome(_reference_load, str(path))
    for size in (block, empirical._BLOCK_BYTES):
        with mock.patch.object(empirical, "_BLOCK_BYTES", size):
            assert _outcome(load_dataset, str(path)) == want


def test_block_parser_small_blocks(tmp_path, monkeypatch):
    lines = ["1.0, 2.0", "3.0  # a comment, 4.0 and more text", "",
             "5.0,6.0,7.0", "# whole-line comment", "8.0 9.0", "oops 10.0",
             "11.0"]
    text = "\n".join(lines) + "\n"
    path = tmp_path / "blocks.csv"
    path.write_text(text)
    monkeypatch.setattr(empirical, "_BLOCK_BYTES", 40)
    # the first read of 40 characters ends inside the comment on line 2
    start = text.index("#")
    assert start < 40 < text.index("\n", start)
    blocks = []
    parse = empirical._parse_block

    def recording(block, lineno, source):
        blocks.append(lineno)
        return parse(block, lineno, source)

    monkeypatch.setattr(empirical, "_parse_block", recording)
    with pytest.raises(ParseError) as err:
        load_dataset(str(path))
    assert err.value.line == 7
    assert str(err.value) == f"{path}:7: not a number: 'oops'"
    assert len(blocks) == 3  # the bad token sits in the third block
    path.write_text(text.replace("oops ", ""))
    blocks.clear()
    assert list(load_dataset(str(path)).values) == [
        1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0]
    # one line longer than a block
    path.write_text(", ".join(map(str, range(100))))
    assert list(load_dataset(str(path)).values) == list(range(100))


def test_export_chunks_match_per_value_writer(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    raw = np.concatenate([rng.exponential(3.0, 40),
                          [0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, 7.0]])
    s = as_sample(raw)
    want = tmp_path / "reference.txt"
    _reference_export(s, str(want))
    for chunk in (7, s.n, empirical._EXPORT_CHUNK):
        monkeypatch.setattr(empirical, "_EXPORT_CHUNK", chunk)
        got = tmp_path / f"chunk{chunk}.txt"
        export_dataset(s, str(got))
        assert got.read_bytes() == want.read_bytes()
        assert np.array_equal(load_dataset(str(got)).values, s.values)
