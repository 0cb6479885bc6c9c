"""Tests for the command-line interface: verbs, exit codes, formats."""

import csv
import io
import json
import math
import pathlib
import subprocess
import sys

import pytest

from wfgcpe import cli, measures
from wfgcpe.analysis import SimulationConfig, clt_diagnostic
from wfgcpe.cli import TABLE3_PUBLISHED, main
from wfgcpe.distributions import (make_power, make_uniform_shifted,
                                  make_weibull_square)
from wfgcpe.empirical import (empirical_wfgcpe, exact_moments_power_square,
                              load_dataset)
from wfgcpe.weights import self_density_weight, weight_x


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_pretty(capsys):
    code, out, err = run(capsys, "compute", "--dist", "power", "--b", "1",
                         "--c", "2", "--weight", "x", "--gamma", "0.5")
    assert code == 0
    assert "0.176777" in out
    assert "closed_form" in out


def test_compute_json_schema(capsys):
    args = ("compute", "--dist", "power", "--b", "1", "--c", "2",
            "--weight", "x", "--gamma", "0.5", "--format", "json")
    code, out, _ = run(capsys, *args)
    doc = json.loads(out)
    assert set(doc) == {"metadata", "rows"}
    row = doc["rows"][0]
    assert set(row) == {"measure", "dist", "weight", "gamma", "value",
                        "method"}
    assert abs(row["value"] - 0.17677669529663687) < 1e-15
    # schema-stable across runs
    code2, out2, _ = run(capsys, *args)
    assert out2 == out


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--dist", "uniform", "--a", "1",
                       "--weight", "x2", "--gamma", "1.0", "--format", "csv")
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    assert rows[0]["method"] == "closed_form"
    assert float(rows[0]["value"]) > 0


@pytest.mark.parametrize("argv", [
    ("compute", "--dist", "weibull-square", "--weight", "x", "--gamma",
     "0.5", "--normalized"),
    ("reproduce", "--table", "3"),
], ids=["compute-quadrature", "reproduce-table3"])
def test_csv_numeric_cells_are_plain_floats(capsys, argv):
    # numpy scalars once printed as np.float64(...)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    numeric = {"gamma", "value", "published", "rel_discrepancy"}
    assert rows
    for row in rows:
        for key in numeric & set(row):
            float(row[key])


def test_compute_normalized_flag(capsys):
    code, out, _ = run(capsys, "compute", "--dist", "power", "--b", "1",
                       "--c", "2", "--weight", "x", "--gamma", "1.0",
                       "--normalized", "--format", "json")
    doc = json.loads(out)
    normalized = [r for r in doc["rows"]
                  if r["measure"] == "normalized_wfgcpe"]
    assert abs(normalized[0]["value"] - 1.0) < 1e-9


@pytest.mark.parametrize("dist", [
    ("power", "--b", "1", "--c", "2"), ("frechet", "--b", "1", "--c", "4")],
    ids=lambda d: d[0])
def test_normalized_rows_report_the_entropy_method(capsys, monkeypatch,
                                                   dist):
    # both entropies behind the ratio take closed forms: no integral runs
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a closed-form cell called integrate")

    monkeypatch.setattr(measures, "integrate", no_quadrature)
    code, out, _ = run(capsys, "compute", "--dist", *dist, "--weight", "x",
                       "--gamma", "1.5", "--normalized", "--format", "json")
    assert code == 0
    assert [r["method"] for r in json.loads(out)["rows"]] == [
        "closed_form", "closed_form"]


def test_compute_extreme_gamma_no_crash(capsys):
    code, out, _ = run(capsys, "compute", "--dist", "power", "--b", "1",
                       "--c", "2", "--weight", "x", "--gamma", "1e9")
    assert code in (0, 4)


def test_compute_constraint_exit(capsys):
    code, _, err = run(capsys, "compute", "--dist", "frechet", "--b", "1",
                       "--c", "4", "--weight", "x2", "--gamma", "0.5")
    assert code == 2
    assert "gamma" in err


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["conjugate", "--gamma", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--dist", "power", "--gamma", "1", "--frobnicate"])
    assert exc.value.code == 2


def test_estimate_builtin(capsys):
    code, out, _ = run(capsys, "estimate", "--builtin", "blood_cancer_43",
                       "--reading", "corrected", "--weight", "x",
                       "--gamma", "0.25", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["reading"] == "corrected"
    assert doc["metadata"]["n"] == 43
    expected = empirical_wfgcpe(load_dataset("blood_cancer_43", "corrected"),
                                weight_x(), 0.25)
    assert doc["rows"][0]["value"] == expected


def test_estimate_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "estimate", "--input", "/no/such/file.csv",
                       "--weight", "x", "--gamma", "0.5")
    assert code == 3 and err


def test_estimate_bad_file_exit_3(capsys, tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0\nnot-a-number\n")
    code, _, err = run(capsys, "estimate", "--input", str(p),
                       "--weight", "x", "--gamma", "0.5")
    assert code == 3


def test_estimate_undecodable_file_exit_3(capsys, tmp_path):
    p = tmp_path / "binary.csv"
    p.write_bytes(b"\xff\xfe1.0\n")
    code, out, err = run(capsys, "estimate", "--input", str(p),
                         "--weight", "x", "--gamma", "0.5")
    assert code == 3 and out == ""
    assert err.startswith("error: ") and str(p) in err


def test_estimate_non_finite_gamma_exit_2(capsys):
    for gamma in ("inf", "nan"):
        code, out, err = run(capsys, "estimate", "--builtin",
                             "blood_cancer_43", "--weight", "x", "--gamma",
                             gamma)
        assert code == 2 and out == ""
        assert "gamma" in err


def test_estimate_export_round_trip(capsys, tmp_path):
    out_file = tmp_path / "exported.txt"
    code, out1, _ = run(capsys, "estimate", "--builtin", "blood_cancer_43",
                        "--weight", "sqrtx", "--gamma", "0.25",
                        "--export", str(out_file), "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "estimate", "--input", str(out_file),
                        "--weight", "sqrtx", "--gamma", "0.25",
                        "--format", "json")
    assert code == 0
    v1 = json.loads(out1)["rows"][0]["value"]
    v2 = json.loads(out2)["rows"][0]["value"]
    assert v1 == v2


def test_custom_weight_table(capsys):
    code, out, _ = run(capsys, "compute", "--dist", "uniform", "--a", "0",
                       "--weight-custom", "0:1;10:1", "--gamma", "1.0",
                       "--format", "json")
    assert code == 0
    # constant table reproduces the unweighted closed form 1/2^2
    assert abs(json.loads(out)["rows"][0]["value"] - 0.25) < 1e-9


@pytest.mark.parametrize("table", ["1:2;x", "1:2", "0:1;2:1;1:1"])
def test_custom_weight_table_malformed_exit_2(capsys, table):
    code, out, err = run(capsys, "compute", "--dist", "uniform",
                         "--weight-custom", table, "--gamma", "1.0")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_compute_non_finite_gamma_exit_2(capsys):
    for gamma in ("inf", "nan"):
        code, out, err = run(capsys, "compute", "--dist", "power", "--b",
                             "1", "--c", "2", "--weight", "x", "--gamma",
                             gamma)
        assert code == 2 and out == ""
        assert "gamma" in err


@pytest.mark.parametrize("family", [
    ("uniform", "--a", "nan"), ("power", "--b", "inf"),
    ("weibull-square", "--theta", "inf")], ids=" ".join)
def test_compute_non_finite_family_parameter_exit_2(capsys, family):
    dist, flag, value = family
    code, out, err = run(capsys, "compute", "--dist", dist, flag, value,
                         "--gamma", "1")
    assert code == 2 and out == ""
    assert flag[2:] in err


#: (simulate arguments, the same population and weight, moment source)
SELECTOR_CASES = [
    (("--pop", "power-square"), make_power(1.0, 2.0), weight_x(),
     "exact_power_square"),
    (("--pop", "power", "--b", "1", "--c", "2"), make_power(1.0, 2.0),
     weight_x(), "exact_power_square"),
    (("--pop", "weibull-square", "--theta", "2"), make_weibull_square(2.0),
     weight_x(), "exact_weibull"),
    (("--pop", "uniform", "--weight", "selfdensity"),
     make_uniform_shifted(0.0),
     self_density_weight(make_uniform_shifted(0.0)), "exact_self_weight"),
    (("--pop", "power", "--b", "2", "--c", "3"), make_power(2.0, 3.0),
     weight_x(), "monte_carlo"),
]


@pytest.mark.parametrize("argv, population, weight, source", [
    pytest.param(*case, id=" ".join(case[0])) for case in SELECTOR_CASES])
def test_simulate_and_clt_pick_the_same_moments(capsys, argv, population,
                                                weight, source):
    code, out, _ = run(capsys, "simulate", *argv, "--n", "20", "--gamma",
                       "0.5", "--replicates", "200", "--seed", "4",
                       "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    config = SimulationConfig(200, 20, 4, population, weight, 0.5)
    report = clt_diagnostic(config)
    assert report.moment_source == source
    if source == "monte_carlo":
        assert "exact_mean" not in row
        return
    # the same draws standardized by the CLI's moments give the same report
    given = clt_diagnostic(config, (row["exact_mean"],
                                    row["exact_variance"]))
    assert (given.ks_distance, given.skewness) == (report.ks_distance,
                                                   report.skewness)


def test_simulate_negative_seed_exit_2(capsys):
    code, out, err = run(capsys, "simulate", "--pop", "power-square", "--n",
                         "5", "--gamma", "0.5", "--seed", "-1")
    assert code == 2 and out == ""
    assert "seed" in err


def test_simulate_seed_reproducibility(capsys):
    args = ("simulate", "--pop", "power-square", "--n", "5", "--gamma",
            "0.25", "--replicates", "400", "--seed", "99", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["metadata"]["seed"] == 99
    row = doc["rows"][0]
    assert "exact_mean" in row and "mc_mean" in row


def test_simulate_derives_and_prints_seed(capsys):
    code, out, _ = run(capsys, "simulate", "--pop", "power-square", "--n",
                       "5", "--gamma", "0.25", "--replicates", "50",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    seed = doc["metadata"]["seed"]
    # re-running with the printed seed reproduces the rows exactly
    _, out2, _ = run(capsys, "simulate", "--pop", "power-square", "--n", "5",
                     "--gamma", "0.25", "--replicates", "50", "--seed",
                     str(seed), "--format", "json")
    assert json.loads(out2)["rows"] == doc["rows"]


def test_simulate_reports_covariance_corrected_variance(capsys):
    code, out, _ = run(capsys, "simulate", "--pop", "power-square", "--n",
                       "10", "--gamma", "0.5", "--replicates", "2000",
                       "--seed", "3", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    mean, var = exact_moments_power_square(10, 0.5, spacing_covariance=True)
    assert row["exact_mean"] == mean
    assert row["exact_variance"] == var
    assert row["mean_z"] == ((row["mc_mean"] - mean)
                             / math.sqrt(var / row["replicates"]))


def test_reproduce_table4(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "4",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 20
    cell = {(r["gamma"], r["n"]): r for r in rows}
    mean, var = exact_moments_power_square(5, 0.25)
    assert cell[(0.25, 5)]["mean"] == mean
    assert cell[(0.25, 5)]["variance"] == var


def test_reproduce_table3_records_reading(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["metadata"]["matching_reading"] == "corrected"
    assert len(doc["rows"]) == 2 * len(TABLE3_PUBLISHED)
    corrected = [r for r in doc["rows"] if r["reading"] == "corrected"]
    assert all(r["rel_discrepancy"] <= 0.01 for r in corrected)


def test_reproduce_table3_single_reading(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "3", "--reading",
                       "literal", "--format", "json")
    doc = json.loads(out)
    assert {r["reading"] for r in doc["rows"]} == {"literal"}
    assert doc["metadata"]["matching_reading"] == "none"


def test_reproduce_tables_1_and_2(capsys):
    for table in ("1", "2"):
        code, out, _ = run(capsys, "reproduce", "--table", table,
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows, table
        finite = [r for r in rows if r["value"] == r["value"]]
        assert all(r["value"] >= 0 for r in finite)


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("table", ["1", "2", "3", "4"])
def test_reproduce_json_matches_golden_file(capsys, table):
    # any change to a value, a method string or the schema shows here
    code, out, _ = run(capsys, "reproduce", "--table", table,
                       "--format", "json")
    assert code == 0
    expected = (GOLDEN / f"reproduce_table{table}.json").read_text(
        encoding="utf-8")
    assert out == expected


def test_bounds_verb(capsys):
    code, out, _ = run(capsys, "bounds", "--dist", "power", "--b", "1",
                       "--c", "2", "--weight", "x", "--gamma", "1.5",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert all(r["holds"] for r in rows)


@pytest.mark.parametrize("c", ["0.5", "1"])
def test_bounds_verb_reports_an_infinite_mean(capsys, c):
    # Frechet tail index c <= 1: Jensen at the mean does not apply
    code, out, _ = run(capsys, "bounds", "--dist", "frechet", "--b", "1",
                       "--c", c, "--weight", "expneg", "--gamma", "2",
                       "--format", "json")
    assert code == 0
    rows = {r["bound"]: r for r in json.loads(out)["rows"]}
    assert rows["tau_at_mean_lower_bound"]["note"] == (
        "inapplicable: infinite mean")


def test_parser_is_built_lazily():
    code = ("import wfgcpe.cli as c; n = c._parser.cache_info().currsize; "
            "c.main(['compute', '--dist', 'power', '--weight', 'x', "
            "'--gamma', '1']); "
            "print(n, c._parser.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 1"


def test_shared_parser_keeps_verbs_apart(capsys, tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("# lifetimes\n3.0, 1.0\n2.0 5.0\n")
    calls = [
        ("compute", "--dist", "power", "--b", "2", "--gamma", "0.5",
         "--format", "json"),
        ("simulate", "--pop", "power-square", "--n", "5", "--gamma", "0.5",
         "--replicates", "50", "--seed", "4", "--format", "json"),
        ("estimate", "--input", str(data), "--gamma", "0.75",
         "--format", "csv"),
        ("compute", "--dist", "uniform", "--gamma", "1.5"),
    ]
    shared = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert all(code == 0 for code, _, _ in shared)
    # simulate's default weight x does not leak into the later verbs
    assert json.loads(shared[0][1])["rows"][0]["weight"] == "one"
    assert ",one," in shared[2][1] and "one" in shared[3][1]
