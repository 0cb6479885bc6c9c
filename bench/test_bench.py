"""Self-checks of the benchmark in its tiny-size mode.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository
root. Each run of ``run.py`` here takes a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"], cwd=cwd, capture_output=True, text=True,
        timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_without_the_package_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("quad_battery", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


ORACLE = Oracle(1e-10, 1e-9)


def _op(workload, prefix, workdir=None):
    ops = workloads.build(workload, 7, "tiny", workdir)
    return next(op for op in ops if op["id"].startswith(prefix))


def test_oracle_fails_a_perturbed_quadrature_value():
    op = _op("quad_battery", "cell/power/x/1.5")
    ref = op["ref"]["value"]
    assert ORACLE.check(op, ("value", SimpleNamespace(value=ref)))[0]
    perturbed = SimpleNamespace(value=ref * (1 + 1e-5))
    assert not ORACLE.check(op, ("value", perturbed))[0]
    assert not ORACLE.check(op, ("value", SimpleNamespace(
        value=float("nan"))))[0]
    assert not ORACLE.check(op, ("typed", "NonConvergence"))[0]
    assert not ORACLE.check(op, ("raw", "ZeroDivisionError"))[0]


def test_oracle_accepts_only_a_typed_refusal_of_a_divergent_cell():
    op = _op("quad_battery", "cell/frechet/x/0.25")
    assert op["ref"]["value"] is None
    assert ORACLE.check(op, ("typed", "NonConvergence"))[0]
    assert not ORACLE.check(op, ("value", SimpleNamespace(value=-2.4)))[0]


def test_oracle_fails_a_shifted_monte_carlo_mean():
    op = _op("mc_simulate", "simulate/")
    reps = op["args"]["replicates"]
    summaries = {}
    for g, (mean, var) in op["ref"]["moments"].items():
        summaries[float(g)] = SimpleNamespace(mean=mean, values=[mean] * reps)
    assert ORACLE.check(op, ("value", summaries))[0]
    g, (mean, var) = next(iter(op["ref"]["moments"].items()))
    shifted = mean + 8 * (var / reps) ** 0.5
    summaries[float(g)] = SimpleNamespace(mean=shifted,
                                          values=[shifted] * reps)
    assert not ORACLE.check(op, ("value", summaries))[0]


def test_oracle_fails_a_perturbed_cli_value(tmp_path):
    op = _op("cli_estimate", "compute/", str(tmp_path))
    doc = {"metadata": {}, "rows": [{"value": op["ref"]["value"]}]}
    assert ORACLE.check(op, ("cli", 0, json.dumps(doc)))[0]
    doc["rows"][0]["value"] *= 1 + 1e-5
    assert not ORACLE.check(op, ("cli", 0, json.dumps(doc)))[0]
    assert not ORACLE.check(op, ("cli", 4, ""))[0]


def test_oracle_fails_a_clt_report_far_from_normal():
    op = _op("mc_simulate", "clt/weibull/x")
    ref = op["ref"]
    report = SimpleNamespace(moment_source=ref["source"],
                             ks_threshold=ref["threshold"],
                             ks_distance=0.9 * ref["threshold"])
    assert ORACLE.check(op, ("value", report))[0]
    report.ks_distance = 2.5 * ref["threshold"]
    assert not ORACLE.check(op, ("value", report))[0]
    report.ks_distance, report.moment_source = 0.1, "monte_carlo"
    assert not ORACLE.check(op, ("value", report))[0]


def test_host_scale_uses_the_tenth_percentile_probe():
    probes = [0.001 * k for k in range(20, 0, -1)]
    assert hostspeed.scale(probes) == hostspeed.REFERENCE_S / 0.002
    assert hostspeed.probe() > 0
