"""Reference-checked benchmark of wfgcpe: one workload per run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {mc_simulate,quad_battery,cli_estimate}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

The benchmark generates the workload's inputs and their independent
references from ``--seed``, then starts a worker process that imports
``wfgcpe`` from ``src/`` and runs whole passes over the operations for
``--seconds`` seconds, one call at a time. Every outcome is checked (see
``oracle.py``). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run is split between an untraced and a traced worker and the metrics
are the per-layer ones plus the tracing overhead. End-to-end times are
scaled to a reference host speed (see ``hostspeed.py``); the ``#`` lines
give the raw figures too. ``correct`` is true when
every failed operation is one of the known baseline failures listed in
``baseline.json``. Per-operation outcomes (and, when tracing, the spans)
are written under ``.bench_out/``. The exit code is nonzero, with no
result line, when the checks cannot run, e.g. without ``src/wfgcpe``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

#: Setup is measured in this many fresh processes besides the timed one,
#: half before the timed run and half after it; ``setup_s`` is the minimum.
#: Import time is CPU-bound, and other tenants of the host slow it by up to
#: 1.6x for tens of seconds at a time. Processes spread over the whole run
#: usually catch a fast moment, so their minimum varies far less between
#: runs than their median.
SETUP_PROBES = 6

#: Operations left beyond ``op_tail_ms`` (see ``pass_stats``).
TAIL_BEYOND = 2

#: A worker that outlives its run by this long is killed as hung.
WORKER_GRACE_S = 150

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
         "op_tail_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark cannot produce a checked result."""


def run_worker(spec, workdir, name):
    spec_path = os.path.join(workdir, f"{name}.spec.json")
    out_path = os.path.join(workdir, f"{name}.out.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
             out_path], capture_output=True, text=True,
            timeout=spec["seconds"] + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {name} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {name} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    with open(out_path) as fh:
        return json.load(fh)


def pass_stats(passes, scale=1.0):
    """Rate, median and tail of the operations' best-of-run latencies,
    each multiplied by ``scale``.

    Each operation's latency is its minimum over the run's passes. Other
    tenants of the host slow this machine by 1.6x to 4x for tens of seconds
    at a time, and that interference only ever adds time, so the minimum
    over many repeats is the steadiest estimate of what the code costs.

    The tail is taken over every (pass, operation) sample, each at its
    operation's best-of-run latency: it is the latency of the third-slowest
    operation, which leaves the two slowest operations' samples beyond it.
    Every workload makes at least five passes in a 30 s run, so that is at
    least ten samples. The rank is fixed rather than derived from the pass
    count, because the count varies between runs and a rank that follows
    it jumps between operations. Over the raw samples the tail lands in the
    slow periods and varies by half its value between runs.
    """
    n, p = len(passes[0]["latencies"]), len(passes)
    best = sorted(scale * min(q["latencies"][i] for q in passes)
                  for i in range(n))
    rank = max(n - 1 - TAIL_BEYOND, 0)
    return {"ops_per_s": n / sum(best),
            "op_p50_ms": statistics.median(best) * 1e3,
            "op_tail_ms": best[rank] * 1e3,
            "tail_percentile": 100 * (rank + 1) / n,
            "samples": n * p, "beyond": (n - 1 - rank) * p,
            "ops_per_pass": n, "passes": p}


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run kills the worker and the finally
    # below removes the work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "wfgcpe",
                                       "__init__.py")):
        print("error: run from a checkout holding src/wfgcpe",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".bench_out")
    workdir = os.path.join(root, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(out_dir, exist_ok=True)
    try:
        result = bench(args, root, out_dir, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def bench(args, root, out_dir, workdir):
    cache = os.path.join(out_dir, "cache")
    reference.load_cache(cache)
    t0 = time.perf_counter()
    ops = workloads.build(args.workload, args.seed, args.size, workdir)
    reference.save_cache(cache)
    print(f"# {args.workload} seed={args.seed} size={args.size}: "
          f"{len(ops)} operations per pass, inputs and references in "
          f"{time.perf_counter() - t0:.2f} s")

    spec = {"root": root, "ops": ops, "mode": "run",
            "trace": False, "seconds": args.seconds,
            "trace_out": os.path.join(
                out_dir, f"spans-{args.workload}-seed{args.seed}.json")}
    if args.trace:
        spec["seconds"] = args.seconds / 2
        runs = [run_worker(spec, workdir, "untraced"),
                run_worker(dict(spec, trace=True), workdir, "traced")]
        metrics = traced_metrics(*runs)
    else:
        def setup(i):
            return run_worker(dict(spec, mode="setup"), workdir, f"setup{i}")

        setups = [setup(i) for i in range(SETUP_PROBES // 2)]
        runs = [run_worker(spec, workdir, "timed")]
        setups.append(runs[0])
        setups += [setup(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
        probes = [p for s in setups for p in s["probes"]]
        scale = hostspeed.scale(probes)
        raw = pass_stats(runs[0]["passes"])
        stats = pass_stats(runs[0]["passes"], scale)
        setup_raw = min(s["setup_s"] for s in setups)
        metrics = {"setup_s": scale * setup_raw}
        metrics.update({k: stats[k] for k in
                        ("ops_per_s", "op_p50_ms", "op_tail_ms")})
        metrics["peak_rss_mb"] = runs[0]["peak_rss_mb"]
        print(f"# {stats['passes']} passes of {stats['ops_per_pass']} "
              f"operations; op_tail_ms is the p{stats['tail_percentile']:.1f} "
              f"of {stats['samples']} samples at their operation's best, "
              f"{stats['beyond']} beyond it; "
              f"setup samples {[round(s['setup_s'], 4) for s in setups]}")
        print(f"# host probe best {min(probes) * 1e3:.2f} ms, median "
              f"{statistics.median(probes) * 1e3:.2f} ms over {len(probes)}; "
              f"times scaled by {scale:.4f} to a reference p10 of "
              f"{hostspeed.REFERENCE_S * 1e3:.2f} ms; raw setup_s "
              f"{setup_raw:.4f} s, ops_per_s {raw['ops_per_s']:.4g} 1/s, "
              f"op_p50_ms {raw['op_p50_ms']:.4g} ms, op_tail_ms "
              f"{raw['op_tail_ms']:.4g} ms")

    passes = [p for r in runs for p in r["passes"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    if not args.trace:
        metrics["ok_ratio"] = (attempted - len(failures)) / attempted
        metrics = {k: metric(v, UNITS[k]) for k, v in metrics.items()}

    with open(os.path.join(HERE, "baseline.json")) as fh:
        expected = set(json.load(fh)["known_failures"][args.workload])
    failed_ids = {f[0] for f in failures}
    unexpected = sorted(failed_ids - expected)
    with open(os.path.join(out_dir, f"outcomes-{args.workload}-seed"
                           f"{args.seed}.json"), "w") as fh:
        json.dump({"ops": [op["id"] for op in ops], "passes": passes,
                   "probes": [r["probes"] for r in runs],
                   "unexpected": unexpected}, fh)
    for op_id, detail in sorted({f[0]: f[1] for f in failures}.items()):
        mark = "UNEXPECTED" if op_id in unexpected else "known"
        print(f"# failed ({mark}) {op_id}: {detail}")
    print(f"# fail_ratio {len(failures)}/{attempted} = "
          f"{len(failures) / attempted:.4f}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not unexpected, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


#: Units and directions of the per-layer metrics (see README.md).
LAYER_UNITS = {
    "quadrature.calls": "count", "quadrature.busy_s": "s",
    "quadrature.integrand_evals": "count",
    "quadrature.subdivisions": "count", "quadrature.nonconvergence": "count",
    "measures.calls": "count", "measures.self_s": "s",
    "measures.closed_form_ratio": "ratio",
    "distributions.calls": "count", "distributions.elements": "count",
    "distributions.busy_s": "s",
    "weights.calls": "count", "weights.elements": "count",
    "weights.busy_s": "s",
    "analysis.simulate_s": "s", "analysis.self_s": "s",
    "analysis.draws": "count", "analysis.bound_suite_s": "s",
    "analysis.check_order_s": "s",
    "empirical.load_s": "s", "empirical.estimate_s": "s",
    "empirical.export_s": "s", "empirical.observations": "count",
    "cli.calls": "count", "cli.self_s": "s",
    "trace.pass_s": "s", "trace.ops_per_s": "1/s", "trace.overhead": "ratio",
}


def traced_metrics(untraced, traced):
    """Per-pass medians of the layer metrics, and the tracing overhead as
    the untraced over the traced operation rate, each at the reference
    host speed."""
    layers = [p["layers"] for p in traced["passes"]]
    out = {k: statistics.median(l[k] for l in layers) for k in layers[0]}
    plain = pass_stats(untraced["passes"],
                       hostspeed.scale(untraced["probes"]))["ops_per_s"]
    rate = pass_stats(traced["passes"],
                      hostspeed.scale(traced["probes"]))["ops_per_s"]
    out["trace.pass_s"] = sum(sum(p["latencies"]) for p in traced["passes"]) \
        / len(traced["passes"])
    out["trace.ops_per_s"] = rate
    out["trace.overhead"] = plain / rate
    return {k: metric(v, LAYER_UNITS[k]) for k, v in out.items()}


if __name__ == "__main__":
    sys.exit(main())
