"""The workload process: imports ``wfgcpe``, builds the operations of a
spec file and runs them in a single-caller closed loop.

Run by ``run.py`` as ``python3 worker.py SPEC OUT``. In ``setup`` mode it
only imports and builds, and reports how long that took and a few host
probes (see ``hostspeed.py``). Otherwise it runs whole passes over the
operation list until ``seconds`` have gone by, times each call, checks each
outcome with the oracle outside the timed region, runs a host probe
between calls every ``hostspeed.EVERY_S`` seconds, and writes latencies,
outcomes, probe times, peak RSS and (when tracing) per-layer metrics to
``OUT``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def build_calls(ops):
    """Turn operation specs into zero-argument callables."""
    import wfgcpe
    from wfgcpe import cli, weights

    def model(family, params):
        if family == "power":
            return wfgcpe.make_power(params["b"], params["c"])
        if family == "uniform_shifted":
            return wfgcpe.make_uniform_shifted(params["a"])
        if family == "frechet":
            return wfgcpe.make_frechet(params["b"], params["c"])
        if family == "weibull_square":
            return wfgcpe.make_weibull_square(params["theta"])
        if family == "exponential":
            return wfgcpe.make_exponential(params["rate"])
        if family == "prh":
            return wfgcpe.prh_transform(
                wfgcpe.make_power(params["b"], params["c"]), params["eta"])
        raise KeyError(family)

    def weight(tag):
        return weights.BUILTIN_WEIGHTS[tag]()

    power_square = wfgcpe.make_power(1.0, 2.0)
    weibull = wfgcpe.make_weibull_square(1.0)

    def one(op):
        a, kind = op["args"], op["kind"]
        if kind.startswith("cli_"):
            return lambda argv=a["argv"]: _cli(cli.main, argv)
        if kind == "simulate":
            cfg = wfgcpe.SimulationConfig(a["replicates"], a["n"], a["seed"],
                                          power_square, wfgcpe.weight_x(),
                                          a["gammas"][0])
            return lambda: wfgcpe.simulate_estimator(cfg, a["gammas"])
        if kind == "consistency":
            w = wfgcpe.weight_x()
            return lambda: wfgcpe.consistency_profile(
                power_square, w, a["gamma"], a["sizes"], a["replicates"],
                a["seed"])
        if kind == "clt":
            w = (wfgcpe.weight_x() if a["weight"] == "x"
                 else wfgcpe.self_density_weight(weibull))
            cfg = wfgcpe.SimulationConfig(a["replicates"], a["n"], a["seed"],
                                          weibull, w, a["gamma"])
            return lambda: wfgcpe.clt_diagnostic(cfg)
        if kind == "check_order":
            m1, m2 = (wfgcpe.make_exponential(r) for r in a["rates"])
            return lambda: wfgcpe.check_order(m1, m2, a["relation"])
        m, w = model(a["family"], a["params"]), weight(a["weight"])
        g = a["gamma"]
        if kind == "cell":
            return lambda: wfgcpe.wfgcpe(m, w, g, method="quadrature")
        if kind == "normalized":
            return lambda: wfgcpe.normalized_wfgcpe(m, w, g)
        if kind == "wfgcre":
            return lambda: wfgcpe.wfgcre(m, w, g)
        if kind == "dynamic":
            return lambda: wfgcpe.dynamic_wfgcpe(m, w, g, a["t"])
        if kind == "affine":
            return lambda: wfgcpe.affine_wfgcpe(m, w, g, a["a"], a["shift"])
        if kind == "bound_suite":
            return lambda: wfgcpe.bound_suite(m, w, g)
        if kind == "prh_n_step":
            return lambda: wfgcpe.prh_n_step(m, a["eta"], w, g, a["n"],
                                             a["prior"])
        raise KeyError(kind)

    return [one(op) for op in ops]


def _cli(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return "cli", code, out.getvalue()


def run_op(call, is_cli, typed_error):
    """Time one call; return ``(seconds, outcome)``."""
    t0 = time.perf_counter()
    try:
        result = call()
        outcome = result if is_cli else ("value", result)
    except typed_error as exc:
        outcome = ("typed", type(exc).__name__)
    except Exception as exc:  # a raw exception is a failed operation
        outcome = ("raw", f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, outcome


def main(spec_path, out_path):
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import wfgcpe
    from wfgcpe.quadrature import DEFAULT_ABS_TOL, DEFAULT_REL_TOL

    sys.path.insert(0, HERE)
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    calls = build_calls(spec["ops"])
    setup_s = time.perf_counter() - t0

    import hostspeed
    if spec["mode"] == "setup":
        with open(out_path, "w") as fh:
            json.dump({"setup_s": setup_s,
                       "probes": [hostspeed.probe() for _ in range(3)]}, fh)
        return

    from oracle import Oracle
    oracle = Oracle(DEFAULT_ABS_TOL, DEFAULT_REL_TOL)

    passes, probes = [], [hostspeed.probe()]
    start = last_probe = time.perf_counter()
    while not passes or time.perf_counter() - start < spec["seconds"]:
        mark = tracer.mark() if tracer else None
        latencies, failed = [], []
        for op, call in zip(spec["ops"], calls):
            if time.perf_counter() - last_probe >= hostspeed.EVERY_S:
                probes.append(hostspeed.probe())
                last_probe = time.perf_counter()
            if tracer:
                tracer.op_id = f"{len(passes)}:{op['id']}"
            seconds, outcome = run_op(call, op["kind"].startswith("cli_"),
                                      wfgcpe.WfgcpeError)
            latencies.append(seconds)
            ok, detail = oracle.check(op, outcome)
            if not ok:
                failed.append([op["id"], detail])
        record = {"latencies": latencies, "failed": failed}
        if tracer:
            tracer.op_id = None
            record["layers"] = tracer.layer_metrics(mark)
        passes.append(record)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w") as fh:
        json.dump({"setup_s": setup_s, "passes": passes, "probes": probes,
                   "peak_rss_mb": peak_kib / 1024.0}, fh)
    if tracer:
        tracer.dump(spec["trace_out"])


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
