"""Seeded operation lists for the three workloads, with their references.

An operation is one public ``wfgcpe`` call (or one ``wfgcpe.cli.main``
call), described as plain JSON data: ``{"id", "kind", "args", "ref"}``.
The worker process turns each into a call; ``oracle.check`` compares the
outcome with ``ref``. Every reference comes from ``reference`` and never
from the library under test.

Workload choice (see README.md): ``mc_simulate`` stresses the Monte Carlo
harness and the model/weight callables without quadrature, ``quad_battery``
stresses scalar quadrature and the measures without Monte Carlo, and
``cli_estimate`` stresses file parsing, the estimator and the CLI without
either.
"""

from __future__ import annotations

import math
import os

import numpy as np

import reference as R

WORKLOADS = ("mc_simulate", "quad_battery", "cli_estimate")

#: The builtin weights, in the CLI's naming.
WEIGHTS = ("one", "x", "x2", "sqrtx", "expneg")

#: Published Table 3 cells (empirical entropy of the 43 blood-cancer
#: lifetimes), keyed by (gamma, weight).
TABLE3_PUBLISHED = {
    (0.25, "sqrtx"): 24004.3, (0.25, "x"): 881460.0, (0.25, "x2"): 1.27542e9,
    (0.5, "sqrtx"): 20065.8, (0.5, "x"): 707724.0, (0.5, "x2"): 9.59358e8,
    (0.75, "sqrtx"): 16858.4, (0.75, "x"): 570814.0, (0.75, "x2"): 7.23578e8,
    (1.5, "sqrtx"): 10279.3, (1.5, "x"): 309581.0, (1.5, "x2"): 3.22149e8,
    (2.75, "sqrtx"): 4489.63, (2.75, "x"): 114320.0, (2.75, "x2"): 8.89639e7,
}

#: The published listing, in published order (entry 15999 breaks the order;
#: the corrected reading replaces it by 1599).
BLOOD_CANCER_LITERAL = (
    115, 181, 255, 418, 441, 461, 516, 739, 743, 789, 807, 865, 924, 983,
    1024, 1062, 1063, 1165, 1191, 1222, 1222, 1251, 1277, 1290, 1357, 1369,
    1408, 1455, 1478, 1549, 1578, 1578, 15999, 1603, 1605, 1696, 1735, 1799,
    1815, 1852, 1899, 1925, 1965,
)


def _op(op_id, kind, args, ref):
    return {"id": op_id, "kind": kind, "args": args, "ref": ref}


def _u(rng, lo, hi):
    """A seeded parameter, rounded so that ids and argv stay readable."""
    return round(float(rng.uniform(lo, hi)), 3)


# ---------------------------------------------------------------------------
# mc_simulate
# ---------------------------------------------------------------------------

MC_GAMMAS = (0.25, 0.5, 0.75, 1.5)

MC_SIZES = {
    # small-n simulate calls: (sizes, calls per size, replicates)
    "full": {"small": ((5, 10, 15), 8, 2000),
             "profile": ((100, 1000, 10000), 200),
             "clt": (500, 2000)},
    "tiny": {"small": ((5, 10), 1, 200),
             "profile": ((50, 200), 50),
             "clt": (200, 300)},
}


def mc_simulate(seed, size):
    rng = np.random.default_rng([seed, 1])
    cfg = MC_SIZES[size]
    seeds = iter(int(s) for s in rng.integers(0, 2 ** 31, 1000))
    ops = []
    sizes, per_size, reps = cfg["small"]
    for i in range(per_size):
        for n in sizes:
            ref = {str(g): R.moments_power_square(n, g) for g in MC_GAMMAS}
            ops.append(_op(f"simulate/power_square/n{n}/{i}", "simulate",
                           {"n": n, "replicates": reps, "seed": next(seeds),
                            "gammas": list(MC_GAMMAS)},
                           {"moments": ref}))

    sizes, reps = cfg["profile"]
    g = float(rng.choice([0.5, 0.75, 1.5]))
    truth = R.power_cpe(1.0, 2.0, 1, g)
    envelope = {}
    for n in sizes:
        mean, var = R.moments_power_square(n, g)
        envelope[str(n)] = abs(mean - truth) + 4 * math.sqrt(var)
    ops.append(_op("consistency/power_square", "consistency",
                   {"gamma": g, "sizes": list(sizes), "replicates": reps,
                    "seed": next(seeds)},
                   {"envelope": envelope}))

    n, reps = cfg["clt"]
    threshold = 1.36 / math.sqrt(reps) * 1.5
    for weight, source in (("x", "exact_weibull"),
                           ("self_density", "exact_self_weight")):
        g = float(rng.choice([0.5, 0.75, 1.5]))
        ops.append(_op(f"clt/weibull/{weight}", "clt",
                       {"weight": weight, "n": n, "replicates": reps,
                        "seed": next(seeds), "gamma": g},
                       {"source": source, "threshold": threshold}))
    return ops


# ---------------------------------------------------------------------------
# quad_battery
# ---------------------------------------------------------------------------

QUAD_GAMMAS = (0.25, 0.5, 1.0, 1.5, 2.75)

#: Family x parameters of the wfgcpe(method="quadrature") grid.
QUAD_FAMILIES = (
    ("power", {"b": 1.0, "c": 2.0}),
    ("uniform_shifted", {"a": 0.5}),
    ("frechet", {"b": 1.0, "c": 4.0}),
    ("weibull_square", {"theta": 1.0}),
    ("exponential", {"rate": 1.0}),
    ("prh", {"b": 1.0, "c": 2.0, "eta": 1.5}),
)

QUAD_SIZES = {
    "full": {"families": QUAD_FAMILIES, "weights": WEIGHTS,
             "gammas": QUAD_GAMMAS, "extra": 4},
    "tiny": {"families": (QUAD_FAMILIES[0], QUAD_FAMILIES[2]),
             "weights": ("x", "x2"), "gammas": (0.25, 1.5), "extra": 1},
}


def _power_params(rng):
    return {"b": _u(rng, 0.5, 2.0), "c": _u(rng, 1.0, 4.0)}


def quad_battery(seed, size):
    rng = np.random.default_rng([seed, 2])
    cfg = QUAD_SIZES[size]
    ops = []
    for family, params in cfg["families"]:
        for w in cfg["weights"]:
            for g in cfg["gammas"]:
                ops.append(_op(f"cell/{family}/{w}/{g}", "cell",
                               {"family": family, "params": params,
                                "weight": w, "gamma": g},
                               {"value": R.cpe_reference(family, params,
                                                         w, g)}))

    k = cfg["extra"]
    powers = R.WEIGHT_POWER
    for i in range(k):
        pp = _power_params(rng)
        w = ("one", "x", "x2")[i % 3]
        g = float(rng.choice(QUAD_GAMMAS))
        p = powers[w]
        gg = math.gamma(g + 1)
        value = (R.power_cpe(pp["b"], pp["c"], p, g)
                 / (gg * R.power_cpe(pp["b"], pp["c"], p, 1.0) ** g))
        ops.append(_op(f"normalized/{i}", "normalized",
                       {"family": "power", "params": pp, "weight": w,
                        "gamma": g}, {"value": value}))

    for i in range(2 * k):
        g = float(rng.choice(QUAD_GAMMAS))
        w = ("one", "x", "x2", "sqrtx")[i % 4]
        p = R.WEIGHT_POWER[w]
        if i % 2:
            params = {"rate": _u(rng, 0.5, 2.0)}
            fam, value = "exponential", R.exponential_cre(params["rate"], p, g)
        else:
            params = {"theta": _u(rng, 0.5, 2.0)}
            fam, value = "weibull_square", R.weibull_cre(params["theta"], p, g)
        ops.append(_op(f"wfgcre/{fam}/{i}", "wfgcre",
                       {"family": fam, "params": params, "weight": w,
                        "gamma": g}, {"value": value}))

    for i in range(k):
        pp = _power_params(rng)
        w = ("one", "x", "x2")[i % 3]
        g = float(rng.choice(QUAD_GAMMAS))
        t = round(pp["b"] * _u(rng, 0.3, 0.9), 3)
        ops.append(_op(f"dynamic/{i}", "dynamic",
                       {"family": "power", "params": pp, "weight": w,
                        "gamma": g, "t": t},
                       {"value": R.power_cpe(t, pp["c"], powers[w], g)}))

    for i in range(k):
        pp = _power_params(rng)
        w = ("x", "x2")[i % 2]
        g = float(rng.choice(QUAD_GAMMAS))
        a, shift = _u(rng, 0.5, 2.0), _u(rng, 0.0, 1.0)
        value = R.power_affine_cpe(pp["b"], pp["c"], powers[w], g, a, shift)
        ops.append(_op(f"affine/{i}", "affine",
                       {"family": "power", "params": pp, "weight": w,
                        "gamma": g, "a": a, "shift": shift},
                       {"value": value}))

    for i in range(k):
        pp = _power_params(rng)
        w = ("one", "x", "x2", "sqrtx")[i % 4]
        p = R.WEIGHT_POWER[w]
        g = float(rng.choice(QUAD_GAMMAS))
        ops.append(_op(f"bound_suite/{i}", "bound_suite",
                       {"family": "power", "params": pp, "weight": w,
                        "gamma": g},
                       {"cpe": R.power_cpe(pp["b"], pp["c"], p, g),
                        "rhs_a": R.power_one_minus_cdf_bound(
                            pp["b"], pp["c"], p, g)}))

    for i in range(k):
        pp = _power_params(rng)
        eta = _u(rng, 0.5, 3.0)
        w = ("one", "x", "x2")[i % 3]
        g = float(rng.choice(QUAD_GAMMAS))
        steps = 1 + i % 3
        c2 = pp["c"] * eta
        ops.append(_op(f"prh_n_step/{i}", "prh_n_step",
                       {"family": "power", "params": pp, "weight": w,
                        "gamma": g, "eta": eta, "n": steps,
                        "prior": R.power_cpe(pp["b"], c2, powers[w], g)},
                       {"value": R.power_cpe(pp["b"], c2, powers[w],
                                             g + steps)}))

    # Exponential rates: X1 <= X2 in the st, hr and disp orders exactly
    # when rate1 >= rate2; the factor keeps every verdict clear of the
    # verifier's grid tolerance.
    for i in range(2 * k):
        r1 = _u(rng, 0.5, 2.0)
        r2 = round(r1 * (1.5 if i % 2 else 1 / 1.5), 3)
        for rel in ("st", "hr", "disp")[:(3 if size == "full" else 1)]:
            ops.append(_op(f"check_order/{rel}/{i}", "check_order",
                           {"rates": [r1, r2], "relation": rel},
                           {"status": "holds_on_grid" if r1 >= r2
                            else "violated"}))
    return ops


# ---------------------------------------------------------------------------
# cli_estimate
# ---------------------------------------------------------------------------

CLI_SIZES = {
    # observations per generated file, and how many small files. A pass
    # takes about 1 s, so a 30 s run times each operation 20 to 30 times;
    # a 10^6 file made passes of 2 to 3.5 s, and ten samples of each
    # operation were too few for a steady best-of-run latency.
    "full": {"large": 250_000, "medium": 50_000, "small": 10_000,
             "n_small": 3, "computes": 30},
    "tiny": {"large": 3000, "medium": 1000, "small": 200,
             "n_small": 1, "computes": 3},
}

#: The --weight-custom table used on the medium file: (knots, values).
CUSTOM_TABLE = ((0.0, 1.0, 2.5, 5.0), (1.0, 2.0, 2.5, 3.0))


def _write_lifetimes(rng, path, n):
    """Seeded Weibull lifetimes (in years), one per line, unsorted."""
    shape, scale = _u(rng, 1.2, 2.5), _u(rng, 1.0, 3.0)
    values = scale * rng.weibull(shape, n)
    with open(path, "w") as fh:
        fh.write(f"# {n} generated lifetimes, shape {shape}, scale {scale}\n")
        fh.write("\n".join(map(repr, values.tolist())))
        fh.write("\n")
    return values


def _estimate_op(op_id, path, values, weight, g, export=None):
    argv = ["estimate", "--input", path, "--gamma", repr(g),
            "--format", "json"]
    if weight == "custom":
        table = ";".join(f"{x}:{y}" for x, y in zip(*CUSTOM_TABLE))
        argv += ["--weight-custom", table]
        value = R.estimate(values, g, table=CUSTOM_TABLE)
    else:
        argv += ["--weight", weight]
        value = R.estimate(values, g, tag=weight)
    ref = {"value": value, "n": int(values.size)}
    if export:
        argv += ["--export", export]
        ref["export"] = export
        ref["sorted_sum"] = float(np.sort(values).sum())
    return _op(op_id, "cli_estimate", {"argv": argv}, ref)


def _compute_op(i, rng):
    dist = ("power", "uniform", "frechet")[i % 3]
    w = ("one", "x", "x2")[(i // 3) % 3]
    p = R.WEIGHT_POWER[w]
    g = float(rng.choice(QUAD_GAMMAS))
    argv = ["compute", "--dist", dist, "--weight", w, "--format", "json"]
    if dist == "power":
        b, c = _u(rng, 0.5, 2.0), _u(rng, 1.0, 4.0)
        argv += ["--b", repr(b), "--c", repr(c)]
        value = R.power_cpe(b, c, p, g)
    elif dist == "uniform":
        a = _u(rng, 0.0, 2.0)
        argv += ["--a", repr(a)]
        value = R.uniform_cpe(a, p, g)
    else:
        b, c = _u(rng, 0.5, 2.0), _u(rng, 2.0, 6.0)
        g = round((p + 1) / c + _u(rng, 0.2, 2.0), 3)
        argv += ["--b", repr(b), "--c", repr(c)]
        value = R.frechet_cpe(b, c, p, g)
    argv += ["--gamma", repr(g)]
    return _op(f"compute/{dist}/{i}", "cli_compute", {"argv": argv},
               {"value": value})


def cli_estimate(seed, size, workdir):
    """Writes the seeded lifetime files into ``workdir``."""
    rng = np.random.default_rng([seed, 3])
    cfg = CLI_SIZES[size]
    gam = lambda: float(rng.choice(QUAD_GAMMAS))  # noqa: E731
    ops = []

    path = os.path.join(workdir, "large.txt")
    values = _write_lifetimes(rng, path, cfg["large"])
    ops.append(_estimate_op("estimate/large/x", path, values, "x", gam()))

    path = os.path.join(workdir, "medium.txt")
    values = _write_lifetimes(rng, path, cfg["medium"])
    ops.append(_estimate_op("estimate/medium/sqrtx+export", path, values,
                            "sqrtx", gam(),
                            export=os.path.join(workdir, "medium.out")))
    ops.append(_estimate_op("estimate/medium/custom", path, values,
                            "custom", gam()))

    for j in range(cfg["n_small"]):
        path = os.path.join(workdir, f"small{j}.txt")
        values = _write_lifetimes(rng, path, cfg["small"])
        for w in WEIGHTS:
            export = (os.path.join(workdir, f"small{j}.out")
                      if w == "x2" else None)
            ops.append(_estimate_op(f"estimate/small{j}/{w}", path, values,
                                    w, gam(), export=export))

    corrected = [1599 if x == 15999 else x for x in BLOOD_CANCER_LITERAL]
    cells = {}
    for (g, w), published in TABLE3_PUBLISHED.items():
        cells[f"corrected/{g}/{w}"] = [R.estimate(corrected, g, tag=w),
                                       published]
        cells[f"literal/{g}/{w}"] = [R.estimate(BLOOD_CANCER_LITERAL, g,
                                                tag=w), published]
    ops.append(_op("reproduce/table3/both", "cli_table3",
                   {"argv": ["reproduce", "--table", "3", "--reading",
                             "both", "--format", "json"]},
                   {"cells": cells}))

    table4 = {f"{g}/{n}": R.published_table4_moments(n, g)
              for g in (0.25, 0.5, 0.75, 1.5) for n in (5, 10, 15, 30, 50)}
    ops.append(_op("reproduce/table4", "cli_table4",
                   {"argv": ["reproduce", "--table", "4", "--format",
                             "json"]},
                   {"cells": table4}))

    ops.extend(_compute_op(i, rng) for i in range(cfg["computes"]))
    return ops


def build(workload, seed, size, workdir):
    if workload == "mc_simulate":
        return mc_simulate(seed, size)
    if workload == "quad_battery":
        return quad_battery(seed, size)
    if workload == "cli_estimate":
        return cli_estimate(seed, size, workdir)
    raise KeyError(workload)
