"""Bit-identity of every quadrature-backed measure on a fixed grid.

``tests/golden/quadrature_grid.json`` maps each cell to the ``repr`` of its
value, or to the class name of the typed error it raises. A change to an
integrand's arithmetic, guard or binding that moves any value by one ulp
shows here. Regenerate the file only for a change meant to move values:

    PYTHONPATH=src python tests/test_golden_quadrature.py

which prints how many cells moved per measure and family, the largest
relative move, and every cell whose kind changed (a value against a typed
error, another error, or other bound names).
"""

import json
import pathlib
from collections import Counter

import scipy.integrate

import wfgcpe
from wfgcpe import quadrature
from wfgcpe.errors import WfgcpeError
from wfgcpe.weights import BUILTIN_WEIGHTS

GRID_FILE = (pathlib.Path(__file__).resolve().parent / "golden"
             / "quadrature_grid.json")

GAMMAS = (0.25, 0.5, 1.0, 1.5, 2.75)


def _families():
    """The quadrature families of the benchmark's ``quad_battery``, plus
    a custom model that declares no logs (K = x^2 on (0, 1))."""
    power = wfgcpe.make_power(1.0, 2.0)
    return {
        "power": power,
        "uniform_shifted": wfgcpe.make_uniform_shifted(0.5),
        "frechet": wfgcpe.make_frechet(1.0, 4.0),
        "weibull_square": wfgcpe.make_weibull_square(1.0),
        "exponential": wfgcpe.make_exponential(1.0),
        "prh": wfgcpe.prh_transform(power, 1.5),
        "custom": wfgcpe.make_custom(lambda x: min(max(x, 0.0), 1.0) ** 2,
                                     lambda x: 2.0 * x if 0 < x < 1 else 0.0,
                                     lambda u: u ** 0.5, (0.0, 1.0)),
    }


def _cell(fn):
    try:
        return repr(float(fn()))
    except WfgcpeError as exc:
        return type(exc).__name__


def _reports(fn):
    """``lhs``/``rhs`` of each ``CheckReport``, or the typed error."""
    try:
        reports = fn()
    except WfgcpeError as exc:
        return type(exc).__name__
    return [[r.name, repr(float(r.lhs)), repr(float(r.rhs))]
            for r in reports]


def grid_values() -> dict:
    fam = _families()
    w = {name: make() for name, make in BUILTIN_WEIGHTS.items()}
    out = {}
    for f in ("power", "uniform_shifted", "frechet", "weibull_square",
              "exponential", "prh"):
        for name, psi in w.items():
            for g in GAMMAS:
                out[f"wfgcpe/{f}/{name}/{g}"] = _cell(
                    lambda: wfgcpe.wfgcpe(fam[f], psi, g,
                                          method="quadrature").value)
    for name, psi in w.items():
        for g in (0.5, 1.5):
            out[f"wfgcpe/custom/{name}/{g}"] = _cell(
                lambda: wfgcpe.wfgcpe(fam["custom"], psi, g).value)
    for f in ("power", "uniform_shifted", "frechet", "weibull_square",
              "exponential", "custom"):
        for name in ("one", "x", "sqrtx", "expneg"):
            for g in (0.5, 1.5):
                out[f"wfgcre/{f}/{name}/{g}"] = _cell(
                    lambda: wfgcpe.wfgcre(fam[f], w[name], g))
    for f, u in (("power", 0.4), ("weibull_square", 0.7),
                 ("exponential", 1.3), ("frechet", 2.0), ("custom", 0.2)):
        for name in ("one", "x", "expneg"):
            for g in (0.5, 2.75):
                out[f"tau/{f}/{name}/{g}/{u}"] = _cell(
                    lambda: wfgcpe.tau(fam[f], w[name], g, u))
    for f, t in (("power", 0.6), ("uniform_shifted", 1.2),
                 ("weibull_square", 1.1), ("exponential", 2.5),
                 ("frechet", 1.4), ("prh", 0.8), ("custom", 0.7)):
        for name in ("x", "x2", "sqrtx"):
            for g in (0.25, 1.5):
                out[f"dynamic/{f}/{name}/{g}/{t}"] = _cell(
                    lambda: wfgcpe.dynamic_wfgcpe(fam[f], w[name], g, t))
    for f in ("power", "weibull_square", "exponential", "custom"):
        for name in ("x", "x2", "expneg"):
            for g in (0.5, 2.75):
                out[f"affine/{f}/{name}/{g}"] = _cell(
                    lambda: wfgcpe.affine_wfgcpe(fam[f], w[name], g, 1.7,
                                                 0.4))
    for f in ("power", "uniform_shifted", "weibull_square", "exponential",
              "frechet", "custom"):
        for name in ("one", "x", "sqrtx", "expneg"):
            for g in (0.5, 2.75):
                out[f"bound_suite/{f}/{name}/{g}"] = _reports(
                    lambda: wfgcpe.bound_suite(fam[f], w[name], g))
    for f, eta in (("power", 1.5), ("power", 0.6), ("weibull_square", 2.0),
                   ("exponential", 0.8)):
        for name in ("one", "x", "x2", "expneg"):
            for n in (1, 2, 3):
                out[f"prh_n_step/{f}/{eta}/{name}/{n}"] = _cell(
                    lambda: wfgcpe.prh_n_step(fam[f], eta, w[name], 1.5, n,
                                              0.3))
    for f in ("frechet", "weibull_square", "exponential", "custom"):
        for name in ("x", "sqrtx", "expneg"):
            out[f"expectation/{f}/{name}"] = _cell(
                lambda: fam[f].expectation(w[name].psi))
    for f, eta in (("power", 1.5), ("frechet", 2.0),
                   ("weibull_square", 2.0), ("exponential", 0.8)):
        for name in ("one", "x", "sqrtx", "expneg"):
            for g in (0.5, 1.5, 2.75):
                for term in ("e_term", "e_tilde_term"):
                    out[f"prh_terms/{f}/{eta}/{name}/{g}/{term}"] = _cell(
                        lambda: getattr(wfgcpe.prh_expectation_terms(
                            fam[f], eta, w[name], g), term))
    for (r1, r2) in ((2.0, 1.0), (1.5, 0.5)):
        for name in ("one", "x", "expneg"):
            for g in (0.5, 1.5):
                out[f"mean_value/{r1}/{r2}/{name}/{g}"] = _reports(
                    lambda: wfgcpe.mean_value_identity(
                        wfgcpe.make_exponential(r1),
                        wfgcpe.make_exponential(r2), w[name], g))
    return out


def test_quadrature_grid_is_bit_identical():
    expected = json.loads(GRID_FILE.read_text(encoding="utf-8"))
    got = grid_values()
    assert got.keys() == expected.keys()
    moved = {k: (expected[k], v) for k, v in got.items() if v != expected[k]}
    assert not moved


def test_quadpack_runs_stay_far_inside_the_subdivision_budget(monkeypatch):
    # traffic that outgrows MAX_SUBDIVISIONS fails here, before it shows
    # as a NonConvergence in a benchmark pass
    lasts = []
    real = scipy.integrate.quad

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        lasts.append(int(out[2]["last"]))
        return out

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    grid_values()
    assert lasts and max(lasts) <= quadrature.MAX_SUBDIVISIONS / 30


def _kind(cell):
    """``"value"``, a report's bound names, or the typed error's name."""
    if isinstance(cell, list):
        return [name for name, _, _ in cell]
    try:
        float(cell)
    except (TypeError, ValueError):
        return cell
    return "value"


def _numbers(cell) -> list:
    if isinstance(cell, list):
        return [float(v) for _, lhs, rhs in cell for v in (lhs, rhs)]
    return [float(cell)]


def describe_moves(old: dict, new: dict) -> list:
    """Lines on how ``new`` differs from ``old``: moved cells per measure
    and family, the largest relative move among cells of the same kind,
    and each cell whose kind changed or that only one grid has."""
    moved, changed, worst = Counter(), [], (0.0, None)
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        measure, family = key.split("/")[:2]
        if measure == "mean_value":  # its keys name the two rates
            family = "exponential"
        moved[measure, family] += 1
        if key not in old or key not in new or _kind(a) != _kind(b):
            changed.append(f"  {key}: {a} -> {b}")
            continue
        rel = max(abs(v - u) / abs(u) if u else abs(v)
                  for u, v in zip(_numbers(a), _numbers(b)))
        worst = max(worst, (rel, key))
    lines = [f"{sum(moved.values())} of {len(new)} cells moved"]
    lines += [f"  {m}/{f}: {n}" for (m, f), n in sorted(moved.items())]
    if worst[1] is not None:
        lines.append(f"largest relative move {worst[0]:.3g} at {worst[1]}")
    lines.append(f"{len(changed)} cells changed kind")
    return lines + changed


def test_describe_moves_reports_counts_largest_move_and_kind_changes():
    old = {"wfgcpe/frechet/x/0.5": "1.0", "tau/power/x/0.5/0.4": "2.0",
           "mean_value/2.0/1.0/x/0.5": [["identity", "1.0", "3.0"]],
           "wfgcre/exponential/x/0.5": "NonConvergence"}
    new = {"wfgcpe/frechet/x/0.5": "1.5", "tau/power/x/0.5/0.4": "2.0",
           "mean_value/2.0/1.0/x/0.5": [["identity", "1.0", "3.3"]],
           "wfgcre/exponential/x/0.5": "0.25"}
    assert describe_moves(old, new) == [
        "3 of 4 cells moved",
        "  mean_value/exponential: 1",
        "  wfgcpe/frechet: 1",
        "  wfgcre/exponential: 1",
        "largest relative move 0.5 at wfgcpe/frechet/x/0.5",
        "1 cells changed kind",
        "  wfgcre/exponential/x/0.5: NonConvergence -> 0.25",
    ]


if __name__ == "__main__":
    before = (json.loads(GRID_FILE.read_text(encoding="utf-8"))
              if GRID_FILE.exists() else {})
    after = grid_values()
    GRID_FILE.write_text(json.dumps(after, indent=1) + "\n",
                         encoding="utf-8")
    print("\n".join(describe_moves(before, after)))
