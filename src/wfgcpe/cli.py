"""Command-line interface: compute, estimate, simulate, reproduce, bounds.

Reports go to stdout in pretty (6 significant digits), csv, or json form;
diagnostics go to stderr. Exit codes: 0 ok, 2 usage error, 3 data error,
4 quadrature non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .analysis import SimulationConfig, bound_suite, simulate_estimator
from .distributions import (make_exponential, make_frechet, make_power,
                            make_uniform_shifted, make_weibull_square)
from .empirical import (_exact_moments, empirical_wfgcpe,
                        exact_moments_power_square, export_dataset,
                        load_dataset)
from .errors import (ConstraintError, DomainError, NonConvergence, ParseError,
                     ValidationError, WfgcpeError)
from .measures import normalized_wfgcpe, wfgcpe
from .weights import (BUILTIN_WEIGHTS, piecewise_linear_weight,
                      self_density_weight)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NONCONVERGENCE = 4

_TABLE3_GAMMAS = (0.25, 0.5, 0.75, 1.5, 2.75)
_TABLE3_WEIGHTS = ("sqrtx", "x", "x2")
_TABLE12_GAMMAS = (0.25, 0.5, 1.0, 1.5, 2.75)
_TABLE4_GAMMAS = (0.25, 0.5, 0.75, 1.5)
_TABLE4_SIZES = (5, 10, 15, 30, 50)


@dataclass
class ReportDocument:
    rows: list[dict] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, **row):
        self.rows.append(row)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps({"metadata": self.metadata, "rows": self.rows},
                              indent=2, default=_json_default) + "\n"
        if fmt == "csv":
            return self._render_csv()
        return self._render_pretty()

    def _columns(self):
        cols = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def _render_csv(self) -> str:
        import csv

        buf = io.StringIO()
        for key, value in self.metadata.items():
            buf.write(f"# {key}={value}\n")
        writer = csv.DictWriter(buf, fieldnames=self._columns(),
                                restval="")
        writer.writeheader()
        for row in self.rows:
            writer.writerow({k: _full(v) for k, v in row.items()})
        return buf.getvalue()

    def _render_pretty(self) -> str:
        cols = self._columns()
        table = [[_short(row.get(c, "")) for c in cols] for row in self.rows]
        widths = [max(len(c), *(len(r[i]) for r in table)) if table
                  else len(c) for i, c in enumerate(cols)]
        lines = [f"# {k}={v}" for k, v in self.metadata.items()]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cols, widths)))
        for r in table:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _full(v):
    if isinstance(v, float):
        return repr(float(v))
    return v


def _short(v):
    if isinstance(v, float):
        if v != v:
            return "nan"
        return f"{v:.6g}"
    return str(v)


def _weight_from_args(args, model=None):
    if getattr(args, "weight_custom", None):
        knots = []
        for part in args.weight_custom.split(";"):
            x, _, y = part.partition(":")
            try:
                knots.append((float(x), float(y)))
            except ValueError:
                raise DomainError(f"--weight-custom knot {part!r} is not "
                                  "of the form X:Y") from None
        xs, ys = zip(*knots)
        return piecewise_linear_weight(xs, ys)
    if args.weight == "selfdensity":
        if model is None:
            raise DomainError("--weight selfdensity needs a population model")
        return self_density_weight(model)
    try:
        return BUILTIN_WEIGHTS[args.weight]()
    except KeyError:
        raise DomainError(f"unknown weight {args.weight!r}") from None


#: Model of each --dist / --pop choice; ``make_*`` is looked up per call.
_FAMILIES = {
    "power": lambda args: make_power(args.b, args.c),
    "power-square": lambda args: make_power(1.0, 2.0),
    "frechet": lambda args: make_frechet(args.b, args.c),
    "uniform": lambda args: make_uniform_shifted(args.a),
    "weibull-square": lambda args: make_weibull_square(args.theta),
    "exponential": lambda args: make_exponential(args.theta),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfgcpe",
        description="Weighted fractional cumulative past entropy toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("pretty", "csv", "json"),
                       default="pretty")

    def add_dist(p, flag="--dist",
                 choices=("power", "frechet", "uniform", "weibull-square",
                          "exponential")):
        p.add_argument(flag, required=True, choices=choices)
        p.add_argument("--b", type=float, default=1.0)
        p.add_argument("--c", type=float, default=1.0)
        p.add_argument("--a", type=float, default=0.0)
        p.add_argument("--theta", type=float, default=1.0)

    def add_weight(p):
        p.add_argument("--weight", default="one",
                       choices=tuple(BUILTIN_WEIGHTS) + ("selfdensity",))
        p.add_argument("--weight-custom", metavar="X:Y;X:Y;...",
                       help="piecewise-linear weight table (overrides "
                            "--weight)")

    p = sub.add_parser("compute", help="evaluate the entropy of a model")
    add_common(p); add_dist(p); add_weight(p)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--normalized", action="store_true")

    p = sub.add_parser("estimate", help="empirical entropy of a data file")
    add_common(p); add_weight(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV / whitespace-delimited file")
    src.add_argument("--builtin", choices=("blood_cancer_43",))
    p.add_argument("--reading", choices=("literal", "corrected"),
                   default="corrected")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--export", metavar="PATH",
                   help="also write the loaded dataset to PATH")

    p = sub.add_parser("simulate", help="Monte Carlo estimator moments")
    add_common(p); add_weight(p)
    p.set_defaults(weight="x")
    add_dist(p, "--pop",
             ("power-square", "power", "weibull-square", "uniform"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--replicates", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("reproduce", help="re-derive a published table")
    add_common(p)
    p.add_argument("--table", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--reading", choices=("literal", "corrected", "both"),
                   default="both")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("bounds", help="run the bound suite on a model")
    add_common(p); add_dist(p); add_weight(p)
    p.add_argument("--gamma", type=float, required=True)
    return parser


def _cmd_compute(args) -> ReportDocument:
    model = _FAMILIES[args.dist](args)
    weight = _weight_from_args(args, model)
    doc = ReportDocument(metadata=_base_metadata())
    report = wfgcpe(model, weight, args.gamma)
    doc.add(measure="wfgcpe", dist=args.dist, weight=weight.tag,
            gamma=args.gamma, value=report.value, method=report.method)
    if args.normalized:
        doc.add(measure="normalized_wfgcpe", dist=args.dist,
                weight=weight.tag, gamma=args.gamma,
                value=normalized_wfgcpe(model, weight, args.gamma),
                method=report.method)
    return doc


def _cmd_estimate(args) -> ReportDocument:
    weight = _weight_from_args(args)
    if args.builtin:
        sample = load_dataset(args.builtin, reading=args.reading)
        reading = args.reading
    else:
        sample = load_dataset(args.input)
        reading = "file"
    if args.export:
        export_dataset(sample, args.export)
    doc = ReportDocument(metadata=_base_metadata(
        dataset=sample.source, reading=reading, n=sample.n))
    doc.add(measure="empirical_wfgcpe", weight=weight.tag, gamma=args.gamma,
            value=empirical_wfgcpe(sample, weight, args.gamma),
            method="empirical")
    return doc


def _cmd_simulate(args) -> ReportDocument:
    population = _FAMILIES[args.pop](args)
    weight = _weight_from_args(args, population)
    seed = args.seed if args.seed is not None else _derive_seed()
    config = SimulationConfig(args.replicates, args.n, seed, population,
                              weight, args.gamma)
    summary = simulate_estimator(config)
    doc = ReportDocument(metadata=_base_metadata(seed=seed))
    # the sampling variance, with the Dirichlet covariance between spacings;
    # ``reproduce --table 4`` keeps the published independence formula
    exact, _ = _exact_moments(population, weight, args.n, args.gamma)
    row = dict(population=args.pop, weight=weight.tag, gamma=args.gamma,
               n=args.n, replicates=args.replicates,
               mc_mean=summary.mean, mc_variance=summary.variance,
               method="simulation")
    if exact is not None:
        row["exact_mean"], row["exact_variance"] = exact
        row["mean_z"] = ((summary.mean - exact[0])
                         / math.sqrt(exact[1] / args.replicates))
    doc.add(**row)
    return doc


def _cmd_reproduce(args) -> ReportDocument:
    if args.table == 1:
        return _reproduce_closed_forms(normalized=False)
    if args.table == 2:
        return _reproduce_closed_forms(normalized=True)
    if args.table == 3:
        return _reproduce_table3(args.reading)
    return _reproduce_table4()


def _reproduce_closed_forms(normalized: bool) -> ReportDocument:
    doc = ReportDocument(metadata=_base_metadata(
        table=2 if normalized else 1))
    cases = [("power", make_power(1.0, 2.0)),
             ("power", make_power(2.0, 3.0)),
             ("frechet", make_frechet(1.0, 4.0))]
    for name, model in cases:
        for wname in ("x", "x2"):
            weight = BUILTIN_WEIGHTS[wname]()
            for g in _TABLE12_GAMMAS:
                try:
                    rep = wfgcpe(model, weight, g)
                    value = (normalized_wfgcpe(model, weight, g)
                             if normalized else rep.value)
                except ConstraintError as exc:
                    doc.add(dist=name, params=str(model.params),
                            weight=wname, gamma=g, value=float("nan"),
                            method=f"constraint: {exc}")
                    continue
                doc.add(dist=name, params=str(model.params), weight=wname,
                        gamma=g, value=value, method=rep.method)
    return doc


#: Table 3 of the source study's reproduction target: published empirical
#: entropy values for the blood-cancer lifetimes.
TABLE3_PUBLISHED = {
    (0.25, "sqrtx"): 24004.3, (0.25, "x"): 881460.0, (0.25, "x2"): 1.27542e9,
    (0.5, "sqrtx"): 20065.8, (0.5, "x"): 707724.0, (0.5, "x2"): 9.59358e8,
    (0.75, "sqrtx"): 16858.4, (0.75, "x"): 570814.0, (0.75, "x2"): 7.23578e8,
    (1.5, "sqrtx"): 10279.3, (1.5, "x"): 309581.0, (1.5, "x2"): 3.22149e8,
    (2.75, "sqrtx"): 4489.63, (2.75, "x"): 114320.0, (2.75, "x2"): 8.89639e7,
}


def _reproduce_table3(reading: str) -> ReportDocument:
    readings = ("literal", "corrected") if reading == "both" else (reading,)
    doc = ReportDocument(metadata=_base_metadata(table=3))
    best = {}
    for rd in readings:
        sample = load_dataset("blood_cancer_43", reading=rd)
        for g in _TABLE3_GAMMAS:
            for wname in _TABLE3_WEIGHTS:
                weight = BUILTIN_WEIGHTS[wname]()
                value = empirical_wfgcpe(sample, weight, g)
                published = TABLE3_PUBLISHED[(g, wname)]
                rel = abs(value - published) / abs(published)
                doc.add(reading=rd, gamma=g, weight=wname, value=value,
                        published=published, rel_discrepancy=rel,
                        method="empirical")
                best[rd] = max(best.get(rd, 0.0), rel)
    if best:
        matching = [rd for rd, worst in best.items() if worst <= 0.01]
        doc.metadata["matching_reading"] = matching[0] if matching else "none"
    return doc


def _reproduce_table4() -> ReportDocument:
    doc = ReportDocument(metadata=_base_metadata(table=4))
    for g in _TABLE4_GAMMAS:
        for n in _TABLE4_SIZES:
            mean, var = exact_moments_power_square(n, g)
            doc.add(gamma=g, n=n, mean=mean, variance=var,
                    method="closed_form")
    return doc


def _cmd_bounds(args) -> ReportDocument:
    model = _FAMILIES[args.dist](args)
    weight = _weight_from_args(args, model)
    doc = ReportDocument(metadata=_base_metadata())
    for check in bound_suite(model, weight, args.gamma):
        doc.add(bound=check.name, lhs=check.lhs, rhs=check.rhs,
                holds=check.holds, slack=check.slack, note=check.note,
                method="quadrature")
    return doc


def _base_metadata(**extra) -> dict:
    md = {"tool": "wfgcpe", "version": __version__}
    md.update(extra)
    return md


def _derive_seed() -> int:
    return int.from_bytes(os.urandom(8), "big") >> 1


_COMMANDS = {
    "compute": _cmd_compute,
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "reproduce": _cmd_reproduce,
    "bounds": _cmd_bounds,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = _COMMANDS[args.verb](args)
    except NonConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except WfgcpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(doc.render(args.format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
