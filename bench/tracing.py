"""Span and counter tracing of ``wfgcpe`` from outside the package.

Nothing inside ``src/`` is modified. ``Tracer.install`` rebinds, in every
``wfgcpe`` module that bound them, the public functions of the layer
modules to wrappers that record a span each; ``integrate`` gets a wrapper
that also counts integrand evaluations, subdivisions and
``NonConvergence``. Models and weights built by the ``make_*``/``weight_*``
factories are rebuilt with ``dataclasses.replace`` around counting proxies
of their callables (``cdf``, ``pdf``, ``quantile``, ``log_cdf``,
``log_survival``; ``psi`` and the antiderivative behind ``big_psi``).

A span is ``[name, start, end, parent, op_id, child_s, extra]``; spans are
kept in memory and written out once at the end. A span's self time is its
duration minus ``child_s``: the time of its child spans plus that of the
outermost proxied callables it called. Proxied callables are too many to
record as spans (millions per pass); they only add to counters.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import re
import time

import numpy as np

LAYERS = ("quadrature", "measures", "distributions", "weights", "analysis",
          "empirical", "cli")

MODEL_CALLABLES = ("cdf", "pdf", "quantile", "log_cdf", "log_survival")
WEIGHT_CALLABLES = ("psi", "antiderivative")

_SUBDIVISIONS = re.compile(r"after (\d+) subdivisions")

NAME, START, END, PARENT, OP, CHILD, EXTRA = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = None
        self.proxy_depth = 0
        # layer -> [calls, elements, busy seconds] of proxied callables
        self.callables = {"distributions": [0, 0, 0.0],
                          "weights": [0, 0, 0.0]}

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.op_id, 0.0, None])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span, extra=None):
        span[END] = time.perf_counter()
        span[EXTRA] = extra
        self.stack.pop()
        if span[PARENT] is not None:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def wrap(self, name, fn, extra=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                info = extra(args, result) if extra else None
                return result
            finally:
                self.close(span, info)
        traced.__wrapped__ = fn
        return traced

    # -- proxies -------------------------------------------------------------

    def proxy(self, layer, fn):
        counters = self.callables[layer]

        def proxied(x, *rest):
            self.proxy_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(x, *rest)
            finally:
                dt = time.perf_counter() - t0
                self.proxy_depth -= 1
                counters[0] += 1
                counters[1] += x.size if isinstance(x, np.ndarray) else 1
                counters[2] += dt
                if self.proxy_depth == 0 and self.stack:
                    self.spans[self.stack[-1]][CHILD] += dt
        return proxied

    def proxy_model(self, model):
        return dataclasses.replace(model, **{
            name: self.proxy("distributions", getattr(model, name))
            for name in MODEL_CALLABLES if getattr(model, name) is not None})

    def proxy_weight(self, weight):
        return dataclasses.replace(weight, **{
            name: self.proxy("weights", getattr(weight, name))
            for name in WEIGHT_CALLABLES if getattr(weight, name) is not None})

    # -- installation --------------------------------------------------------

    def _traced_integrate(self, integrate):
        from wfgcpe.errors import NonConvergence

        def traced(f, *args, **kwargs):
            evals = [0]
            inner = f.eval

            def counted(x):
                evals[0] += 1
                return inner(x)

            span = self.open("quadrature.integrate")
            info = {"evals": 0, "subdivisions": 0, "nonconvergence": 0}
            try:
                result = integrate(dataclasses.replace(f, eval=counted),
                                   *args, **kwargs)
                info["subdivisions"] = result.subdivisions
                return result
            except NonConvergence as exc:
                info["nonconvergence"] = 1
                m = _SUBDIVISIONS.search(str(exc))
                info["subdivisions"] = int(m.group(1)) if m else 0
                raise
            finally:
                info["evals"] = evals[0]
                self.close(span, info)
        return traced

    def install(self):
        """Rebind every traced name in every ``wfgcpe`` module."""
        import wfgcpe

        modules = [wfgcpe] + [importlib.import_module(f"wfgcpe.{m}")
                              for m in LAYERS + ("errors",)]
        replace = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"wfgcpe.{layer}")
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                replace[fn] = self._wrapper(layer, name, fn)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    setattr(mod, name, replace[value])
        builtin = {k: replace[v] for k, v in wfgcpe.weights.BUILTIN_WEIGHTS
                   .items()}
        wfgcpe.weights.BUILTIN_WEIGHTS = builtin
        wfgcpe.cli.BUILTIN_WEIGHTS = builtin

    def _wrapper(self, layer, name, fn):
        if layer == "quadrature" and name == "integrate":
            return self._traced_integrate(fn)
        span_name = f"{layer}.{name}"
        if layer == "distributions" and name.startswith("make_"):
            return self.wrap(span_name, lambda *a, **k: self.proxy_model(
                fn(*a, **k)))
        if layer == "weights":
            return self.wrap(span_name, lambda *a, **k: self.proxy_weight(
                fn(*a, **k)))
        extra = _EXTRAS.get(span_name)
        return self.wrap(span_name, fn, extra)

    # -- reporting -----------------------------------------------------------

    def mark(self):
        """Position to aggregate from (spans and callable counters)."""
        return len(self.spans), {k: list(v) for k, v in self.callables.items()}

    def layer_metrics(self, mark):
        """Per-layer metrics over everything recorded since ``mark``."""
        first, before = mark
        spans = self.spans[first:]
        m = {}
        for layer, (c, e, b) in self.callables.items():
            c0, e0, b0 = before[layer]
            m[f"{layer}.calls"] = c - c0
            m[f"{layer}.elements"] = e - e0
            m[f"{layer}.busy_s"] = b - b0

        def outer(name):
            """Spans of ``name`` not nested in another span of ``name``."""
            out = []
            for s in spans:
                p = s[PARENT]
                while p is not None and self.spans[p][NAME] != name:
                    p = self.spans[p][PARENT]
                if s[NAME] == name and p is None:
                    out.append(s)
            return out

        def total(name, selfish=False):
            return sum(s[END] - s[START] - (s[CHILD] if selfish else 0.0)
                       for s in outer(name))

        quad = [s for s in spans if s[NAME] == "quadrature.integrate"]
        m["quadrature.calls"] = len(quad)
        m["quadrature.busy_s"] = total("quadrature.integrate")
        for key in ("evals", "subdivisions", "nonconvergence"):
            name = "integrand_evals" if key == "evals" else key
            m[f"quadrature.{name}"] = sum(s[EXTRA][key] for s in quad)

        meas = [s for s in spans if s[NAME].startswith("measures.")]
        m["measures.calls"] = len(meas)
        m["measures.self_s"] = sum(s[END] - s[START] - s[CHILD] for s in meas)
        methods = [s[EXTRA] for s in meas if s[NAME] == "measures.wfgcpe"
                   and s[EXTRA] is not None]
        m["measures.closed_form_ratio"] = (
            methods.count("closed_form") / len(methods) if methods else 0.0)

        sim = outer("analysis.simulate_estimator")
        m["analysis.simulate_s"] = total("analysis.simulate_estimator")
        m["analysis.self_s"] = total("analysis.simulate_estimator", True)
        m["analysis.draws"] = sum(s[EXTRA] or 0 for s in sim)
        m["analysis.bound_suite_s"] = total("analysis.bound_suite")
        m["analysis.check_order_s"] = total("analysis.check_order")

        m["empirical.load_s"] = total("empirical.load_dataset")
        m["empirical.estimate_s"] = total("empirical.empirical_wfgcpe")
        m["empirical.export_s"] = total("empirical.export_dataset")
        m["empirical.observations"] = sum(
            s[EXTRA] or 0 for s in outer("empirical.empirical_wfgcpe"))

        m["cli.calls"] = len(outer("cli.main"))
        m["cli.self_s"] = total("cli.main", True)
        return m

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op_id",
                                  "child_s", "extra"],
                       "spans": self.spans}, fh)


#: Extra data kept on spans: what the metrics above need from arguments
#: or results.
_EXTRAS = {
    "measures.wfgcpe": lambda args, result: result.method,
    "analysis.simulate_estimator":
        lambda args, result: args[0].replicates * args[0].n,
    "empirical.empirical_wfgcpe": lambda args, result: args[0].n,
}
