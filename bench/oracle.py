"""Correctness oracle: decides whether one operation's outcome is a success.

An outcome is one of

* ``("value", obj)``: the call returned ``obj``;
* ``("typed", name)``: the call raised the ``WfgcpeError`` subclass ``name``;
* ``("raw", text)``: the call raised anything else;
* ``("cli", code, stdout)``: ``wfgcpe.cli.main`` returned exit ``code``.

An operation succeeds when it returns a finite value within tolerance of a
finite reference, or refuses with a typed error (CLI exit 2, 3 or 4) where
the reference diverges or where refusal is allowed (the unordered literal
reading of Table 3). Anything else fails: a wrong value, ``nan``, a raw
exception, or a typed error where the reference is finite.

Tolerance: ``TOL_FACTOR * max(abs_tol, rel_tol * |ref|)`` with the
library's declared quadrature defaults (``DEFAULT_ABS_TOL = 1e-10`` and
``DEFAULT_REL_TOL = 1e-9`` when this was written), i.e. a relative
1e-7 for values above 0.1. The factor of 100 was fixed before any cell
was compared: QUADPACK's error estimate is a heuristic that may undershoot
the true error by an order of magnitude, and the value is then divided by
``Gamma(gamma + 1)``. Monte Carlo means are accepted at ``|z| <= Z_MAX``
against the exact covariance-corrected moments; CLT reports by their KS
distance (``KS_MARGIN``).
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL_FACTOR = 100.0
#: A run makes 96 z-tests (24 simulate calls, 4 gammas each, strongly
#: correlated across gamma), and comparing two commits runs each workload
#: about 20 times. At |z| <= 4 (two-sided p = 6.3e-5 per test) a correct
#: library fails about one seed in three hundred, so a comparison would
#: fail on chance every few dozen times: seed 411 gives z = -4.41 at
#: n = 10, gamma = 0.5, while 300 seeds per (n, gamma) give z-scores with
#: mean within 0.1 of 0 and standard deviation 0.95 to 1.03. At |z| <= 5
#: (p = 5.7e-7) that chance is below one in a thousand. A bias of five
#: standard errors is about 11% of the estimator's standard deviation at
#: 2000 replicates.
Z_MAX = 5.0
#: The CLT check accepts a KS distance up to this multiple of the
#: library's threshold (1.5 times the asymptotic 5% critical value). The
#: library's own verdict is not required: at n = 500 the Weibull estimator
#: is skewed enough that it fails for about 15% of seeds at gamma = 0.5.
#: Wrong moments (e.g. the independence variance) give several times the
#: threshold.
KS_MARGIN = 2.0
TABLE3_PUBLISHED_REL = 0.01
REFUSAL_EXIT_CODES = (2, 3, 4)


class Oracle:
    def __init__(self, abs_tol, rel_tol):
        self.abs_tol = abs_tol
        self.rel_tol = rel_tol

    def close(self, value, ref):
        return (isinstance(value, (int, float)) and math.isfinite(value)
                and abs(value - ref) <= TOL_FACTOR * max(
                    self.abs_tol, self.rel_tol * abs(ref)))

    def check(self, op, outcome):
        """Return ``(ok, detail)`` for one outcome of ``op``."""
        kind, ref = op["kind"], op["ref"]
        tag = outcome[0]
        if tag == "raw":
            return False, f"raw exception: {outcome[1]}"
        if tag == "cli":
            return self._check_cli(op, outcome[1], outcome[2])
        refusal_ok = kind in _VALUE_KINDS and ref["value"] is None
        if tag == "typed":
            if refusal_ok:
                return True, f"refused with {outcome[1]}; reference diverges"
            return False, f"{outcome[1]} where the reference is finite"
        return self._dispatch(kind, outcome[1], ref)

    def _dispatch(self, kind, result, ref):
        try:
            return getattr(self, "_check_" + kind)(result, ref)
        except (KeyError, IndexError, TypeError, AttributeError,
                ValueError) as exc:
            return False, f"result has an unexpected shape: {exc!r}"

    # -- quadrature-side values ---------------------------------------------

    def _value(self, value, ref):
        if ref["value"] is None:
            return False, f"returned {value!r} for a divergent integral"
        if self.close(value, ref["value"]):
            return True, ""
        return False, f"got {value!r}, reference {ref['value']!r}"

    def _check_cell(self, report, ref):
        return self._value(float(report.value), ref)

    _check_normalized = _check_wfgcre = _check_dynamic = _value
    _check_affine = _check_prh_n_step = _value

    def _check_bound_suite(self, reports, ref):
        bad = [r.name for r in reports if not r.holds]
        if bad:
            return False, f"bounds reported violated: {bad}"
        first = reports[0]
        if first.name != "one_minus_cdf_lower_bound":
            return False, f"unexpected first bound {first.name!r}"
        if not self.close(first.lhs, ref["cpe"]):
            return False, f"entropy {first.lhs!r}, reference {ref['cpe']!r}"
        if not self.close(first.rhs, ref["rhs_a"]):
            return False, f"bound {first.rhs!r}, reference {ref['rhs_a']!r}"
        return True, ""

    def _check_check_order(self, verdict, ref):
        if verdict.status == ref["status"]:
            return True, ""
        return False, f"verdict {verdict.status!r}, expected {ref['status']!r}"

    # -- Monte Carlo --------------------------------------------------------

    def _check_simulate(self, summaries, ref):
        for g, (mean, var) in ref["moments"].items():
            s = summaries[float(g)]
            vals = np.asarray(s.values)
            if not np.all(np.isfinite(vals)):
                return False, f"non-finite replicate at gamma={g}"
            z = (s.mean - mean) / math.sqrt(var / vals.size)
            if not abs(z) <= Z_MAX:
                return False, f"mean z={z:.2f} at gamma={g}"
        return True, ""

    def _check_consistency(self, profile, ref):
        errs = [profile[int(n)] for n in ref["envelope"]]
        for n, limit in ref["envelope"].items():
            if not profile[int(n)] <= limit:
                return False, f"median error {profile[int(n)]!r} at n={n}"
        if not all(a > b for a, b in zip(errs, errs[1:])):
            return False, f"error profile not decreasing: {errs}"
        return True, ""

    def _check_clt(self, report, ref):
        if report.moment_source != ref["source"]:
            return False, f"moment source {report.moment_source!r}"
        if not self.close(report.ks_threshold, ref["threshold"]):
            return False, f"KS threshold {report.ks_threshold!r}"
        if not report.ks_distance <= KS_MARGIN * ref["threshold"]:
            return False, f"KS distance {report.ks_distance:.4f}"
        return True, ""

    # -- CLI ----------------------------------------------------------------

    def _check_cli(self, op, code, stdout):
        kind, ref = op["kind"], op["ref"]
        if code in REFUSAL_EXIT_CODES:
            if kind == "cli_table3":
                return True, f"refused with exit {code}"
            return False, f"exit {code} where the reference is finite"
        if code != 0:
            return False, f"exit {code}"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return False, "stdout is not JSON"
        return self._dispatch(kind, doc, ref)

    def _check_cli_compute(self, doc, ref):
        return self._value(doc["rows"][0]["value"], ref)

    def _check_cli_estimate(self, doc, ref):
        if doc["metadata"].get("n") != ref["n"]:
            return False, f"n={doc['metadata'].get('n')}, expected {ref['n']}"
        ok, detail = self._value(doc["rows"][0]["value"], ref)
        if ok and "export" in ref:
            back = np.loadtxt(ref["export"])
            if back.size != ref["n"] or not np.all(np.diff(back) >= 0):
                return False, "export is not the sorted sample"
            if not self.close(float(back.sum()), ref["sorted_sum"]):
                return False, "export does not round-trip the sample"
        return ok, detail

    def _check_cli_table3(self, doc, ref):
        cells = ref["cells"]
        seen = set()
        for row in doc["rows"]:
            key = f"{row['reading']}/{row['gamma']}/{row['weight']}"
            seen.add(key)
            expected, published = cells[key]
            if not self.close(row["value"], expected):
                return False, (f"{key}: got {row['value']!r}, sorted-sample "
                               f"reference {expected!r}")
            if (row["reading"] == "corrected" and abs(row["value"] - published)
                    > TABLE3_PUBLISHED_REL * abs(published)):
                return False, f"{key}: more than 1% from the published cell"
        if seen != set(cells):
            return False, f"rows cover {len(seen)} of {len(cells)} cells"
        return True, ""

    def _check_cli_table4(self, doc, ref):
        cells = ref["cells"]
        seen = set()
        for row in doc["rows"]:
            key = f"{row['gamma']}/{row['n']}"
            seen.add(key)
            mean, var = cells[key]
            if not (self.close(row["mean"], mean)
                    and self.close(row["variance"], var)):
                return False, f"{key}: ({row['mean']!r}, {row['variance']!r})"
        if seen != set(cells):
            return False, f"rows cover {len(seen)} of {len(cells)} cells"
        return True, ""


#: Kinds whose reference is ``{"value": float or None}``.
_VALUE_KINDS = {"cell", "normalized", "wfgcre", "dynamic", "affine",
                "prh_n_step"}
