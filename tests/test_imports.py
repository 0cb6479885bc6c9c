"""Import hygiene: no module of the package keeps an import it never uses,
and importing the package and its CLI leaves ``scipy.stats`` unloaded.

No linter is installed, so this walks each module's syntax tree: a name
bound by a module-level ``import`` must appear as a name somewhere in the
module. ``__init__.py`` is skipped, since its imports are re-exports.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wfgcpe"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow and large to import, and only the CLT
    # diagnostic reads it, so it is imported there, on first use
    code = ("import sys, wfgcpe, wfgcpe.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def test_clt_diagnostic_leaves_scipy_stats_unloaded():
    code = ("import sys, wfgcpe as w; "
            "m = w.make_weibull_square(1.0); "
            "[w.clt_diagnostic(w.SimulationConfig(300, 200, 1, m, p, 0.5)) "
            "for p in (w.weight_x(), w.self_density_weight(m), "
            "w.weight_one())]; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]
