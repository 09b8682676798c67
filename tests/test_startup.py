"""What a process loads: the start-up pin and the HiGHS loader's guards.

Each test starts a fresh interpreter, because what matters is what an
import pulls in before the first solve, and the test process itself has
long since imported scipy.optimize and networkx (the oracles).
"""

import ast
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: Modules the program does not call on its solve path: the scipy
#: subpackages ``scipy.optimize/__init__`` drags in, and the graph library
#: the tests use as an oracle.
HEAVY = ("networkx", "scipy.optimize", "scipy.sparse", "scipy.linalg")


def _run(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _workload_imports():
    """The ``repro`` modules ``benchmarks/pipeline/workloads.py`` imports."""
    tree = ast.parse((ROOT / "benchmarks/pipeline/workloads.py").read_text())
    return sorted(
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "repro"
    )


#: Every ``repro`` module a pipeline process loads: the solver, the data
#: plane, the southbound fabric, tenancy and the packages on their paths.
#: A package loads nothing on import, and a subsystem is imported by the
#: entry point that runs it, so nothing else may appear here.
PIPELINE_MODULES = (
    "repro",
    "repro.classify", "repro.classify.split",
    "repro.core", "repro.core.constraints", "repro.core.controller",
    "repro.core.engine", "repro.core.placement", "repro.core.reconfigure",
    "repro.core.rulegen", "repro.core.subclasses", "repro.core.verify",
    "repro.dataplane", "repro.dataplane.flowhash", "repro.dataplane.network",
    "repro.dataplane.packet", "repro.dataplane.sharded",
    "repro.dataplane.switch", "repro.dataplane.tagging",
    "repro.dataplane.tcam", "repro.dataplane.vswitch",
    "repro.experiments", "repro.experiments.harness",
    "repro.experiments.multi_tenant", "repro.experiments.packet_replay",
    "repro.obs", "repro.obs.catalog", "repro.obs.collectors",
    "repro.obs.manifest", "repro.obs.metrics", "repro.obs.state",
    "repro.obs.trace",
    "repro.resilience", "repro.resilience.checkpoint",
    "repro.resilience.journal",
    "repro.sim", "repro.sim.events", "repro.sim.kernel", "repro.sim.rng",
    "repro.sim.sources",
    "repro.solver", "repro.solver.lp", "repro.solver.rounding",
    "repro.southbound", "repro.southbound.channel", "repro.southbound.config",
    "repro.southbound.fabric", "repro.southbound.messages",
    "repro.southbound.metrics", "repro.southbound.state",
    "repro.southbound.transaction",
    "repro.tenancy", "repro.tenancy.arbiter", "repro.tenancy.bus",
    "repro.tenancy.intents", "repro.tenancy.orchestrator",
    "repro.tenancy.worker",
    "repro.topology", "repro.topology.datasets", "repro.topology.generators",
    "repro.topology.graph", "repro.topology.routing",
    "repro.traffic", "repro.traffic.classes", "repro.traffic.diurnal",
    "repro.traffic.gravity", "repro.traffic.matrix",
    "repro.vnf", "repro.vnf.chains", "repro.vnf.instance", "repro.vnf.types",
)

#: Subsystems no pipeline workload runs (chaos, the cloud mocks, the
#: elastic loop, crash recovery, the scenario runner, the fluid Dynamic
#: Handler, the baselines) and the process pool only ``--jobs`` needs.
NEVER_LOADED = (
    "repro.chaos", "repro.cloud", "repro.elastic.loop",
    "repro.elastic.monitor", "repro.elastic.slo", "repro.elastic.hysteresis",
    "repro.experiments.scenario", "repro.resilience.recovery",
    "repro.core.baselines", "repro.core.dynamic", "repro.parallel",
    "multiprocessing", "concurrent.futures",
)


def _workload_import_lines() -> str:
    """The ``repro`` import statements of ``workloads.py``, as written."""
    tree = ast.parse((ROOT / "benchmarks/pipeline/workloads.py").read_text())
    return "\n".join(
        ast.unparse(node)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "repro"
    )


def test_a_pipeline_process_loads_only_the_layers_it_runs():
    out = _run(
        _workload_import_lines()
        + "\nimport sys\nprint('\\n'.join(sorted(sys.modules)))\n"
    )
    loaded = out.split()
    assert [m for m in loaded if m.split(".")[0] == "repro"] == sorted(
        PIPELINE_MODULES
    )
    assert [
        m for m in loaded if any(m == n or m.startswith(n + ".") for n in NEVER_LOADED)
    ] == []


def test_the_quickstarts_run_in_a_fresh_interpreter():
    """The README's and the package docstring's quickstarts import through
    the package's lazy names and run as written."""
    readme = (ROOT / "README.md").read_text()
    doc = (ROOT / "src/repro/__init__.py").read_text()
    for code in (
        re.search(r"## Quickstart\n\n```python\n(.*?)```", readme, re.S).group(1),
        textwrap.dedent(re.search(r"Quickstart::\n\n(.*?)\n\n(?=\S)", doc, re.S).group(1)),
    ):
        assert code.startswith("from repro import AppleController")
        _run(code)


def test_the_pipeline_modules_load_no_heavy_module():
    modules = _workload_imports()
    assert "repro.core.engine" in modules and "repro.tenancy" in modules
    out = _run(
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "import repro.solver.lp as lp\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules], lp.HAVE_DIRECT_HIGHS)\n"
    )
    assert out.split() == ["[]", "True"]


_SOLVE = """
import numpy as np
from repro.solver.lp import LinearProgram, solve_lp
one = np.ones(2)
lp = LinearProgram(
    name="two", c=one, indptr=np.array([0, 1, 2], dtype=np.int32),
    indices=np.zeros(2, dtype=np.int32), data=one, lhs=np.full(1, 3.0),
    rhs=np.full(1, 3.0), lb=np.zeros(2), ub=np.full(2, 2.0), n_ub=0,
    integer_mask=np.zeros(2, dtype=bool), var_name="x[{}]".format,
)
print(solve_lp(lp).objective)
"""


def test_a_hidden_extension_falls_back_to_linprog():
    """No extension file where the loader looks: one HighsBindingWarning at
    import, and every solve goes through public ``linprog``."""
    out = _run(
        "import importlib.machinery, sys, warnings\n"
        "importlib.machinery.EXTENSION_SUFFIXES = ['.hidden']\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    import repro.solver.lp as lp\n"
        "print([type(w.message).__name__ for w in caught], lp.HAVE_DIRECT_HIGHS,\n"
        "      'scipy.optimize._highspy._core' in sys.modules)\n"
        + _SOLVE
    )
    assert out.split() == ["['HighsBindingWarning']", "False", "False", "3.0"]


@pytest.mark.parametrize("scipy_first", [False, True], ids=["repro-first", "scipy-first"])
def test_scipy_optimize_shares_the_loaded_module(scipy_first):
    """``scipy.optimize`` imported before or after ``repro`` finds one
    ``_highspy._core`` module, and its ``milp`` and the program's direct
    path both solve."""
    repro_import = "import repro.solver.lp as lp\n"
    scipy_import = "import scipy.optimize\n"
    out = _run(
        "import sys\n"
        + (scipy_import + repro_import if scipy_first else repro_import + scipy_import)
        + "from scipy.optimize._highspy import _core\n"
        "from scipy.optimize import Bounds, milp\n"
        "print(_core is lp._highs_core is sys.modules['scipy.optimize._highspy._core'],\n"
        "      lp.HAVE_DIRECT_HIGHS,\n"
        "      milp(c=[1.0], integrality=[1], bounds=Bounds([0.5], [2.0])).fun)\n"
        + _SOLVE
    )
    assert out.split() == ["True", "True", "1.0", "3.0"]


@pytest.mark.parametrize("scipy_first", [False, True], ids=["repro-first", "scipy-first"])
def test_the_highspy_package_gets_the_core_attribute(scipy_first):
    """``scipy.optimize._highspy._core`` as an attribute: bound by the
    import system when scipy loads the module, and by the loader when it
    finds the package imported.  Loaded first by ``repro``, the module is
    one a later ``import scipy.optimize`` finds in ``sys.modules`` and does
    not bind (the loader's docstring says why); the loader binds it the
    next time it runs."""
    repro_import = "import repro.solver.lp as lp\n"
    scipy_import = "import scipy.optimize\n"
    out = _run(
        "import sys\n"
        + (scipy_import + repro_import if scipy_first else repro_import + scipy_import)
        + "package = sys.modules['scipy.optimize._highspy']\n"
        "before = getattr(package, '_core', None) is lp._highs_core\n"
        "print(before, lp._load_highs_core() is package._core is lp._highs_core)\n"
    )
    assert out.split() == [str(scipy_first), "True"]
