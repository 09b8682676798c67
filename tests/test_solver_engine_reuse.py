"""The resident HiGHS engine carries no history from one solve to the next.

``solver/lp.py`` keeps one ``_Highs`` engine per process and hands every
solve to it by buffer.  The warm-start plan-identity guarantee (and every
pinned ``state_signature``) needs each solve to be a function of its inputs
alone, so here every result of a seeded interleaving — big GEANT and
Internet2 placements, tenant-sized models, the ``_solve_ceiling`` repair
loop's re-solves of one matrix, infeasible and unbounded models, models the
solver refuses — must be bit-equal to the same solve on a brand-new engine.
"""

import functools
import os

import numpy as np
import pytest

from repro.core.constraints import assemble_placement_lp
from repro.core.engine import EngineConfig, OptimizationEngine
from repro.experiments.harness import standard_setup
from repro.parallel import parallel_map
from repro.sim.rng import derive
from repro.solver import lp as lp_module
from repro.solver.lp import SolverError, solve_lp
from repro.topology.datasets import internet2
from repro.topology.routing import Router
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import STANDARD_CHAINS
from repro.vnf.types import DEFAULT_CATALOG
from tests.lp_reference import Builder

pytestmark = pytest.mark.skipif(
    not lp_module.HAVE_DIRECT_HIGHS, reason="no resident engine without the binding"
)


def _outcome(lp, kwargs):
    """Everything a caller can see of one solve, comparable bit for bit."""
    try:
        res = solve_lp(lp, **kwargs)
    except SolverError as exc:
        return ("SolverError", str(exc))
    return (res.status, res.objective, res.solution.tobytes())


def _on_fresh_engine(lp, kwargs):
    """The same solve on an engine that has never seen a model."""
    resident = lp_module._ENGINE
    lp_module._ENGINE = lp_module._new_engine()
    try:
        return _outcome(lp, kwargs)
    finally:
        lp_module._ENGINE = resident


def _template(engine, classes, cores):
    """The structure phase ``engine.place`` runs on a cache miss, rates set."""
    classes = engine._clamped(classes)
    template = assemble_placement_lp(classes, cores, None, engine._cap, engine.catalog)
    template.set_rates(classes)
    return template


def _series_lps(topology, snapshots):
    _topo, controller, series = standard_setup(topology, snapshots=snapshots)
    engine = controller.engine
    cores = controller.available_cores()
    for k in range(snapshots):
        yield _template(engine, controller.build_classes(series[k]), cores)


def _tenant_templates(count, seed):
    """Placements the size a churn tenant submits: 1–3 chains, each path
    host given a seeded core budget between 4 and 32 (tight enough that the
    ceiling repair has budgets to trip on)."""
    topo = internet2(default_host_cores=160)
    router = Router(topo)
    engine = OptimizationEngine(DEFAULT_CATALOG, EngineConfig())
    rng = np.random.default_rng(derive(seed, "tests.engine_reuse.tenants"))
    pops = sorted(topo.hosts)
    for t in range(count):
        classes = []
        for c in range(int(rng.integers(1, 4))):
            src, dst = (pops[i] for i in rng.choice(len(pops), size=2, replace=False))
            classes.append(
                TrafficClass(
                    class_id=f"t{t}/c{c}",
                    src=src,
                    dst=dst,
                    path=router.path(src, dst),
                    chain=STANDARD_CHAINS[int(rng.integers(len(STANDARD_CHAINS)))],
                    rate_mbps=float(rng.uniform(20.0, 900.0)),
                )
            )
        hosts = sorted({sw for cls in classes for sw in cls.path if sw in topo.hosts})
        cores = {sw: int(rng.integers(4, 33)) for sw in hosts}
        yield _template(engine, classes, cores)


def _repair_steps(template):
    """The re-solves ``_solve_ceiling`` issues: one matrix, core budgets
    tightened step by step, then a slot's columns banned as well."""
    program = template.lp
    b_ub = program.rhs[: program.n_ub].copy()
    for step in range(1, 4):
        b_ub = b_ub.copy()
        b_ub[template._core_rows] = np.maximum(b_ub[template._core_rows] - step, 0.0)
        yield {"b_ub_override": b_ub}
    banned = np.full(program.num_variables, np.nan)
    banned[template._member_var_idx[template._member_slot_idx == 0]] = 0.0
    yield {"b_ub_override": b_ub, "extra_upper_bounds": banned}


def _toy(kind):
    """max x + y under x + y ≤ 8 — or with that row contradicted / x let go."""
    b = Builder(kind)
    x = b.var("x", ub=float("inf") if kind == "unbounded" else 10.0)
    y = b.var("y", ub=10.0)
    b.minimize({x: -1.0, y: -1.0})
    if kind == "unbounded":
        b.row({y: 1.0}, "<=", 8.0)
    else:
        b.row({x: 1.0, y: 1.0}, "<=", 8.0)
    if kind == "infeasible":
        b.row({x: 1.0, y: 1.0}, ">=", 9.0)
    return b.compile()


@functools.lru_cache(maxsize=None)
def _cases():
    """``(label, program, solve_lp kwargs, outcome on a fresh engine)``."""
    cases = []

    def add(label, lp, **kwargs):
        cases.append((label, lp, kwargs, _on_fresh_engine(lp, kwargs)))

    for k, template in enumerate(_series_lps("geant", 2)):
        add(f"geant[{k}]", template.lp)
    for k, template in enumerate(_series_lps("internet2", 3)):
        add(f"internet2[{k}]", template.lp)
        if k == 0:
            for step, kwargs in enumerate(_repair_steps(template)):
                add(f"internet2[0]/repair{step}", template.lp, **kwargs)
    for k, template in enumerate(_tenant_templates(12, seed=3)):
        add(f"tenant[{k}]", template.lp)
        if k < 3:
            for step, kwargs in enumerate(_repair_steps(template)):
                add(f"tenant[{k}]/repair{step}", template.lp, **kwargs)
            starved = template.lp.rhs[: template.lp.n_ub].copy()
            starved[template._core_rows] = 0.0
            add(f"tenant[{k}]/starved", template.lp, b_ub_override=starved)
    for kind in ("feasible", "infeasible", "unbounded"):
        add(f"toy/{kind}", _toy(kind))
    return tuple(cases)


def _interleaving(seed, length=60):
    cases = _cases()
    rng = np.random.default_rng(derive(seed, "tests.engine_reuse.order"))
    return [cases[i] for i in rng.integers(len(cases), size=length)]


def test_the_pool_covers_every_kind_of_outcome():
    outcomes = [ref for _label, _lp, _kwargs, ref in _cases()]
    errors = {ref[1].rsplit(": ", 1)[1] for ref in outcomes if ref[0] == "SolverError"}
    assert {"infeasible", "unbounded"} <= errors
    assert sum(ref[0] == "optimal" for ref in outcomes) >= 25
    sizes = sorted(lp.c.size for _label, lp, _kwargs, _ref in _cases())
    assert sizes[0] < 10 and sizes[-1] > 4000


@pytest.mark.parametrize("seed", range(6))
def test_interleaved_solves_equal_fresh_engine_solves(seed):
    for label, lp, kwargs, reference in _interleaving(seed):
        assert _outcome(lp, kwargs) == reference, label


def test_same_model_back_to_back_never_warm_starts():
    # The likeliest leak: the engine already holds this very model and an
    # optimal basis for it.
    for label, lp, kwargs, reference in _cases():
        assert _outcome(lp, kwargs) == reference, label
        assert _outcome(lp, kwargs) == reference, label


def _child_interleaving(seed):
    """Runs in a ``parallel_map`` worker: its engine is a forked copy of the
    parent's, model and all."""
    mismatches = [
        label
        for label, lp, kwargs, reference in _interleaving(seed, length=25)
        if _outcome(lp, kwargs) != reference
    ]
    return os.getpid(), mismatches


def test_interleaving_inside_a_parallel_map_child():
    label, lp, kwargs, reference = _cases()[0]
    assert _outcome(lp, kwargs) == reference, label  # the engine is in use
    results = parallel_map(_child_interleaving, [11, 12], jobs=2)
    assert [mismatches for _pid, mismatches in results] == [[], []]
    assert all(pid != os.getpid() for pid, _ in results)
    assert _outcome(lp, kwargs) == reference, label


# ----------------------------------------------------------------------
# A model the solver refuses never reaches run()
# ----------------------------------------------------------------------
def _nan_rhs():
    lp = _toy("feasible")
    lp.rhs[0] = np.nan
    return lp, {}


def _nan_override():
    return _toy("feasible"), {"b_ub_override": np.array([np.nan])}


def _infinite_coefficient():
    lp = _toy("feasible")
    lp.data[0] = np.inf
    return lp, {}


@pytest.mark.parametrize(
    "broken", [_nan_rhs, _nan_override, _infinite_coefficient], ids=lambda f: f.__name__
)
def test_rejected_model_raises_and_leaves_the_engine_clean(broken):
    good_label, good, good_kwargs, reference = next(
        case for case in _cases() if case[0] == "toy/feasible"
    )
    assert _outcome(good, good_kwargs) == reference
    lp, kwargs = broken()
    with pytest.raises(SolverError, match="solver rejected the model"):
        solve_lp(lp, **kwargs)
    # The refused model must not have been solved in place of this one, nor
    # this one answered from what the engine held before.
    assert _outcome(good, good_kwargs) == reference, good_label
    for label, other, other_kwargs, other_reference in _cases()[:3]:
        with pytest.raises(SolverError, match="solver rejected the model"):
            solve_lp(lp, **kwargs)
        assert _outcome(other, other_kwargs) == other_reference, label
