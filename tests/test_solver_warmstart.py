"""Warm-start correctness: template reuse, in-place rewrites, fan-out.

The performance work must never change results: a warm re-solve (cached
:class:`PlacementTemplate`, rate-only coefficient rewrite) has to produce a
plan *bit-identical* to a cold solve of the same snapshot, per-solve bound
and right-hand-side overrides must leave the program they are applied to
untouched, and the process fan-out has to return the same rows as the
serial path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.engine as engine_module
from repro.core.constraints import assemble_placement_lp
from repro.core.engine import EngineConfig, OptimizationEngine, PlacementError
from repro.experiments.harness import ExperimentResult, parallel_map, standard_setup
from repro.solver.lp import solve_lp
from repro.solver.rounding import solve_with_rounding
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from tests.lp_reference import Builder

# ---------------------------------------------------------------------------
# Fixed placement structure: rates vary per example, structure never does.
# ---------------------------------------------------------------------------

LINE = ("s0", "s1", "s2", "s3")
CORES = {"s0": 64, "s1": 64, "s2": 64, "s3": 64}
STRUCTURE = [
    ("c0", LINE, ["firewall"]),
    ("c1", LINE, ["firewall", "ids"]),
    ("c2", LINE[1:], ["proxy"]),
    ("c3", LINE[:3], ["ids", "firewall"]),
]


def _classes(rates):
    return [
        TrafficClass(cid, path[0], path[-1], path, PolicyChain(chain), rate)
        for (cid, path, chain), rate in zip(STRUCTURE, rates)
    ]


#: Shared engine: its template cache persists across hypothesis examples,
#: so every example after the first exercises the warm path.
_WARM_ENGINE = OptimizationEngine(config=EngineConfig())


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=4000.0, allow_nan=False),
        min_size=len(STRUCTURE),
        max_size=len(STRUCTURE),
    )
)
@settings(max_examples=40, deadline=None)
def test_warm_resolve_bit_identical_to_cold(rates):
    classes = _classes(rates)
    try:
        cold_plan = OptimizationEngine(config=EngineConfig()).place(classes, CORES)
    except PlacementError:
        # The strategy can oversubscribe the four hosts (e.g. ~9.4 Gbps of
        # firewall demand); that is a legitimately infeasible snapshot, and
        # the property still holds: the warm path must agree it is
        # infeasible — and stay reusable for the next example.
        with pytest.raises(PlacementError):
            _WARM_ENGINE.place(classes, CORES)
        return
    warm_plan = _WARM_ENGINE.place(classes, CORES)
    # Bit-identical, not approximately equal: both paths must run the same
    # solver on the same matrices, so every float matches exactly.
    assert warm_plan.quantities == cold_plan.quantities
    assert warm_plan.distribution == cold_plan.distribution
    assert warm_plan.objective == cold_plan.objective
    assert warm_plan.lp_bound == cold_plan.lp_bound


def test_warm_start_flag_and_counters():
    engine = OptimizationEngine(config=EngineConfig())
    first = engine.place(_classes([100.0] * 4), CORES)
    second = engine.place(_classes([700.0, 50.0, 900.0, 10.0]), CORES)
    assert not first.warm_start and second.warm_start
    assert engine.cold_builds == 1 and engine.warm_solves == 1
    engine.clear_templates()
    third = engine.place(_classes([100.0] * 4), CORES)
    assert not third.warm_start
    assert engine.cold_builds == 2


def test_geant_snapshots_solve_cold_after_clearing_and_warm_after():
    """Eight GEANT snapshots: every ``place()`` after ``clear_templates()``
    builds the LP, every repeat of the structure re-solves the template."""
    _topo, controller, series = standard_setup("geant", snapshots=8)
    engine = controller.engine
    cores = controller.available_cores()
    class_sets = [controller.build_classes(m) for m in series.snapshots]
    engine.place(class_sets[0], cores)
    for classes in class_sets[1:]:
        engine.clear_templates()
        assert not engine.place(classes, cores).warm_start
    engine.clear_templates()
    engine.place(class_sets[0], cores)
    for classes in class_sets[1:]:
        assert engine.place(classes, cores).warm_start


def test_single_shot_template_rejected_after_first_solve(monkeypatch):
    built = []

    def single_shot(*args, **kwargs):
        template = assemble_placement_lp(*args, **kwargs)
        template.reusable = False  # as if sparsity had been degenerate
        built.append(template)
        return template

    monkeypatch.setattr(engine_module, "assemble_placement_lp", single_shot)
    engine = OptimizationEngine(config=EngineConfig())
    first = engine.place(_classes([100.0] * 4), CORES)
    second = engine.place(_classes([200.0] * 4), CORES)
    # Same structure, but the first template is never solved a second time.
    assert len(built) == 2 and built[0] is not built[1]
    assert not first.warm_start and not second.warm_start
    assert (engine.cold_builds, engine.warm_solves) == (2, 0)
    monkeypatch.undo()
    assert _outcome(engine, _classes([200.0] * 4), CORES) == _outcome(
        OptimizationEngine(config=EngineConfig()), _classes([200.0] * 4), CORES
    )


# ---------------------------------------------------------------------------
# Budgets are per-solve data like the rates: A_v moves, the template stays.
# ---------------------------------------------------------------------------

_STEP = st.tuples(
    st.lists(st.integers(1, 48), min_size=len(LINE), max_size=len(LINE)),
    st.lists(st.floats(2.0, 24.0), min_size=len(LINE), max_size=len(LINE)),
    st.lists(
        st.floats(min_value=0.0, max_value=1500.0),
        min_size=len(STRUCTURE),
        max_size=len(STRUCTURE),
    ),
)

#: Cores only / cores + memory.  Tight memory is what sends
#: ``_solve_ceiling`` to the ``solve_with_rounding`` fallback (see
#: test_budget_moves_reach_the_rounding_fallback).
_VARIANTS = [(EngineConfig(), False), (EngineConfig(), True)]


def _outcome(engine, classes, cores, memory=None):
    """Everything a plan fixes, or the error text when there is none."""
    try:
        plan = engine.place(classes, cores, memory)
    except PlacementError as exc:
        return str(exc)
    return plan.quantities, plan.distribution, plan.objective, plan.lp_bound


def _instance(step, with_memory):
    budgets, memory, rates = step
    return (
        _classes(rates),
        dict(zip(LINE, budgets)),
        dict(zip(LINE, memory)) if with_memory else None,
    )


@pytest.mark.parametrize(
    "config,with_memory",
    _VARIANTS,
    ids=["rounding", "rounding+memory"],
)
@given(steps=st.lists(_STEP, min_size=2, max_size=4))
@settings(max_examples=12, deadline=None)
def test_budget_and_rate_sequence_equals_a_fresh_engine(config, with_memory, steps):
    warm = OptimizationEngine(config=config)
    for step in steps:
        instance = _instance(step, with_memory)
        fresh = OptimizationEngine(config=config)
        assert _outcome(warm, *instance) == _outcome(fresh, *instance)
    # One structure, however the budgets and rates moved.
    assert warm.cold_builds == 1 and warm.warm_solves == len(steps) - 1


def test_budget_moves_reach_the_rounding_fallback(monkeypatch):
    """Budgets written into the template are what the generic rounding
    fallback (which reads the LP's own right-hand side) solves against."""
    fallbacks = []

    def spy(program):
        fallbacks.append(program.rhs.copy())
        return solve_with_rounding(program)

    monkeypatch.setattr(engine_module, "solve_with_rounding", spy)
    rng = np.random.default_rng(0)
    warm = OptimizationEngine(config=EngineConfig())
    seen, outcomes = 0, set()
    for _ in range(40):
        step = (
            [int(b) for b in rng.integers(4, 40, len(LINE))],
            [float(m) for m in rng.uniform(2.0, 24.0, len(LINE))],
            [float(r) for r in rng.uniform(0.0, 1500.0, len(STRUCTURE))],
        )
        instance = _instance(step, with_memory=True)
        before = len(fallbacks)
        got = _outcome(warm, *instance)
        if len(fallbacks) == before:
            continue
        seen += 1
        outcomes.add(type(got))
        # The fallback saw this call's budgets, not the template's first.
        template = next(iter(warm._templates.values()))
        rhs = fallbacks[-1]
        assert rhs[template._core_rows].tolist() == [
            float(instance[1][sw]) for sw in template._switch_names
        ]
        assert rhs[template._mem_rows].tolist() == [
            instance[2][sw] for sw in template._switch_names
        ]
        assert got == _outcome(OptimizationEngine(config=EngineConfig()), *instance)
    assert seen >= 10 and outcomes == {tuple, str}  # plans and refusals both
    assert warm.cold_builds == 1


def test_a_budget_falling_to_zero_rebuilds():
    engine = OptimizationEngine(config=EngineConfig())
    classes = _classes([100.0] * 4)
    engine.place(classes, CORES)
    engine.place(classes, {**CORES, "s1": 8})
    engine.place(classes, {**CORES, "s1": 8, "s3": 12})
    assert (engine.cold_builds, engine.warm_solves) == (1, 2)
    # s1 stops being a host: fewer d and q columns, another structure.
    shrunk = engine.place(classes, {**CORES, "s1": 0})
    assert (engine.cold_builds, engine.warm_solves) == (2, 2)
    assert not shrunk.warm_start
    assert all(sw != "s1" for sw, _nf in shrunk.quantities)
    # ... and leaving s1 out altogether is that same structure.
    without = engine.place(classes, {s: c for s, c in CORES.items() if s != "s1"})
    assert without.warm_start and without.quantities == shrunk.quantities
    assert engine.place(classes, CORES).warm_start  # the first one is still cached


def test_cached_template_takes_other_budgets_not_another_host_set():
    engine = OptimizationEngine(config=EngineConfig())
    classes = _classes([400.0, 300.0, 200.0, 100.0])
    for cores in (CORES, {**CORES, "s0": 8, "s2": 12}, dict.fromkeys(LINE, 1)):
        fresh = OptimizationEngine(config=EngineConfig())
        assert _outcome(engine, classes, cores) == _outcome(fresh, classes, cores)
    assert (engine.cold_builds, engine.warm_solves) == (1, 2)
    # Another host set, or memory modelled, is another structure.
    for other_hosts in ({**CORES, "s2": 0}, {**CORES, "s9": 4}):
        assert not engine.place(classes, other_hosts).warm_start
    assert not engine.place(classes, CORES, dict.fromkeys(LINE, 64.0)).warm_start
    assert (engine.cold_builds, engine.warm_solves) == (4, 2)


# ---------------------------------------------------------------------------
# Per-solve overrides leave the program itself untouched.
# ---------------------------------------------------------------------------


def _two_var_program(x_ub):
    """max x + y under x + y ≤ 8, x − y ≥ −6, x ≤ 7 and ``x ≤ x_ub``."""
    b = Builder("rewrite")
    x = b.var("x", ub=x_ub)
    y = b.var("y", ub=10.0)
    b.minimize({x: -1.0, y: -1.0})
    b.row({x: 1.0, y: 1.0}, "<=", 8.0)
    b.row({x: 1.0, y: -1.0}, ">=", -6.0)
    b.row({x: 1.0}, "<=", 7.0)
    return b.compile()


def test_solve_lp_bound_overrides_match_rebuilt_model():
    program = _two_var_program(10.0)
    extra_ub = np.array([2.0, np.nan])
    res = solve_lp(program, extra_upper_bounds=extra_ub)
    expected = solve_lp(_two_var_program(2.0))
    assert res.objective == pytest.approx(expected.objective)
    # Overrides must not corrupt the program's arrays for later solves.
    clean = solve_lp(program)
    assert clean.objective == pytest.approx(-8.0)  # x + y <= 8 binds again


# ---------------------------------------------------------------------------
# Experiment fan-out plumbing.
# ---------------------------------------------------------------------------


def _square(k):
    return k * k


def test_parallel_map_matches_serial():
    items = [1, 2, 3, 4, 5]
    assert parallel_map(_square, items, jobs=1) == [1, 4, 9, 16, 25]
    assert parallel_map(_square, items, jobs=2) == [1, 4, 9, 16, 25]
    assert parallel_map(_square, [7], jobs=4) == [49]  # single item stays serial
    assert parallel_map(_square, [], jobs=4) == []


def test_experiment_result_format_includes_elapsed():
    result = ExperimentResult(
        experiment="t",
        description="d",
        paper_expectation="p",
        columns=["a"],
        rows=[[1]],
    )
    assert "[" not in result.format().splitlines()[-1]
    result.elapsed_seconds = 3.21
    assert result.format().rstrip().endswith("[3.2s]")
