"""Warm-start correctness: template reuse, in-place rewrites, fan-out.

The performance work must never change results: a warm re-solve (cached
:class:`PlacementTemplate`, rate-only coefficient rewrite) has to produce a
plan *bit-identical* to a cold solve of the same snapshot, the vectorized ``Model.compile`` has to emit exactly the matrices
of the straightforward per-constraint loop it replaced, and the process
fan-out has to return the same rows as the serial path.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

import repro.core.engine as engine_module
from repro.core.engine import EngineConfig, OptimizationEngine, PlacementError
from repro.experiments.harness import ExperimentResult, parallel_map
from repro.solver.lp import solve_lp
from repro.solver.model import CompiledModel, LinExpr, Model, Sense
from repro.solver.rounding import solve_with_rounding
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain

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


def test_explicit_template_mismatch_raises():
    engine = OptimizationEngine(config=EngineConfig())
    template = engine.make_template(_classes([100.0] * 4), CORES)
    different = _classes([100.0] * 4)[:2]  # fewer classes → new structure
    with pytest.raises(PlacementError, match="template does not match"):
        engine.place(different, CORES, template=template)


def test_single_shot_template_rejected_after_first_solve():
    engine = OptimizationEngine(config=EngineConfig())
    template = engine.make_template(_classes([100.0] * 4), CORES)
    engine.place(_classes([100.0] * 4), CORES, template=template)
    template.reusable = False  # as if sparsity had been degenerate
    with pytest.raises(PlacementError, match="single-shot"):
        engine.place(_classes([200.0] * 4), CORES, template=template)


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

#: rounding / exact, cores only / cores + memory.  Tight memory is what
#: sends ``_solve_ceiling`` to the ``solve_with_rounding`` fallback (see
#: test_budget_moves_reach_the_rounding_fallback); the exact solver runs
#: under a small node limit to keep the property cheap.
_VARIANTS = [
    (EngineConfig(), False),
    (EngineConfig(), True),
    (EngineConfig(solver="exact", max_bb_nodes=100), False),
    (EngineConfig(solver="exact", max_bb_nodes=100), True),
]


def _outcome(engine, classes, cores, memory=None, template=None):
    """Everything a plan fixes, or the error text when there is none."""
    try:
        plan = engine.place(classes, cores, memory, template=template)
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
    ids=["rounding", "rounding+memory", "exact", "exact+memory"],
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


def test_explicit_template_takes_other_budgets_not_another_host_set():
    engine = OptimizationEngine(config=EngineConfig())
    classes = _classes([400.0, 300.0, 200.0, 100.0])
    template = engine.make_template(classes, CORES)
    for cores in (CORES, {**CORES, "s0": 8, "s2": 12}, dict.fromkeys(LINE, 1)):
        fresh = OptimizationEngine(config=EngineConfig())
        assert _outcome(engine, classes, cores, template=template) == _outcome(
            fresh, classes, cores
        )
    for other_hosts in ({**CORES, "s2": 0}, {**CORES, "s9": 4}):
        with pytest.raises(PlacementError, match="template does not match"):
            engine.place(classes, other_hosts, template=template)
    with pytest.raises(PlacementError, match="template does not match"):
        engine.place(classes, CORES, dict.fromkeys(LINE, 64.0), template=template)


# ---------------------------------------------------------------------------
# Vectorized compile vs the reference per-constraint loop.
# ---------------------------------------------------------------------------


def _reference_compile(model):
    """The pre-vectorization compile: one dense row per constraint."""
    n = model.num_variables
    c = np.zeros(n)
    for idx, coeff in model.objective.coeffs.items():
        c[idx] = coeff
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    ub_row_of, eq_row_of, row_sign = {}, {}, {}
    for ci, con in enumerate(model.constraints):
        row = np.zeros(n)
        for idx, coeff in con.expr.coeffs.items():
            row[idx] = coeff
        if con.sense is Sense.LE:
            ub_row_of[ci], row_sign[ci] = len(ub_rows), 1.0
            ub_rows.append(row)
            ub_rhs.append(-con.expr.constant)
        elif con.sense is Sense.GE:
            ub_row_of[ci], row_sign[ci] = len(ub_rows), -1.0
            ub_rows.append(-row)
            ub_rhs.append(con.expr.constant)
        else:
            eq_row_of[ci], row_sign[ci] = len(eq_rows), 1.0
            eq_rows.append(row)
            eq_rhs.append(-con.expr.constant)
    a_ub = sparse.csr_matrix(np.array(ub_rows)) if ub_rows else None
    a_eq = sparse.csr_matrix(np.array(eq_rows)) if eq_rows else None
    return CompiledModel(
        c,
        a_ub,
        np.array(ub_rhs) if ub_rows else None,
        a_eq,
        np.array(eq_rhs) if eq_rows else None,
        [(v.lb, v.ub) for v in model.variables],
        np.array([v.integer for v in model.variables], dtype=bool),
        ub_row_of,
        eq_row_of,
        row_sign,
    )


@st.composite
def random_models(draw):
    """A random small model with every constraint sense and stray zeros."""
    model = Model("prop")
    n = draw(st.integers(2, 6))
    xs = [model.add_var(f"x{i}", ub=draw(st.floats(1.0, 50.0))) for i in range(n)]
    model.minimize(
        LinExpr.total(
            (draw(st.floats(-3.0, 3.0)), x) for x in xs
        )
    )
    for _ in range(draw(st.integers(1, 8))):
        terms = [
            (draw(st.sampled_from([0.0, 1.0, -2.0, 0.5])), x)
            for x in xs
            if draw(st.booleans())
        ]
        expr = LinExpr.total(terms) if terms else LinExpr.of(xs[0])
        rhs = draw(st.floats(-10.0, 10.0))
        sense = draw(st.sampled_from(["le", "ge", "eq"]))
        if sense == "le":
            model.add_constraint(expr <= rhs)
        elif sense == "ge":
            model.add_constraint(expr >= rhs)
        else:
            model.add_constraint(expr.eq(rhs))
    return model


@given(random_models())
@settings(max_examples=50, deadline=None)
def test_vectorized_compile_matches_reference(model):
    fast, ref = model.compile(), _reference_compile(model)
    np.testing.assert_array_equal(fast.c, ref.c)
    for mat_fast, mat_ref, rhs_fast, rhs_ref in (
        (fast.a_ub, ref.a_ub, fast.b_ub, ref.b_ub),
        (fast.a_eq, ref.a_eq, fast.b_eq, ref.b_eq),
    ):
        assert (mat_fast is None) == (mat_ref is None)
        if mat_fast is not None:
            np.testing.assert_array_equal(mat_fast.toarray(), mat_ref.toarray())
            np.testing.assert_array_equal(rhs_fast, rhs_ref)
    assert fast.bounds == ref.bounds
    np.testing.assert_array_equal(fast.integer_mask, ref.integer_mask)
    assert fast.ub_row_of == ref.ub_row_of
    assert fast.eq_row_of == ref.eq_row_of
    assert fast.row_sign == ref.row_sign


# ---------------------------------------------------------------------------
# In-place rewrites must stay visible through the cached LinearProgram.
# ---------------------------------------------------------------------------


def _two_var_model():
    model = Model("rewrite")
    x = model.add_var("x", ub=10.0)
    y = model.add_var("y", ub=10.0)
    model.minimize(-1.0 * x - 1.0 * y)
    model.add_constraint(1.0 * x + 1.0 * y <= 8.0)   # 0: an LE row
    model.add_constraint(1.0 * x - 1.0 * y >= -6.0)  # 1: a GE row
    model.add_constraint((1.0 * x + 0.0).eq(3.0) if False else 1.0 * x <= 7.0)
    return model, x, y


def test_solve_lp_bound_overrides_match_rebuilt_model():
    model, _x, _y = _two_var_model()
    cm = model.compile()
    extra_ub = np.array([2.0, np.nan])
    res = solve_lp(model, compiled=cm, extra_upper_bounds=extra_ub)

    tight = Model("tight")
    tx = tight.add_var("x", ub=2.0)
    ty = tight.add_var("y", ub=10.0)
    tight.minimize(-1.0 * tx - 1.0 * ty)
    tight.add_constraint(1.0 * tx + 1.0 * ty <= 8.0)
    tight.add_constraint(1.0 * tx - 1.0 * ty >= -6.0)
    tight.add_constraint(1.0 * tx <= 7.0)
    expected = solve_lp(tight)
    assert res.objective == pytest.approx(expected.objective)
    # Overrides must not corrupt the cached arrays for later solves.
    clean = solve_lp(model, compiled=cm)
    assert clean.objective == pytest.approx(-8.0)  # x + y <= 8 binds again


# ---------------------------------------------------------------------------
# Small satellites: dict independence, bound caching, bulk registration.
# ---------------------------------------------------------------------------


def test_compiled_models_do_not_share_row_maps():
    def build():
        model = Model("indep")
        x = model.add_var("x", ub=1.0)
        model.minimize(x)
        model.add_constraint(1.0 * x <= 1.0)
        return model.compile()

    first, second = build(), build()
    first.ub_row_of[99] = 0
    first.row_sign[99] = -1.0
    assert 99 not in second.ub_row_of
    assert 99 not in second.row_sign


def test_add_constraints_bulk_and_name_mismatch():
    model = Model("bulk")
    x = model.add_var("x", ub=1.0)
    cons = [1.0 * x <= 1.0, 1.0 * x >= 0.1]
    model.add_constraints(cons, names=["lo", "hi"])
    assert [c.name for c in model.constraints] == ["lo", "hi"]
    with pytest.raises(ValueError, match="length mismatch"):
        model.add_constraints([1.0 * x <= 0.5], names=["a", "b"])


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
