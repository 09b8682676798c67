"""Tests for the Optimization Engine against the paper's constraints."""

import dataclasses

import pytest

from repro.core.constraints import assemble_placement_lp
from repro.core.engine import EngineConfig, OptimizationEngine, PlacementError
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG
from tests.lp_reference import solve_milp


def _cls(cid, src, dst, path, chain, rate):
    return TrafficClass(cid, src, dst, tuple(path), PolicyChain(chain), rate)


def _place(classes, cores, **cfg):
    engine = OptimizationEngine(config=EngineConfig(**cfg))
    return engine.place(classes, cores)


LINE = ("a", "b", "c")
CORES = {"a": 64, "b": 64, "c": 64}


def test_single_class_single_nf():
    plan = _place([_cls("c1", "a", "c", LINE, ["firewall"], 100.0)], CORES)
    assert plan.total_instances() == 1
    assert not plan.validate(CORES)
    # The whole class is processed at exactly one position.
    total = sum(plan.portion("c1", i, 0) for i in range(3))
    assert total == pytest.approx(1.0)


def test_capacity_forces_multiple_instances():
    plan = _place([_cls("c1", "a", "c", LINE, ["firewall"], 2000.0)], CORES)
    # 2000 Mbps / 900 Mbps → at least 3 instances.
    assert plan.total_instances() >= 3
    assert not plan.validate(CORES)


def test_classes_share_instances():
    """Resource multiplexing: two small same-path classes share one instance."""
    classes = [
        _cls("c1", "a", "c", LINE, ["firewall"], 100.0),
        _cls("c2", "a", "c", LINE, ["firewall"], 100.0),
    ]
    plan = _place(classes, CORES)
    assert plan.total_instances() == 1


def test_crossing_paths_multiplex_at_shared_switch():
    """Classes crossing at b can share instances only APPLE-style."""
    cores = {"b": 64}  # host only at the crossing switch
    classes = [
        _cls("c1", "a", "c", ("a", "b", "c"), ["firewall"], 100.0),
        _cls("c2", "d", "e", ("d", "b", "e"), ["firewall"], 100.0),
    ]
    plan = _place(classes, cores)
    assert plan.total_instances() == 1
    assert plan.quantity("b", "firewall") == 1


def test_chain_order_constraint_holds():
    classes = [_cls("c1", "a", "c", LINE, ["nat", "firewall", "ids"], 500.0)]
    plan = _place(classes, CORES)
    assert not plan.validate(CORES)
    # Cumulative of step j never exceeds cumulative of step j-1 (Eq. 3).
    for j in range(1, 3):
        cum_prev = cum_cur = 0.0
        for i in range(3):
            cum_prev += plan.portion("c1", i, j - 1)
            cum_cur += plan.portion("c1", i, j)
            assert cum_cur <= cum_prev + 1e-6


def test_no_host_on_path_raises():
    classes = [_cls("c1", "a", "c", LINE, ["firewall"], 10.0)]
    with pytest.raises(PlacementError):
        _place(classes, {"z": 64})


def test_duplicate_class_ids_rejected():
    c = _cls("c1", "a", "c", LINE, ["firewall"], 10.0)
    with pytest.raises(PlacementError):
        _place([c, c], CORES)


def test_infeasible_resources_raise():
    # IDS needs 8 cores; only 4 available anywhere.  A fraction of one IDS
    # fits the relaxation, so it is the rounding repair that refuses.
    classes = [_cls("c1", "a", "c", LINE, ["ids"], 10.0)]
    cores = {"a": 4, "b": 4, "c": 4}
    with pytest.raises(PlacementError, match="^rounding repair gave up: "):
        _place(classes, cores)
    assert OptimizationEngine().relaxation_feasible(classes, cores)


def test_resource_constraint_respected():
    # One switch with room for exactly one IDS; demand needs two; second
    # must land elsewhere.
    cores = {"a": 8, "b": 8, "c": 0}
    classes = [_cls("c1", "a", "c", LINE, ["ids"], 1000.0)]
    plan = _place(classes, cores)
    assert not plan.validate(cores)
    assert plan.quantity("a", "ids") + plan.quantity("b", "ids") >= 2


def test_zero_rate_class_still_covered():
    """Proactive provisioning: near-idle classes get a (shared) instance."""
    classes = [
        _cls("c1", "a", "c", LINE, ["firewall"], 0.0),
        _cls("c2", "a", "c", LINE, ["firewall"], 100.0),
    ]
    plan = _place(classes, CORES)
    assert plan.total_instances() == 1
    total = sum(plan.portion("c1", i, 0) for i in range(3))
    assert total == pytest.approx(1.0)


def test_capacity_headroom_scales_instances():
    classes = [_cls("c1", "a", "c", LINE, ["firewall"], 890.0)]
    tight = _place(classes, CORES, capacity_headroom=1.0)
    slack = _place(classes, CORES, capacity_headroom=0.5)
    assert tight.total_instances() == 1
    assert slack.total_instances() == 2  # 890 > 0.5 * 900


def test_exact_solver_small_instance():
    """The rounded plan sits between the LP bound and the exact ILP optimum
    (HiGHS MIP on the same program)."""
    classes = [
        _cls("c1", "a", "c", LINE, ["firewall", "ids"], 400.0),
        _cls("c2", "a", "c", LINE, ["firewall"], 300.0),
    ]
    engine = OptimizationEngine()
    template = assemble_placement_lp(classes, CORES, None, engine._cap, engine.catalog)
    template.set_rates(classes)
    template.set_budgets(CORES, None)
    optimum, _solution = solve_milp(template.lp)
    rounded = engine.place(classes, CORES)
    assert not rounded.validate(CORES)
    assert rounded.lp_bound <= optimum + 1e-9
    assert optimum <= rounded.total_instances() + 1e-9


@pytest.mark.parametrize(
    "classes",
    [
        [],
        [_cls("c1", "a", "c", LINE, [], 100.0), _cls("c2", "a", "b", "ab", [], 5.0)],
    ],
    ids=["no-classes", "all-chains-empty"],
)
def test_placement_without_variables_is_an_empty_plan(classes, monkeypatch):
    def no_solver(*_args, **_kwargs):
        raise AssertionError("an instance without variables reached the solver")

    monkeypatch.setattr("repro.core.engine.solve_lp", no_solver)
    plan = _place(classes, CORES)
    assert plan.total_instances() == 0
    assert plan.quantities == {} and plan.distribution == {}
    assert plan.objective == 0.0
    assert [c.class_id for c in plan.classes] == [c.class_id for c in classes]
    assert not plan.validate(CORES)


def test_empty_chain_class_adds_nothing_to_a_mixed_instance():
    loaded = _cls("c1", "a", "c", LINE, ["firewall"], 100.0)
    chainless = _cls("c0", "a", "c", LINE, [], 100.0)
    alone = _place([loaded], CORES)
    mixed = _place([chainless, loaded], CORES)
    assert mixed.quantities == alone.quantities
    assert mixed.distribution == alone.distribution
    assert not mixed.validate(CORES)


def test_consolidation_reduces_or_preserves():
    """Consolidating the un-consolidated ceiling plan never adds an
    instance, and is exactly what ``place()`` returns."""
    classes = [
        _cls(f"c{k}", "a", "c", LINE, ["firewall"], 30.0) for k in range(6)
    ]
    engine = OptimizationEngine()
    template = assemble_placement_lp(
        classes, CORES, None, engine._cap, engine.catalog
    )
    template.set_rates(classes)
    template.set_budgets(CORES, None)
    solution, quantities, _, _ = engine._solve_ceiling(template)
    distribution = engine._extract_distribution(classes, template, solution)
    before = sum(quantities.values())
    engine._consolidate_dust(classes, distribution, quantities)
    assert sum(quantities.values()) <= before
    plan = engine.place(classes, CORES)
    assert plan.quantities == quantities and plan.distribution == distribution
    assert not plan.validate(CORES)


def test_consolidation_moves_into_a_slot_already_holding_the_portion():
    """A portion merged into a slot that holds it is listed there once.

    Slot a's sliver moves to b, where the class already has a portion; b
    is dust too and moves on to c.  Listed twice at b, the merged portion
    was staged twice and the second ``distribution.pop`` raised KeyError.
    """
    engine = OptimizationEngine()
    cls = _cls("c1", "a", "c", LINE, ["firewall"], 10.0)
    distribution = {("c1", 0, 0): 0.1, ("c1", 1, 0): 0.2, ("c1", 2, 0): 0.7}
    quantities = {(s, "firewall"): 1 for s in LINE}
    engine._consolidate_dust([cls], distribution, quantities)
    assert quantities == {("c", "firewall"): 1}
    assert distribution == {("c1", 2, 0): pytest.approx(1.0)}


def test_solve_seconds_recorded():
    plan = _place([_cls("c1", "a", "c", LINE, ["nat"], 10.0)], CORES)
    assert plan.solve_seconds > 0
    assert plan.lp_bound <= plan.objective + 1e-9


def test_infeasible_instance_raises_on_every_solve_path():
    """IDS needs 8 cores and no switch has them: ``PlacementError``."""
    classes = [_cls("c1", "a", "c", LINE, ["ids"], 5000.0)]
    cores = {"a": 0, "b": 4, "c": 4}
    with pytest.raises(PlacementError, match="^relaxation infeasible: "):
        _place(classes, cores)
    assert not OptimizationEngine().relaxation_feasible(classes, cores)


def test_engine_config_has_only_the_two_knobs():
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "min_class_rate_mbps", "capacity_headroom",
    ]


@pytest.mark.parametrize(
    "headroom", [1.5, 0.0, -0.5, float("nan"), float("inf")]
)
def test_capacity_headroom_outside_unit_interval_rejected(headroom):
    with pytest.raises(ValueError, match="capacity_headroom"):
        EngineConfig(capacity_headroom=headroom)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), -1.0])
def test_class_rate_floor_must_be_finite_and_non_negative(rate):
    """A NaN floor used to switch clamping off silently, and an infinite
    one failed later naming a class's ``rate_mbps``."""
    with pytest.raises(ValueError, match="min_class_rate_mbps"):
        EngineConfig(min_class_rate_mbps=rate)


@pytest.mark.parametrize("budget", [float("nan"), -1, -0.5])
def test_hostile_core_budget_is_refused_naming_the_switch(budget):
    """A NaN core budget used to drop the host silently, a negative one to
    read as "infeasible"."""
    classes = [_cls("c1", "a", "c", LINE, ["firewall"], 100.0)]
    cores = {"a": 64, "b": budget, "c": 64}
    with pytest.raises(ValueError, match=r"cores of switch 'b'"):
        _place(classes, cores)


@pytest.mark.parametrize("budget", [float("nan"), -2.0])
def test_hostile_memory_budget_is_refused_naming_the_switch(budget):
    """NaN memory used to surface as ``PlacementError("placement
    infeasible: ... solver rejected the model")``, which a tenant worker
    counts as a failed intent; negative memory read as "infeasible"."""
    classes = [_cls("c1", "a", "c", LINE, ["firewall"], 100.0)]
    memory = {"a": 64.0, "b": 64.0, "c": budget}
    with pytest.raises(ValueError, match=r"memory_gb of switch 'c'"):
        OptimizationEngine().place(classes, CORES, available_memory_gb=memory)


def test_zero_budgets_are_not_hostile():
    """0 cores is "no host here" and 0 GB of memory a full switch, as before."""
    classes = [_cls("c1", "a", "c", LINE, ["firewall"], 100.0)]
    plan = OptimizationEngine().place(
        classes, {"a": 0, "b": 64, "c": 64}, available_memory_gb={"a": 0.0, "b": 64.0, "c": 64.0}
    )
    assert plan.total_instances() == 1 and plan.quantity("a", "firewall") == 0
