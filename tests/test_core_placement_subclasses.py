"""Tests for placement-plan types and sub-class assignment."""

import pytest

from repro.core.placement import InstanceRef, PlacementPlan
from repro.core.subclasses import (
    assign_subclasses,
    SubclassAssignmentError,
    SubclassPlan,
)
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG


def _cls(cid, rate, path=("a", "b", "c"), chain=("firewall",)):
    return TrafficClass(cid, path[0], path[-1], tuple(path), PolicyChain(list(chain)), rate)


def _plan(quantities, distribution, classes):
    return PlacementPlan(
        quantities=dict(quantities),
        distribution=dict(distribution),
        classes=list(classes),
        catalog=DEFAULT_CATALOG,
        objective=float(sum(quantities.values())),
    )


# ---------------------------------------------------------------------------
# PlacementPlan accounting
# ---------------------------------------------------------------------------
def test_plan_core_accounting():
    plan = _plan(
        {("b", "firewall"): 2, ("b", "ids"): 1},
        {("c1", 1, 0): 1.0},
        [_cls("c1", 100.0)],
    )
    assert plan.total_instances() == 3
    assert plan.total_cores() == 2 * 4 + 8
    assert plan.cores_by_switch() == {"b": 16}
    assert len(plan.instance_refs()) == 3
    assert plan.quantity("b", "firewall") == 2
    assert plan.quantity("z", "nat") == 0


def test_plan_load_by_slot():
    plan = _plan(
        {("a", "firewall"): 1, ("b", "firewall"): 1},
        {("c1", 0, 0): 0.25, ("c1", 1, 0): 0.75},
        [_cls("c1", 400.0)],
    )
    loads = plan.load_by_slot()
    assert loads[("a", "firewall")] == pytest.approx(100.0)
    assert loads[("b", "firewall")] == pytest.approx(300.0)


def test_validate_catches_incomplete_processing():
    plan = _plan(
        {("b", "firewall"): 1}, {("c1", 1, 0): 0.6}, [_cls("c1", 100.0)]
    )
    problems = plan.validate({"a": 64, "b": 64, "c": 64})
    assert any("processes" in p for p in problems)


def test_validate_catches_order_violation():
    cls = _cls("c1", 100.0, chain=("nat", "firewall"))
    plan = _plan(
        {("a", "firewall"): 1, ("c", "nat"): 1},
        # firewall (step 1) fully at position 0 but nat (step 0) at position 2.
        {("c1", 2, 0): 1.0, ("c1", 0, 1): 1.0},
        [cls],
    )
    problems = plan.validate({"a": 64, "b": 64, "c": 64})
    assert any("order violated" in p for p in problems)


def test_validate_catches_capacity_violation():
    plan = _plan(
        {("b", "firewall"): 1}, {("c1", 1, 0): 1.0}, [_cls("c1", 2000.0)]
    )
    problems = plan.validate({"a": 64, "b": 64, "c": 64})
    assert any("capacity exceeded" in p for p in problems)


def test_validate_catches_resource_violation():
    plan = _plan(
        {("b", "ids"): 2}, {("c1", 1, 0): 1.0}, [_cls("c1", 100.0, chain=("ids",))]
    )
    problems = plan.validate({"b": 8})  # 16 cores needed, 8 available
    assert any("cores placed" in p for p in problems)


def test_instance_ref_key_roundtrip():
    ref = InstanceRef("SNVA", "firewall", 3)
    assert ref.key == "firewall[3]@SNVA"
    assert ref.key.rsplit("@", 1)[1] == "SNVA"
    assert ref.key.split("[", 1)[0] == "firewall"


# ---------------------------------------------------------------------------
# Sub-class assignment
# ---------------------------------------------------------------------------
def test_split_class_gets_multiple_subclasses():
    cls = _cls("c1", 400.0)
    plan = _plan(
        {("a", "firewall"): 1, ("b", "firewall"): 1},
        {("c1", 0, 0): 0.5, ("c1", 1, 0): 0.5},
        [cls],
    )
    sub_plan = assign_subclasses(plan)
    subs = sub_plan.subclasses("c1")
    assert len(subs) == 2
    assert {s.switches()[0] for s in subs} == {"a", "b"}
    assert sum(s.weight for s in subs) == pytest.approx(1.0)
    # Hash lookup agrees with ranges.
    assert sub_plan.subclass_for_hash("c1", 0.25) is subs[0]
    assert sub_plan.subclass_for_hash("c1", 0.75) is subs[1]


def test_multi_instance_slot_balances_load():
    cls = _cls("c1", 1600.0)
    plan = _plan(
        {("b", "firewall"): 2},
        {("c1", 1, 0): 1.0},
        [cls],
    )
    sub_plan = assign_subclasses(plan)
    loads = list(sub_plan.instance_load.values())
    assert len(loads) == 2
    assert all(l == pytest.approx(800.0) for l in loads)


def test_monotone_coupling_produces_ordered_sequences():
    cls = _cls("c1", 800.0, chain=("nat", "firewall"))
    plan = _plan(
        {("a", "nat"): 1, ("b", "nat"): 1, ("b", "firewall"): 1, ("c", "firewall"): 1},
        {
            ("c1", 0, 0): 0.5,
            ("c1", 1, 0): 0.5,
            ("c1", 1, 1): 0.5,
            ("c1", 2, 1): 0.5,
        },
        [cls],
    )
    sub_plan = assign_subclasses(plan)
    pos = {sw: i for i, sw in enumerate(cls.path)}
    for sub in sub_plan.subclasses("c1"):
        indices = [pos[sw] for sw in sub.switches()]
        assert indices == sorted(indices)


def test_near_zero_rate_class_keeps_its_whole_hash_domain():
    """A class placed at 1e-10 Mbps (possible with ``min_class_rate_mbps=0``)
    is below the allocator's cut threshold at every portion; each portion
    keeps its width on its slot's instance instead of the step failing
    with "chain step 0 has no portions"."""
    tiny = _cls("tiny", 1e-10, chain=("firewall", "nat"))
    plan = _plan(
        {("a", "firewall"): 1, ("b", "firewall"): 1, ("c", "nat"): 1},
        {("tiny", 0, 0): 0.25, ("tiny", 1, 0): 0.75, ("tiny", 2, 1): 1.0},
        [tiny],
    )
    subs = assign_subclasses(plan).by_class["tiny"]
    assert [(s.hash_range, s.switches()) for s in subs] == [
        ((0.0, 0.25), ("a", "c")),
        ((0.25, 1.0), ("b", "c")),
    ]


def test_missing_instance_for_distribution_raises():
    cls = _cls("c1", 100.0)
    plan = _plan({}, {("c1", 1, 0): 1.0}, [cls])
    with pytest.raises(SubclassAssignmentError):
        assign_subclasses(plan)


def test_max_subclasses_and_totals():
    cls1 = _cls("c1", 400.0)
    cls2 = _cls("c2", 100.0)
    plan = _plan(
        {("a", "firewall"): 1, ("b", "firewall"): 1},
        {("c1", 0, 0): 0.5, ("c1", 1, 0): 0.5, ("c2", 0, 0): 1.0},
        [cls1, cls2],
    )
    sub_plan = assign_subclasses(plan)
    assert sub_plan.max_subclasses_per_class() == 2
    assert sub_plan.total_subclasses() == 3
    with pytest.raises(KeyError):
        sub_plan.subclasses("ghost")
