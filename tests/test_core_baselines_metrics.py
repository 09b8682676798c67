"""Tests for baselines (ingress) and TCAM/core metrics."""

import pytest

from repro.core.baselines import FRAMEWORK_COMPARISON, ingress_placement
from repro.core.engine import OptimizationEngine
from repro.core.metrics import (
    free_cores_after,
    hash_range_entries,
    tcam_reduction_ratio,
    tcam_usage_with_tagging,
    tcam_usage_without_tagging,
)
from repro.core.subclasses import assign_subclasses
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG


def _cls(cid, src, dst, path, chain, rate):
    return TrafficClass(cid, src, dst, tuple(path), PolicyChain(chain), rate)


# ---------------------------------------------------------------------------
# Table I data
# ---------------------------------------------------------------------------
def test_framework_comparison_matches_table1():
    by_name = {f.name: f for f in FRAMEWORK_COMPARISON}
    assert by_name["APPLE"].policy_enforcement
    assert by_name["APPLE"].interference_free
    assert by_name["APPLE"].isolation
    assert not by_name["SIMPLE"].interference_free
    assert not by_name["CoMb"].isolation
    assert not by_name["PACE"].policy_enforcement
    assert len(FRAMEWORK_COMPARISON) == 8


# ---------------------------------------------------------------------------
# Ingress strawman
# ---------------------------------------------------------------------------
def test_ingress_dedicates_per_class():
    classes = [
        _cls("c1", "a", "c", ("a", "b", "c"), ["firewall"], 100.0),
        _cls("c2", "a", "c", ("a", "b", "c"), ["firewall"], 100.0),
    ]
    plan = ingress_placement(classes)
    # No multiplexing: one instance per class even though both fit in one.
    assert plan.quantity("a", "firewall") == 2
    apple = OptimizationEngine().place(classes, {"a": 64, "b": 64, "c": 64})
    assert apple.total_instances() < plan.total_instances()


def test_ingress_places_everything_at_src():
    classes = [_cls("c1", "a", "c", ("a", "b", "c"), ["nat", "ids"], 700.0)]
    plan = ingress_placement(classes)
    assert set(sw for sw, _ in plan.quantities) == {"a"}
    assert plan.quantity("a", "nat") == 1
    assert plan.quantity("a", "ids") == 2  # 700 / 600 → 2


# ---------------------------------------------------------------------------
# TCAM metrics
# ---------------------------------------------------------------------------
def test_hash_range_entries_alignment():
    assert hash_range_entries(0.0, 0.5) == 1
    assert hash_range_entries(0.0, 1.0) == 1
    assert hash_range_entries(0.0, 0.3) > 1


@pytest.fixture
def small_deployment():
    classes = [
        _cls("c1", "a", "c", ("a", "b", "c"), ["firewall"], 400.0),
        _cls("c2", "c", "a", ("c", "b", "a"), ["nat"], 100.0),
    ]
    plan = OptimizationEngine().place(classes, {"a": 64, "b": 64, "c": 64})
    from repro.topology.graph import Link, Topology

    topo = Topology("line", ["a", "b", "c"], [Link("a", "b"), Link("b", "c")])
    return topo, plan, assign_subclasses(plan)


def test_tagging_reduces_tcam(small_deployment):
    topo, plan, sub_plan = small_deployment
    with_tag = sum(tcam_usage_with_tagging(topo, plan.classes, sub_plan).values())
    without = sum(
        tcam_usage_without_tagging(topo, plan.classes, sub_plan).values()
    )
    assert without > with_tag
    assert tcam_reduction_ratio(topo, plan.classes, sub_plan) > 1.0


def test_without_tagging_charges_every_path_switch(small_deployment):
    topo, plan, sub_plan = small_deployment
    usage = tcam_usage_without_tagging(topo, plan.classes, sub_plan)
    # Every switch on some class's path carries classification rules.
    assert all(usage.get(s, 0) > 0 for s in ("a", "b", "c"))


def test_with_tagging_ingress_only(small_deployment):
    topo, plan, sub_plan = small_deployment
    usage = tcam_usage_with_tagging(topo, plan.classes, sub_plan)
    hosts_in_use = {ref.switch for ref in sub_plan.instance_load}
    for sw, count in usage.items():
        if sw not in ("a", "c"):  # not an ingress of either class
            assert count <= 1 + (1 if sw in hosts_in_use else 0)


def test_free_cores_after():
    classes = [_cls("c1", "a", "c", ("a", "b", "c"), ["firewall"], 400.0)]
    cores = {"a": 64, "b": 64, "c": 64}
    plan = OptimizationEngine().place(classes, cores)
    free = free_cores_after(plan, cores)
    assert sum(free.values()) == 3 * 64 - plan.total_cores()
    assert all(v >= 0 for v in free.values())
