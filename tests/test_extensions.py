"""Tests for the Sec. X / discussion extensions.

Covers: the source-suffix hash of prefix sub-classes, global sub-class IDs
for header-modifying chains, and the memory dimension of the resource
vector.
"""

import pytest

from repro.core.engine import OptimizationEngine, PlacementError
from repro.core.placement import PlacementPlan
from repro.core.rulegen import RuleGenerator
from repro.core.subclasses import assign_subclasses
from repro.dataplane.flowhash import suffix_hash
from repro.dataplane.tagging import TagAllocator, TagSpaceExhausted
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG, NAT


def _cls(cid, rate, chain, path=("a", "b", "c")):
    return TrafficClass(
        cid, path[0], path[-1], tuple(path), PolicyChain(list(chain)), rate
    )


# ---------------------------------------------------------------------------
# Flow hashing
# ---------------------------------------------------------------------------
def test_suffix_hash_matches_prefix_split():
    # 10.1.1.128 has suffix 128/256 = 0.5 within its /24 — the paper's
    # <10.1.1.128/25> sub-class is exactly suffix_hash in [0.5, 1).
    assert suffix_hash({"src_ip": (10 << 24) | (1 << 16) | (1 << 8) | 128}, 24) == 0.5
    assert suffix_hash({"src_ip": (10 << 24) | 255}, 24) > 0.99
    assert suffix_hash({"src_ip": 1234}, 32) == 0.0
    with pytest.raises(ValueError):
        suffix_hash({}, 40)


# ---------------------------------------------------------------------------
# Global sub-class IDs (header-modifying NFs, Sec. X)
# ---------------------------------------------------------------------------
def test_nat_modifies_headers_in_catalog():
    assert NAT.modifies_headers
    assert not DEFAULT_CATALOG.get("firewall").modifies_headers


def test_global_subclass_reservation():
    tags = TagAllocator()
    tags.assign_host_ids(["s1", "s2"])
    tags.reserve_global_subclass_ids(500)
    assert tags.global_subclass_ids
    assert tags.subclass_field.capacity >= 500
    with pytest.raises(ValueError):
        tags.reserve_global_subclass_ids(0)


def _rules_for(chain):
    cls = _cls("c1", 100.0, chain)
    plan = OptimizationEngine().place(cls and [cls], {"a": 64, "b": 64, "c": 64})
    sub_plan = assign_subclasses(plan)
    gen = RuleGenerator(DEFAULT_CATALOG)
    return gen.generate(plan.classes, sub_plan)


def test_nat_mid_chain_forces_global_ids():
    rules = _rules_for(["nat", "firewall"])  # NAT before the end
    assert rules.tag_allocator.global_subclass_ids


def test_nat_last_keeps_multiplexed_ids():
    rules = _rules_for(["firewall", "nat"])  # NAT is the final NF: the
    # rewritten header never needs re-classification downstream.
    assert not rules.tag_allocator.global_subclass_ids


def test_chain_without_modifier_keeps_multiplexed_ids():
    rules = _rules_for(["firewall", "ids"])
    assert not rules.tag_allocator.global_subclass_ids


def _one_subclass_per_class(n):
    """``n`` NAT → firewall classes sharing one instance of each NF."""
    classes = [_cls(f"c{k}", 0.1, ["nat", "firewall"]) for k in range(n)]
    distribution = {(c.class_id, 0, j): 1.0 for c in classes for j in range(2)}
    plan = PlacementPlan(
        quantities={("a", "nat"): 1, ("a", "firewall"): 1},
        distribution=distribution,
        classes=classes,
        catalog=DEFAULT_CATALOG,
        objective=2.0,
    )
    return plan, assign_subclasses(plan)


def test_global_subclass_ids_stop_at_the_vlan_field():
    """With a header-modifying NF before the end of the chain, every
    sub-class in the network needs its own tag: 4,096 fit the 12-bit VLAN
    field, one more does not.  This is what bounds a deployable instance."""
    plan, subs = _one_subclass_per_class(4096)
    assert subs.total_subclasses() == 4096
    tags = RuleGenerator(DEFAULT_CATALOG).generate(plan.classes, subs).tag_allocator
    assert tags.global_subclass_ids
    assert tags.subclass_field.name == "vlan"

    plan, subs = _one_subclass_per_class(4097)
    with pytest.raises(TagSpaceExhausted, match="4097 global"):
        RuleGenerator(DEFAULT_CATALOG).generate(plan.classes, subs)


# ---------------------------------------------------------------------------
# Memory resource dimension
# ---------------------------------------------------------------------------
def test_memory_constraint_blocks_placement():
    cls = _cls("c1", 100.0, ["ids"])  # ids: 8 GB per instance
    cores = {"a": 64, "b": 64, "c": 64}
    engine = OptimizationEngine()
    ok = engine.place([cls], cores, available_memory_gb={"a": 8, "b": 8, "c": 8})
    assert ok.total_instances() == 1
    with pytest.raises(PlacementError):
        engine.place([cls], cores, available_memory_gb={"a": 4, "b": 4, "c": 4})


def test_infeasible_rounding_names_the_slot():
    # The name is derived from the column index when the error is raised;
    # nothing stores a name per variable at build time.
    cls = _cls("c1", 100.0, ["ids"])
    with pytest.raises(PlacementError) as err:
        OptimizationEngine().place(
            [cls], {"a": 64, "b": 64, "c": 64},
            available_memory_gb={"a": 4, "b": 4, "c": 4},
        )
    assert str(err.value) == (
        "placement infeasible: model 'apple-placement': "
        "variable 'q[a,ids]' admits no feasible rounding"
    )


def test_memory_steers_placement_to_roomy_switch():
    cls = _cls("c1", 100.0, ["ids"])
    cores = {"a": 64, "b": 64, "c": 64}
    plan = OptimizationEngine().place(
        [cls], cores, available_memory_gb={"a": 0.5, "b": 64.0, "c": 0.5}
    )
    assert plan.quantity("b", "ids") == 1
    assert not plan.validate(
        cores, available_memory_gb={"a": 0.5, "b": 64.0, "c": 0.5}
    )


def test_validate_reports_memory_violations():
    cls = _cls("c1", 100.0, ["ids"])
    plan = OptimizationEngine().place([cls], {"a": 64, "b": 64, "c": 64})
    problems = plan.validate(
        {"a": 64, "b": 64, "c": 64}, available_memory_gb={"a": 0, "b": 0, "c": 0}
    )
    assert any("GB placed" in p for p in problems)
