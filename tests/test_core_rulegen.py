"""Tests for the Rule Generator: Table III layouts + vSwitch rules."""

import pytest

from repro.core.placement import PlacementPlan
from repro.core.rulegen import RuleGenerator
from repro.core.subclasses import assign_subclasses
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import FIN, Packet
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG


def _topo():
    return Topology(
        "line",
        ["a", "b", "c"],
        [Link("a", "b"), Link("b", "c")],
        hosts={
            "a": AppleHostSpec(cores=64),
            "b": AppleHostSpec(cores=64),
            "c": AppleHostSpec(cores=64),
        },
    )


def _cls(cid, rate, chain):
    return TrafficClass(cid, "a", "c", ("a", "b", "c"), PolicyChain(chain), rate)


def _plan(quantities, distribution, classes):
    return PlacementPlan(
        quantities=dict(quantities),
        distribution=dict(distribution),
        classes=list(classes),
        catalog=DEFAULT_CATALOG,
        objective=float(sum(quantities.values())),
    )


@pytest.fixture
def deployed():
    """A two-host deployment: nat at b, firewall split between b and c."""
    cls = _cls("c1", 800.0, ["nat", "firewall"])
    plan = _plan(
        {("b", "nat"): 1, ("b", "firewall"): 1, ("c", "firewall"): 1},
        {
            ("c1", 1, 0): 1.0,
            ("c1", 1, 1): 0.5,
            ("c1", 2, 1): 0.5,
        },
        [cls],
    )
    sub_plan = assign_subclasses(plan)
    gen = RuleGenerator(DEFAULT_CATALOG)
    rules = gen.generate(plan.classes, sub_plan)
    network = DataPlaneNetwork(_topo())
    instances = gen.install(rules, network, plan.classes)
    return plan, sub_plan, rules, network, instances


def test_classification_only_at_ingress(deployed):
    plan, sub_plan, rules, network, _ = deployed
    assert rules.switch_rule_sets["a"].classifications  # ingress has them
    for switch in ("b", "c"):
        rs = rules.switch_rule_sets.get(switch)
        assert rs is None or not rs.classifications


def test_host_match_only_where_instances_live(deployed):
    _, _, rules, _, _ = deployed
    assert rules.hosts_in_use == ["b", "c"]
    assert rules.switch_rule_sets["b"].host_match
    assert rules.switch_rule_sets["c"].host_match
    assert not rules.switch_rule_sets["a"].host_match


def test_vswitch_rules_group_consecutive_steps(deployed):
    _, sub_plan, rules, _, _ = deployed
    # Sub-class 0: nat@b then firewall@b → single vSwitch rule at b with
    # both instances and FIN exit.
    b_rules = {(cid, sid): rule for cid, sid, rule in rules.vswitch_rules["b"]}
    sub0 = sub_plan.subclasses("c1")[0]
    rule0 = b_rules[("c1", sub0.sub_id)]
    if sub0.switches() == ("b", "b"):
        assert len(rule0.instance_ids) == 2
        assert rule0.exit_host_tag == FIN
    # Sub-class routed b → c exits b tagged for c.
    multi = next(
        s for s in sub_plan.subclasses("c1") if s.switches() == ("b", "c")
    )
    rule_multi = b_rules[("c1", multi.sub_id)]
    assert rule_multi.exit_host_tag == "c"


def test_installed_network_enforces_policy(deployed):
    plan, sub_plan, rules, network, _ = deployed
    for h in (0.1, 0.4, 0.6, 0.9):
        p = Packet(class_id="c1", flow_hash=h, src="a", dst="c")
        record = network.inject(p)
        assert record.delivered and record.policy_satisfied
        vnf_types = [v.split("[")[0] for v in p.vnfs_visited()]
        assert vnf_types == ["nat", "firewall"]
        assert p.switches_visited() == ["a", "b", "c"]


def test_materialize_reuses_supplied_instances(deployed):
    _plan, _sub_plan, rules, _, instances = deployed
    gen = RuleGenerator(DEFAULT_CATALOG)
    network2 = DataPlaneNetwork(_topo())
    instances2 = gen.materialize_instances(rules, network2, instances=instances)
    for key in instances:
        assert instances2[key] is instances[key]


def test_tag_allocator_sized(deployed):
    _, sub_plan, rules, _, _ = deployed
    assert rules.tag_allocator.host_id(FIN) == 0
    assert rules.tag_allocator.host_id("b") > 0
    assert (
        rules.tag_allocator.subclass_field.capacity
        >= sub_plan.max_subclasses_per_class()
    )


def test_generate_rejects_unknown_class():
    cls = _cls("c1", 100.0, ["nat"])
    plan = _plan({("b", "nat"): 1}, {("c1", 1, 0): 1.0}, [cls])
    sub_plan = assign_subclasses(plan)
    gen = RuleGenerator(DEFAULT_CATALOG)
    with pytest.raises(KeyError):
        gen.generate([], sub_plan)  # class list missing c1


def test_classification_counts(deployed):
    _, sub_plan, rules, _, _ = deployed
    assert rules.classification_rule_count() == sub_plan.total_subclasses()
