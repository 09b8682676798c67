"""The generation contract of ``TcamTable``, ``VSwitch`` and the network.

The network's resolved walk plans and the southbound fabric's
installed-state view treat an unmoved counter as proof that the rules did
not change: the fabric watches each table's / vSwitch's own
``generation``, the plans watch the one network-wide rule epoch every
mutator also moves.  So every public method is either on a read-only list
below or is a mutator that must move both counters whenever it changes
state; a method added later without being classified here fails
``test_every_public_method_is_classified``.
"""

import pytest

from repro.core.verify import verify_deployment
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import Packet
from repro.dataplane.switch import SwitchRuleSet, pass_by_entry
from repro.dataplane.tcam import RuleEpoch, TcamTable
from repro.dataplane.vswitch import VSwitch, VSwitchRule
from repro.experiments.harness import standard_setup
from repro.sim.kernel import Simulator
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.vnf.instance import VNFInstance
from repro.vnf.types import DEFAULT_CATALOG

from tests.rule_tables import classify_entry, write_rule_sets

FIREWALL = DEFAULT_CATALOG.get("firewall")


def _classify(class_id: str, sub_id: int):
    return classify_entry("s1", class_id, (0.0, 1.0), sub_id, "s1")


def _table(epoch=None) -> TcamTable:
    table = TcamTable(epoch=epoch)
    table.install(pass_by_entry("s1"))
    table.install(_classify("c1", 1))
    return table


def _table_state(table: TcamTable):
    return [repr(e) for e in table.entries()]


def _vswitch(epoch=None) -> VSwitch:
    vsw = VSwitch("s1", epoch=epoch)
    vsw.register_instance(VNFInstance("fw", FIREWALL, "s1"))
    vsw.install_rule("c1", 1, VSwitchRule(("fw",), "FIN"))
    vsw.install_origin_rule("c1", (0.0, 1.0), 1, "s1")
    return vsw


def _vswitch_state(vsw: VSwitch):
    return (
        vsw.installed_rules(),
        vsw.installed_origin_rules(),
        [i.instance_id for i in vsw.instances()],
    )


#: mutator name -> a call that changes the state built above.
TCAM_MUTATORS = {
    "install": lambda t: t.install(_classify("c2", 2)),
    "remove_where": lambda t: t.remove_where(lambda e: e.class_id == "c1"),
    "remove_by_name": lambda t: t.remove_by_name(pass_by_entry("s1").name),
    "replace": lambda t: t.replace(_classify("c1", 7)),
    "sync_prefix": lambda t: t.sync_prefix(
        "s1/classify/", (_classify("c1", 1).spec, _classify("c3", 3).spec)
    ),
    "clear": lambda t: t.clear(),
}
TCAM_READ_ONLY = {
    "entries", "entry_count", "generation",
    "hash_boundaries", "logical_entries", "lookup", "match",
}
VSWITCH_MUTATORS = {
    "register_instance": lambda v: v.register_instance(
        VNFInstance("ids", FIREWALL, "s1")
    ),
    "deregister_instance": lambda v: v.deregister_instance("fw"),
    "install_rule": lambda v: v.install_rule("c1", 2, VSwitchRule(("fw",), "FIN")),
    "remove_rule": lambda v: v.remove_rule("c1", 1),
    "clear_rules": lambda v: v.clear_rules(),
    "install_origin_rule": lambda v: v.install_origin_rule("c2", (0.0, 1.0), 3, "s1"),
    "clear_origin_rules": lambda v: v.clear_origin_rules(),
}
VSWITCH_READ_ONLY = {
    "installed_origin_rules", "installed_rules", "instances", "origin_rule_count",
    "process", "process_origin", "registered", "resolve",
}


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_every_public_method_is_classified():
    assert _public(TcamTable) == TCAM_READ_ONLY | set(TCAM_MUTATORS)
    assert _public(VSwitch) == VSWITCH_READ_ONLY | set(VSWITCH_MUTATORS)
    assert _public(DataPlaneNetwork) == NETWORK_READ_ONLY | set(NETWORK_MUTATORS)


@pytest.mark.parametrize("name", sorted(TCAM_MUTATORS))
def test_tcam_mutator_moves_generation(name):
    epoch = RuleEpoch()
    table = _table(epoch)
    before, generation, seen = _table_state(table), table.generation, epoch.value
    TCAM_MUTATORS[name](table)
    assert _table_state(table) != before, "the call above must change state"
    assert table.generation != generation
    assert epoch.value != seen


@pytest.mark.parametrize("name", sorted(VSWITCH_MUTATORS))
def test_vswitch_mutator_moves_generation(name):
    epoch = RuleEpoch()
    vsw = _vswitch(epoch)
    before, generation, seen = _vswitch_state(vsw), vsw.generation, epoch.value
    VSWITCH_MUTATORS[name](vsw)
    assert _vswitch_state(vsw) != before, "the call above must change state"
    assert vsw.generation != generation
    assert epoch.value != seen


def test_read_only_calls_leave_state_and_generation_alone():
    epoch = RuleEpoch()
    table, vsw = _table(epoch), _vswitch(epoch)
    t_before, v_before = _table_state(table), _vswitch_state(vsw)
    t_gen, v_gen, seen = table.generation, vsw.generation, epoch.value
    table.match("c1", None, 0.5), table.hash_boundaries("c1")
    table.entry_count()
    assert table.remove_by_name("absent") == 0
    vsw.resolve("c1", 1), vsw.registered("fw")
    assert vsw.remove_rule("c1", 99) is False
    assert (_table_state(table), table.generation) == (t_before, t_gen)
    assert (_vswitch_state(vsw), vsw.generation) == (v_before, v_gen)
    assert epoch.value == seen


# ----------------------------------------------------------------------
# The network-wide rule epoch
# ----------------------------------------------------------------------
def _network() -> DataPlaneNetwork:
    """s1 — s2(host) — s3: class c1 through one firewall at s2, and class
    c3 born at a production VM inside that host (Fig. 3)."""
    topo = Topology(
        "line",
        ["s1", "s2", "s3"],
        [Link("s1", "s2"), Link("s2", "s3")],
        hosts={"s2": AppleHostSpec(cores=64)},
    )
    net = DataPlaneNetwork(topo)
    net.register_class_path("c1", ("s1", "s2", "s3"))
    vsw = net.vswitch_at("s2")
    vsw.register_instance(VNFInstance("fw", FIREWALL, "s2"))
    vsw.install_rule("c1", 1, VSwitchRule(("fw",), "FIN"))
    net.register_class_path("c3", ("s2", "s3"))
    vsw.install_rule("c3", 1, VSwitchRule(("fw",), "FIN"))
    vsw.install_origin_rule("c3", (0.0, 1.0), 1, "s2")
    write_rule_sets(net, [
        SwitchRuleSet("s1", classifications=[("c1", (0.0, 1.0), 1, "s2")]),
        SwitchRuleSet("s2", host_match=True),
        SwitchRuleSet("s3"),
    ])
    return net


def _probe(h: float = 0.5) -> Packet:
    return Packet(class_id="c1", flow_hash=h, src="s1", dst="s3")


NETWORK_MUTATORS = {
    "register_class_path": lambda n: n.register_class_path("c2", ("s1", "s2")),
    "set_link_failed": lambda n: n.set_link_failed("s1", "s2", True),
    "invalidate_plans": lambda n: n.invalidate_plans(),
}
#: Walking packets and reading or zeroing counters resolves and replays
#: plans but changes no rule: the cache must survive all of it.
NETWORK_READ_ONLY_CALLS = {
    "inject": lambda n: n.inject(_probe()),
    "walk_reference": lambda n: n.walk_reference(_probe()),
    "inject_from_host": lambda n: n.inject_from_host(
        Packet("c3", 0.5, "s2", "s3")
    ),
    "flush_counters": lambda n: n.flush_counters(),
    "class_intervals": lambda n: n.class_intervals("c1"),
    "interval_plan": lambda n: n.interval_plan(n.class_intervals("c1"), 0),
    "stats_snapshot": lambda n: n.stats_snapshot(),
    "reset_records": lambda n: n.reset_records(),
    "reset_runtime_state": lambda n: n.reset_runtime_state(),
    "tcam_usage_by_switch": lambda n: n.tcam_usage_by_switch(),
    "total_tcam_usage": lambda n: n.total_tcam_usage(),
    "vswitch_at": lambda n: n.vswitch_at("s2"),
    "rule_epoch": lambda n: n.rule_epoch,
}
NETWORK_READ_ONLY = set(NETWORK_READ_ONLY_CALLS) | {
    # constants and plain data attributes, not calls
    "MAX_HOPS", "RECENT_RECORDS",
}


@pytest.mark.parametrize("name", sorted(NETWORK_MUTATORS))
def test_network_mutator_moves_epoch(name):
    net = _network()
    seen = net.rule_epoch
    NETWORK_MUTATORS[name](net)
    assert net.rule_epoch != seen


def test_table_and_vswitch_mutators_move_the_network_epoch():
    for name, mutate in TCAM_MUTATORS.items():
        net = _network()
        table = net.switches["s1"].table
        table.install(_classify("c1", 1))
        seen = net.rule_epoch
        mutate(table)
        assert net.rule_epoch != seen, name
    for name, mutate in VSWITCH_MUTATORS.items():
        vsw = _vswitch(epoch := RuleEpoch())
        seen = epoch.value
        mutate(vsw)
        assert epoch.value != seen, name
    net = _network()
    seen = net.rule_epoch
    net.vswitch_at("s2").clear_rules()
    assert net.rule_epoch != seen


def test_read_only_network_calls_leave_the_epoch_and_the_plans_alone():
    net = _network()
    net.inject(_probe())  # resolve the one plan
    plan = net.class_intervals("c1").plans[0]
    assert plan is not None
    seen = net.rule_epoch
    for name, call in NETWORK_READ_ONLY_CALLS.items():
        call(net)
        assert net.rule_epoch == seen, name
        assert net.class_intervals("c1").plans[0] is plan, name


def test_epoch_move_is_seen_by_the_next_packet():
    net = _network()
    assert net.inject(_probe()).delivered
    net.set_link_failed("s2", "s3", True)
    record = net.inject(_probe())
    assert (record.delivered, record.dropped_at) == (False, "s2")
    net.set_link_failed("s2", "s3", False)
    assert net.inject(_probe()).delivered


# ----------------------------------------------------------------------
# The audit does not trust the cache it audits
# ----------------------------------------------------------------------
def _deployment():
    topo, controller, series = standard_setup("internet2", snapshots=2)
    plan = controller.compute_placement(series.mean())
    return topo, controller.deploy(plan, sim=Simulator(seed=3))


def _report(deployment, topo):
    deployment.network.reset_runtime_state()
    report = verify_deployment(deployment, topo)
    return report.probes_sent, report.probes_delivered, [
        (v.kind, v.class_id, v.detail) for v in report.violations
    ]


def _warm(deployment):
    net = deployment.network
    for cls in deployment.plan.classes:
        for k in range(8):
            net.inject(Packet(cls.class_id, (k * 0.137) % 1.0, cls.src, cls.dst))
    assert any(cp.plans[0] is not None for cp in net._class_plans.values())


def test_verify_report_is_the_same_with_a_warm_and_a_cold_plan_cache():
    topo, deployment = _deployment()
    cold = _report(deployment, topo)
    _warm(deployment)
    assert _report(deployment, topo) == cold
    assert cold[0] > 0 and cold[2] == []


def test_verify_catches_sabotage_behind_a_warm_plan_cache():
    topo, deployment = _deployment()
    _warm(deployment)
    # Rewrite one vSwitch rule behind the generation counter's back: no
    # epoch moves, so every cached plan still describes the old rules.
    vsw = next(v for v in deployment.network.vswitches.values() if v._rules)
    key, rule = next(iter(vsw._rules.items()))
    vsw._rules[key] = VSwitchRule(rule.instance_ids[:-1], rule.exit_host_tag)
    kinds = {kind for kind, _cls, _detail in _report(deployment, topo)[2]}
    assert "policy" in kinds
