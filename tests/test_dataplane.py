"""Tests for the data plane: packets, TCAM, tagging, switches, vSwitches."""

import pytest

from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import FIN, Packet
from repro.dataplane.switch import PhysicalSwitch, SwitchDecision, SwitchRuleSet
from repro.dataplane.tagging import TagAllocator, TagFieldSpec, TagSpaceExhausted
from repro.dataplane.tcam import Action, ActionKind, TcamEntry, TcamTable
from repro.dataplane.vswitch import VSwitch, VSwitchRule
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.vnf.instance import VNFInstance
from repro.vnf.types import FIREWALL, IDS, NFType

from tests.rule_tables import write_rule_sets


def _packet(class_id="c1", h=0.3, src="s1", dst="s3", **kw):
    return Packet(class_id=class_id, flow_hash=h, src=src, dst=dst, **kw)


# ---------------------------------------------------------------------------
# Packet
# ---------------------------------------------------------------------------
def test_packet_validation_and_trace():
    p = _packet()
    assert not p.tagged and not p.finished_processing
    p.visit("switch", "s1")
    p.visit("vnf", "fw[0]@s1")
    assert p.switches_visited() == ["s1"]
    assert p.vnfs_visited() == ["fw[0]@s1"]
    with pytest.raises(ValueError):
        _packet(h=1.0)
    with pytest.raises(ValueError):
        _packet(size_bytes=0)


def test_packet_fin_semantics():
    p = _packet()
    p.host_tag = FIN
    assert p.finished_processing


# ---------------------------------------------------------------------------
# TCAM
# ---------------------------------------------------------------------------
def test_tcam_priority_order():
    table = TcamTable()
    table.install(TcamEntry(priority=1, action=Action(ActionKind.GOTO_NEXT_TABLE), name="low"))
    table.install(TcamEntry(priority=9, action=Action(ActionKind.DROP), name="high"))
    entry = table.lookup(_packet())
    assert entry.name == "high"


def test_tcam_match_dimensions():
    e = TcamEntry(
        priority=1,
        action=Action(ActionKind.GOTO_NEXT_TABLE),
        host_tag_is="EMPTY",
        class_id="c1",
        hash_range=(0.0, 0.5),
    )
    assert e.matches(_packet(h=0.2))
    assert not e.matches(_packet(h=0.7))  # outside hash range
    assert not e.matches(_packet(class_id="c2", h=0.2))
    tagged = _packet(h=0.2)
    tagged.host_tag = "s5"
    assert not e.matches(tagged)  # host tag not empty


def test_tcam_hardware_expansion():
    aligned = TcamEntry(
        priority=1, action=Action(ActionKind.DROP), hash_range=(0.0, 0.5)
    )
    assert aligned.hardware_entries == 1
    unaligned = TcamEntry(
        priority=1, action=Action(ActionKind.DROP), hash_range=(0.0, 0.3)
    )
    assert unaligned.hardware_entries > 1
    plain = TcamEntry(priority=1, action=Action(ActionKind.DROP))
    assert plain.hardware_entries == 1


def test_tcam_counts_and_miss():
    table = TcamTable()
    table.install(
        TcamEntry(priority=1, action=Action(ActionKind.DROP), class_id="cX")
    )
    assert table.lookup(_packet()) is None
    assert table.miss_count == 1
    assert table.logical_entries == 1
    removed = table.remove_where(lambda e: e.action.kind is ActionKind.DROP)
    assert removed == 1 and table.logical_entries == 0


# ---------------------------------------------------------------------------
# Tagging
# ---------------------------------------------------------------------------
def test_tag_allocator_prefers_small_field():
    tags = TagAllocator()
    ids = tags.assign_host_ids([f"s{i}" for i in range(10)])
    assert tags.host_field.name == "ds"  # 11 values fit in 6 bits
    assert ids[FIN] == 0
    assert len(set(ids.values())) == 11


def test_tag_allocator_upgrades_to_vlan():
    tags = TagAllocator()
    tags.assign_host_ids([f"s{i}" for i in range(100)])  # > 64 needs VLAN
    assert tags.host_field.name == "vlan"


def test_tag_allocator_exhaustion():
    tags = TagAllocator(fields=[TagFieldSpec("tiny", 2)])
    with pytest.raises(TagSpaceExhausted):
        tags.assign_host_ids([f"s{i}" for i in range(10)])


def test_subclass_field_multiplexed_sizing():
    tags = TagAllocator()
    tags.assign_host_ids(["s1", "s2"])
    field = tags.reserve_subclass_ids(30)
    assert field.name == "vlan"  # ds already used for host IDs
    with pytest.raises(ValueError):
        tags.reserve_subclass_ids(0)


def test_unassigned_lookups_raise():
    tags = TagAllocator()
    with pytest.raises(ValueError):
        tags.host_field
    with pytest.raises(ValueError):
        tags.subclass_field
    tags.assign_host_ids(["s1"])
    with pytest.raises(KeyError):
        tags.host_id("s9")


# ---------------------------------------------------------------------------
# Physical switch (Table III semantics)
# ---------------------------------------------------------------------------
def _switch_with_rules():
    rules = SwitchRuleSet(
        switch="s1",
        host_match=True,
        classifications=[
            ("c1", (0.0, 0.5), 0, "s1"),  # first host local → divert
            ("c1", (0.5, 1.0), 1, "s2"),  # first host downstream → tag+pass
        ],
    )
    net = _line_network()
    write_rule_sets(net, [rules])
    return net.switches["s1"]


def test_classification_local_host_diverts():
    sw = _switch_with_rules()
    p = _packet(h=0.2)
    assert sw.process(p) is SwitchDecision.TO_HOST
    assert p.subclass_tag == 0


def test_classification_remote_host_tags_and_forwards():
    sw = _switch_with_rules()
    p = _packet(h=0.8)
    assert sw.process(p) is SwitchDecision.FORWARD
    assert p.subclass_tag == 1
    assert p.host_tag == "s2"


def test_host_match_rule_diverts_tagged_packet():
    sw = _switch_with_rules()
    p = _packet(h=0.8)
    p.host_tag = "s1"
    p.subclass_tag = 1
    assert sw.process(p) is SwitchDecision.TO_HOST


def test_pass_by_for_other_traffic():
    sw = _switch_with_rules()
    p = _packet(class_id="unrelated", h=0.1)
    p.host_tag = FIN
    assert sw.process(p) is SwitchDecision.FORWARD


def test_empty_table_behaves_as_pass_by():
    sw = PhysicalSwitch("s9")
    assert sw.process(_packet()) is SwitchDecision.FORWARD


def test_tcam_usage_counts_hardware_entries():
    sw = _switch_with_rules()
    # host-match 1 + two aligned classifications (1 each) + pass-by 1 = 4.
    assert sw.tcam_usage() == 4


# ---------------------------------------------------------------------------
# vSwitch
# ---------------------------------------------------------------------------
def _vswitch_with_chain():
    vsw = VSwitch("s1")
    fast = NFType("m", cores=1, capacity_mbps=1e9, clickos=True, capacity_pps=1e9)
    fw = VNFInstance("fw[0]@s1", fast, "s1")
    ids = VNFInstance("ids[0]@s1", fast, "s1")
    vsw.register_instance(fw)
    vsw.register_instance(ids)
    vsw.install_rule(
        "c1", 0, VSwitchRule(("fw[0]@s1", "ids[0]@s1"), exit_host_tag=FIN)
    )
    return vsw, fw, ids


def test_vswitch_walks_local_chain_and_tags_exit():
    vsw, fw, ids = _vswitch_with_chain()
    p = _packet()
    p.subclass_tag = 0
    out = vsw.process(p, now=0.0)
    assert out is p
    assert p.vnfs_visited() == ["fw[0]@s1", "ids[0]@s1"]
    assert p.host_tag == FIN


def test_vswitch_missing_rule_raises():
    vsw, *_ = _vswitch_with_chain()
    p = _packet(class_id="ghost")
    p.subclass_tag = 0
    with pytest.raises(KeyError):
        vsw.process(p, now=0.0)


def test_vswitch_drop_on_overloaded_instance():
    vsw = VSwitch("s1")
    tiny = NFType("m", cores=1, capacity_mbps=1e9, clickos=True, capacity_pps=10.0)
    inst = VNFInstance("m[0]@s1", tiny, "s1", window=1.0)
    vsw.register_instance(inst)
    vsw.install_rule("c1", 0, VSwitchRule(("m[0]@s1",), exit_host_tag=FIN))
    dropped = 0
    for k in range(50):
        p = _packet()
        p.subclass_tag = 0
        if vsw.process(p, now=0.01 * k) is None:
            dropped += 1
    assert dropped > 0
    assert vsw.packets_dropped == dropped


def test_vswitch_rejects_foreign_instance():
    vsw = VSwitch("s1")
    with pytest.raises(ValueError):
        vsw.register_instance(VNFInstance("fw", FIREWALL, "s2"))
    with pytest.raises(KeyError):
        vsw.install_rule("c1", 0, VSwitchRule(("ghost",), exit_host_tag=FIN))


def test_vswitch_deregister_drops_stale_rules():
    vsw, fw, ids = _vswitch_with_chain()
    vsw.deregister_instance("fw[0]@s1")
    assert not vsw.installed_rules()


# ---------------------------------------------------------------------------
# DataPlaneNetwork walking
# ---------------------------------------------------------------------------
def _line_network():
    topo = Topology(
        "line",
        ["s1", "s2", "s3"],
        [Link("s1", "s2"), Link("s2", "s3")],
        hosts={"s2": AppleHostSpec(cores=64)},
    )
    return DataPlaneNetwork(topo)


def test_network_walk_divert_and_deliver():
    net = _line_network()
    net.register_class_path("c1", ("s1", "s2", "s3"))
    fast = NFType("m", cores=1, capacity_mbps=1e9, clickos=True, capacity_pps=1e9)
    inst = VNFInstance("m[0]@s2", fast, "s2")
    vsw = net.vswitch_at("s2")
    vsw.register_instance(inst)
    vsw.install_rule("c1", 0, VSwitchRule(("m[0]@s2",), exit_host_tag=FIN))
    write_rule_sets(net, [
        SwitchRuleSet("s1", classifications=[("c1", (0.0, 1.0), 0, "s2")]),
        SwitchRuleSet("s2", host_match=True),
        SwitchRuleSet("s3"),
    ])

    record = net.inject(_packet())
    assert record.delivered and record.policy_satisfied
    assert record.packet.switches_visited() == ["s1", "s2", "s3"]
    assert record.packet.vnfs_visited() == ["m[0]@s2"]
    assert net.stats_snapshot().as_tuple() == (1, 0, 0)


def test_network_rejects_unknown_class_or_mismatched_endpoints():
    net = _line_network()
    with pytest.raises(KeyError):
        net.inject(_packet())
    net.register_class_path("c1", ("s1", "s2", "s3"))
    with pytest.raises(ValueError):
        net.inject(_packet(src="s2", dst="s3"))
    with pytest.raises(KeyError):
        net.register_class_path("bad", ("s1", "zz"))


def test_network_vswitch_lookup_errors():
    net = _line_network()
    with pytest.raises(KeyError):
        net.vswitch_at("s1")  # no host there
