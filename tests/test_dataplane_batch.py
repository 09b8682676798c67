"""Batched-walk equivalence: ``inject_stream`` must mirror scalar ``inject``.

The batched fast path is only an optimisation: per-packet outcomes, the
delivery ledger, and every switch/vSwitch/instance counter must be
bit-identical to driving the same packet sequence through the scalar
walker — including drops under overload and across batch sizes.
"""

import pytest

from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import FIN, Packet
from repro.dataplane.switch import SwitchRuleSet
from repro.dataplane.vswitch import VSwitchRule
from repro.experiments import packet_replay
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.vnf.instance import VNFInstance
from repro.vnf.types import NFType


def _line_network(capacity_pps=40.0):
    """s1 — s2(host) — s3 with one monitor instance diverting class c1.

    The default capacity is small enough that a steady 100 pps stream
    overloads the sliding-window admission and drops packets.
    """
    topo = Topology(
        "line",
        ["s1", "s2", "s3"],
        [Link("s1", "s2"), Link("s2", "s3")],
        hosts={"s2": AppleHostSpec(cores=64)},
    )
    net = DataPlaneNetwork(topo)
    net.register_class_path("c1", ("s1", "s2", "s3"))
    nf = NFType("m", cores=1, capacity_mbps=1e9, clickos=True, capacity_pps=capacity_pps)
    inst = VNFInstance("m[0]@s2", nf, "s2", window=0.1)
    vsw = net.vswitch_at("s2")
    vsw.register_instance(inst)
    vsw.install_rule("c1", 0, VSwitchRule(("m[0]@s2",), exit_host_tag=FIN))
    SwitchRuleSet(
        switch="s1", host_match=False, classifications=[("c1", (0.0, 1.0), 0, "s2")]
    ).apply(net.switches["s1"])
    SwitchRuleSet(switch="s2", host_match=True).apply(net.switches["s2"])
    SwitchRuleSet(switch="s3").apply(net.switches["s3"])
    return net, inst


def _arrivals(n=300, rate=100.0):
    """A steady CBR arrival sequence with cycling flow hashes."""
    return [((k * 0.137) % 1.0, k / rate) for k in range(1, n + 1)]


def _counters(net, inst):
    return {
        "stats": net.delivery_stats(),
        "seen": {s: sw.packets_seen for s, sw in net.switches.items()},
        "lookups": {
            s: (sw.table.lookup_count, sw.table.miss_count)
            for s, sw in net.switches.items()
        },
        "vsw": (net.vswitches["s2"].packets_in, net.vswitches["s2"].packets_dropped),
        "inst": (
            inst.stats.packets_in,
            inst.stats.packets_processed,
            inst.stats.packets_dropped,
            inst.stats.bytes_processed,
        ),
    }


def test_batch_matches_scalar_with_overload_drops():
    arrivals = _arrivals()

    scalar_net, scalar_inst = _line_network()
    scalar_outcomes = []
    for h, t in arrivals:
        r = scalar_net.inject(
            Packet(class_id="c1", flow_hash=h, src="s1", dst="s3"), now=t
        )
        scalar_outcomes.append((r.delivered, r.dropped_at))
    expected = _counters(scalar_net, scalar_inst)
    assert expected["stats"][1] > 0, "setup must actually drop packets"

    for batch in (1, 16, 300):
        net, inst = _line_network()
        outcomes = []
        for i in range(0, len(arrivals), batch):
            chunk = [("c1", h, t) for h, t in arrivals[i : i + batch]]
            outcomes.extend(net.inject_stream(chunk, collect=True))
        net.flush_counters()
        assert outcomes == scalar_outcomes
        assert _counters(net, inst) == expected


def test_batch_single_timestamp_and_rule_change_invalidation():
    net, inst = _line_network(capacity_pps=1e9)
    outcomes = net.inject_stream([("c1", h, 0.0) for h in (0.1, 0.6, 0.9)], collect=True)
    assert outcomes == [(True, None)] * 3
    assert net.delivery_stats() == (3, 0, 0)

    # Mutating any rule must invalidate cached plans: drop c1 at s1.
    from repro.dataplane.tcam import Action, ActionKind, TcamEntry

    net.switches["s1"].table.install(
        TcamEntry(priority=999, action=Action(ActionKind.DROP), class_id="c1")
    )
    outcomes = net.inject_stream([("c1", h, 1.0) for h in (0.1, 0.6, 0.9)], collect=True)
    assert outcomes == [(False, "s1")] * 3
    assert net.delivery_stats() == (3, 3, 0)


@pytest.mark.parametrize("batch", [16, 256])
def test_packet_replay_batched_is_bit_identical(batch):
    scalar = packet_replay.run(quick=True)
    batched = packet_replay.run(quick=True, batch=batch)
    assert batched.rows == scalar.rows


def test_packet_replay_batch_one_takes_scalar_path():
    scalar = packet_replay.run(quick=True)
    also_scalar = packet_replay.run(quick=True, batch=1)
    assert also_scalar.rows == scalar.rows


def test_packet_replay_batched_matches_scalar_under_overload():
    scalar = packet_replay.run(quick=True, overload_factor=1.6)
    batched = packet_replay.run(quick=True, overload_factor=1.6, batch=64)
    assert batched.rows == scalar.rows
    dropped = dict((r[0], r[1]) for r in scalar.rows)["dropped"]
    assert dropped > 0
