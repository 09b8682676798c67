"""Chunked-column equivalence: ``inject_columns`` must mirror scalar ``inject``.

Cutting one packet sequence into columns of any size is only an
optimisation: per-packet outcomes, the delivery ledger, and every
switch/vSwitch/instance counter must be bit-identical to driving the same
packets through the scalar walker — including drops under overload, whose
sliding admission windows span the column boundaries.
"""

from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import FIN, Packet
from repro.dataplane.sharded import ShardedDataPlane
from repro.dataplane.switch import SwitchRuleSet
from repro.dataplane.vswitch import VSwitchRule
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.vnf.instance import VNFInstance
from repro.vnf.types import NFType

from tests.rule_tables import write_rule_sets


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
    write_rule_sets(net, [
        SwitchRuleSet("s1", classifications=[("c1", (0.0, 1.0), 0, "s2")]),
        SwitchRuleSet("s2", host_match=True),
        SwitchRuleSet("s3"),
    ])
    return net, inst


def _arrivals(n=300, rate=100.0):
    """A steady CBR arrival sequence with cycling flow hashes."""
    return [((k * 0.137) % 1.0, k / rate) for k in range(1, n + 1)]


def _counters(net, inst):
    net.flush_counters()
    return {
        "stats": net.stats_snapshot().as_tuple(),
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
            tuple(inst._recent),
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
        columns = ShardedDataPlane(net)
        outcomes = []
        for i in range(0, len(arrivals), batch):
            chunk = arrivals[i : i + batch]
            outcomes.extend(columns.inject_columns(
                ["c1"], [0] * len(chunk), [h for h, _ in chunk],
                [t for _, t in chunk], collect=True,
            ))
        assert outcomes == scalar_outcomes
        assert _counters(net, inst) == expected
