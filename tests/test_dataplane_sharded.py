"""Columnar-walk equivalence: ``ShardedDataPlane`` mirrors scalar inject.

The columnar layer is only an optimisation: per-packet outcomes, the
delivery ledger, and every switch/vSwitch/instance counter must be
bit-identical to driving the same packet sequence through the scalar
walker — under overload drops and mid-run chaos invalidation.
"""

from hypothesis import given, settings, strategies as st

from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import FIN, Packet
from repro.dataplane.sharded import ShardedDataPlane
from repro.dataplane.switch import SwitchRuleSet
from repro.dataplane.vswitch import VSwitchRule
from repro.experiments import packet_replay
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.vnf.instance import VNFInstance
from repro.vnf.types import NFType


# ----------------------------------------------------------------------
# Network builder
# ----------------------------------------------------------------------
def _network(class_specs):
    """s1 — s2(host) — s3 with one class per spec.

    Each spec is ``(split, capacity_pps)``: ``split`` is ``None`` for a
    single full-range instance, or a hash boundary in (0, 1) giving the
    class two sub-class instances (so the walker sees real hash intervals
    and boundary buckets).
    """
    topo = Topology(
        "line",
        ["s1", "s2", "s3"],
        [Link("s1", "s2"), Link("s2", "s3")],
        hosts={"s2": AppleHostSpec(cores=64)},
    )
    net = DataPlaneNetwork(topo)
    vsw = net.vswitch_at("s2")
    classifications = []
    instances = []
    for k, (split, capacity_pps) in enumerate(class_specs):
        cid = f"c{k}"
        net.register_class_path(cid, ("s1", "s2", "s3"))
        nf = NFType(
            "m", cores=1, capacity_mbps=1e9, clickos=True,
            capacity_pps=capacity_pps,
        )
        ranges = (
            [((0.0, 1.0), 0)]
            if split is None
            else [((0.0, split), 0), ((split, 1.0), 1)]
        )
        for rng, tag in ranges:
            inst = VNFInstance(f"m{tag}-{cid}@s2", nf, "s2", window=0.1)
            vsw.register_instance(inst)
            vsw.install_rule(cid, tag, VSwitchRule((inst.instance_id,),
                                                   exit_host_tag=FIN))
            classifications.append((cid, rng, tag, "s2"))
            instances.append(inst)
    SwitchRuleSet(
        switch="s1", host_match=False, classifications=classifications
    ).apply(net.switches["s1"])
    SwitchRuleSet(switch="s2", host_match=True).apply(net.switches["s2"])
    SwitchRuleSet(switch="s3").apply(net.switches["s3"])
    return net, instances


def _items(n_classes, n=240, rate=100.0):
    """Per-class CBR arrivals with cycling hashes, merged in time order."""
    items = []
    for k in range(n_classes):
        items += [
            (f"c{k}", (j * 0.137) % 1.0, j / rate) for j in range(1, n + 1)
        ]
    items.sort(key=lambda x: (x[2], x[0]))
    return items


def _apply_fault(net, fault):
    """Apply one chaos event to ``net``, the way the injector does."""
    instances = list(net.vswitches["s2"]._instances.values())
    kind, idx = fault
    inst = instances[idx % len(instances)]
    if kind == "invalidate":
        net.invalidate_plans()
    elif kind == "degrade":
        inst.degrade(0.5)
        net.invalidate_plans()
    elif kind == "restore":
        inst.restore_full()
        net.invalidate_plans()
    elif kind == "stop":
        inst.shutdown()
    elif kind == "restart":
        inst.running = True


def _state(net, instances):
    """Every observable counter, and the instances' sliding windows."""
    net.flush_counters()
    return {
        "stats": net.delivery_stats(),
        "seen": {s: sw.packets_seen for s, sw in net.switches.items()},
        "lookups": {
            s: (sw.table.lookup_count, sw.table.miss_count)
            for s, sw in net.switches.items()
        },
        "vsw": (net.vswitches["s2"].packets_in,
                net.vswitches["s2"].packets_dropped),
        "inst": [
            (i.stats.packets_in, i.stats.packets_processed,
             i.stats.packets_dropped, i.stats.bytes_processed, tuple(i._recent))
            for i in instances
        ],
    }


def _run_scalar(class_specs, chunks, faults):
    net, instances = _network(class_specs)
    outcomes = []
    for ci, chunk in enumerate(chunks):
        for fault in faults.get(ci, ()):
            _apply_fault(net, fault)
        for cid, h, t in chunk:
            r = net.inject(
                Packet(class_id=cid, flow_hash=h, src="s1", dst="s3"), now=t
            )
            outcomes.append((r.delivered, r.dropped_at))
    return outcomes, _state(net, instances)


def _run_columnar(class_specs, chunks, faults):
    net, instances = _network(class_specs)
    outcomes = []
    sh = ShardedDataPlane(net)
    for ci, chunk in enumerate(chunks):
        for fault in faults.get(ci, ()):
            _apply_fault(net, fault)
        outcomes.extend(sh.inject_stream(chunk, collect=True))
    return outcomes, _state(net, instances)


# ----------------------------------------------------------------------
# Property test: randomized nets and fault schedules
# ----------------------------------------------------------------------
@st.composite
def scenario(draw):
    n_classes = draw(st.integers(1, 3))
    specs = [
        (
            draw(st.sampled_from([None, 0.25, 0.5, 0.69])),
            draw(st.sampled_from([25.0, 40.0, 1e9])),
        )
        for _ in range(n_classes)
    ]
    items = _items(n_classes, n=draw(st.integers(60, 240)))
    n_chunks = draw(st.integers(1, 3))
    step = max(1, len(items) // n_chunks)
    chunks = [items[i : i + step] for i in range(0, len(items), step)]
    faults = {}
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(1, len(chunks)))
        kind = draw(st.sampled_from(
            ["invalidate", "degrade", "restore", "stop", "restart"]
        ))
        faults.setdefault(at, []).append((kind, draw(st.integers(0, 5))))
    return specs, chunks, faults


@settings(max_examples=40, deadline=None)
@given(scenario())
def test_sharded_matches_scalar_with_chaos(scn):
    specs, chunks, faults = scn
    expected_out, expected_state = _run_scalar(specs, chunks, faults)
    got_out, got_state = _run_columnar(specs, chunks, faults)
    assert got_out == expected_out
    assert got_state == expected_state


# ----------------------------------------------------------------------
# Deterministic corners
# ----------------------------------------------------------------------
def test_sharded_overload_drops_bit_identical():
    specs = [(0.5, 40.0), (None, 40.0)]
    chunks = [_items(2, n=300)]
    expected_out, expected_state = _run_scalar(specs, chunks, {})
    assert expected_state["stats"][1] > 0, "setup must actually drop packets"
    got_out, got_state = _run_columnar(specs, chunks, {})
    assert got_out == expected_out
    assert got_state == expected_state


def test_packet_replay_sharded_is_bit_identical():
    scalar = packet_replay.run(quick=True)
    columnar = packet_replay.run(quick=True, columnar=True)
    assert columnar.rows == scalar.rows


def test_packet_replay_sharded_matches_scalar_under_overload():
    scalar = packet_replay.run(quick=True, overload_factor=1.6)
    columnar = packet_replay.run(quick=True, overload_factor=1.6, columnar=True)
    assert columnar.rows == scalar.rows
    dropped = dict((r[0], r[1]) for r in scalar.rows)["dropped"]
    assert dropped > 0
