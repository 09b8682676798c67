"""Columnar-walk equivalence: ``ShardedDataPlane`` mirrors scalar inject.

The columnar layer is only an optimisation: per-packet outcomes, the
delivery ledger, and every switch/vSwitch/instance counter must be
bit-identical to driving the same packet sequence through the scalar
walker — under overload drops, mid-run chaos invalidation and rule mutations.
"""

from hypothesis import given, settings, strategies as st

from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import FIN, Packet
from repro.dataplane.sharded import ShardedDataPlane
from repro.dataplane.switch import SwitchRuleSet
from repro.dataplane.tcam import Action, ActionKind, TcamEntry
from repro.dataplane.vswitch import VSwitchRule
from repro.experiments import packet_replay
from repro.sim.sources import CBRSource
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.vnf.instance import VNFInstance
from repro.vnf.types import NFType

from tests.rule_tables import write_rule_sets


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
    write_rule_sets(net, [
        SwitchRuleSet("s1", classifications=classifications),
        SwitchRuleSet("s2", host_match=True),
        SwitchRuleSet("s3"),
    ])
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
        inst.degrade(1.0)
        net.invalidate_plans()
    elif kind == "stop":
        inst.shutdown()
    elif kind == "restart":
        inst.running = True
    elif kind == "drop":  # a rule mutation: drop one class at the ingress
        cid = sorted(net.class_paths)[idx % len(net.class_paths)]
        net.switches["s1"].table.install(
            TcamEntry(priority=999, action=Action(ActionKind.DROP), class_id=cid)
        )


def _state(net, instances):
    """Every observable counter, and the instances' sliding windows."""
    net.flush_counters()
    return {
        "stats": net.stats_snapshot().as_tuple(),
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


def _columns(items):
    """``(class_id, hash, ts)`` items as ``inject_columns`` arguments."""
    classes = sorted({cid for cid, _, _ in items})
    return (
        classes,
        [classes.index(cid) for cid, _, _ in items],
        [h for _, h, _ in items],
        [t for _, _, t in items],
    )


def _run_columnar(class_specs, chunks, faults):
    net, instances = _network(class_specs)
    outcomes = []
    sh = ShardedDataPlane(net)
    for ci, chunk in enumerate(chunks):
        for fault in faults.get(ci, ()):
            _apply_fault(net, fault)
        outcomes.extend(sh.inject_columns(*_columns(chunk), collect=True))
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
            ["invalidate", "degrade", "restore", "stop", "restart", "drop"]
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


def test_single_timestamp_column_and_rule_change_invalidation():
    # Every packet of a column at one instant, then a DROP installed at the
    # ingress between two columns: the second column must see the new rule.
    chunks = [[("c0", h, t) for h in (0.1, 0.6, 0.9)] for t in (0.0, 1.0)]
    faults = {1: [("drop", 0)]}
    expected_out, expected_state = _run_scalar([(0.5, 40.0)], chunks, faults)
    assert expected_out == [(True, None)] * 3 + [(False, "s1")] * 3
    got_out, got_state = _run_columnar([(0.5, 40.0)], chunks, faults)
    assert got_out == expected_out
    assert got_state == expected_state


# ----------------------------------------------------------------------
# packet-replay against its event-per-packet reference
# ----------------------------------------------------------------------
def _event_per_packet_replay(quick, overload_factor, walk="inject"):
    """``packet_replay.run``'s traffic, one simulator event per packet.

    One ``CBRSource`` per class started at a phase drawn from the replay's
    RNG stream, each packet handed to the network's ``walk`` method
    (``inject``, or the uncached hop-by-hop ``walk_reference``) with the
    class's next cycling hash.  Returns
    ``(sent, delivered, dropped, violations)``.
    """
    _, plan, sim, deployment = packet_replay.deploy("internet2")
    network = deployment.network
    step = getattr(network, walk)
    sent = [0]

    def consumer(cls):
        k = [0]

        def consume(size, now):
            k[0] += 1
            sent[0] += 1
            step(
                Packet(class_id=cls.class_id, flow_hash=(k[0] * 0.137) % 1.0,
                       src=cls.src, dst=cls.dst),
                now=now,
            )

        return consume

    rng = sim.rng.child("packet-replay-phases")
    sources = []
    for cls in plan.classes:
        pps = cls.rate_mbps * packet_replay.PPS_PER_MBPS * overload_factor
        if pps <= 0.5:
            continue
        src = CBRSource(sim, consumer(cls), pps, name=cls.class_id)
        sim.schedule(rng.uniform(0.0, 1.0 / pps), src.start)
        sources.append(src)
    sim.run(until=1.5 if quick else 4.0)
    for src in sources:
        src.stop()
    return (sent[0],) + network.stats_snapshot().as_tuple()


def _replay_counts(result):
    rows = dict((r[0], r[1]) for r in result.rows)
    return tuple(
        rows[k] for k in ("packets sent", "delivered", "dropped", "policy violations")
    )


def test_packet_replay_sharded_is_bit_identical():
    column = packet_replay.run(quick=True)
    assert _replay_counts(column) == _event_per_packet_replay(True, 1.0)


def test_reference_walk_inject_and_columns_agree_on_the_replay():
    """The replay's full 4 s of Internet2 traffic: the uncached hop-by-hop
    walk, per-packet ``inject`` and one column agree packet for packet,
    with no policy violation."""
    column = _replay_counts(packet_replay.run())
    assert _event_per_packet_replay(False, 1.0, walk="walk_reference") == column
    assert _event_per_packet_replay(False, 1.0) == column
    assert column[3] == 0


def test_packet_replay_sharded_matches_scalar_under_overload():
    column = packet_replay.run(quick=True, overload_factor=1.6)
    reference = _event_per_packet_replay(True, 1.6)
    assert _replay_counts(column) == reference
    assert reference[2] > 0  # the overload really drops
