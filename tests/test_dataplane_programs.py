"""Walk-program equivalence: ``inject`` must mirror the reference walker.

``DataPlaneNetwork.inject`` replays a walk resolved once per (class, hash
interval); ``walk_reference`` runs the Table III pipeline hop by hop with
no cache in front of it.  Two identically installed networks are driven
with one event stream — packets, faults, rule mutations — and must agree
on every packet (outcome, drop site, trace, both tags), on every counter
(except ``cache_hits``, which only the replay counts) and on the ledger.
The column walker's entry validation has its regressions at the end.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import FIN, Packet
from repro.dataplane.sharded import ShardedDataPlane
from repro.dataplane.switch import SwitchRuleSet, classification_spec, host_match_entry
from repro.dataplane.tcam import Action, ActionKind, TcamEntry
from repro.dataplane.vswitch import VSwitchRule
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.vnf.instance import VNFInstance
from repro.vnf.types import NFType

from tests.rule_tables import classify_entry, write_rule_sets
from tests.test_dataplane_generation import TCAM_MUTATORS, VSWITCH_MUTATORS

CAPACITY_PPS = 40.0  # budget: 4 packets per 0.1 s window
SPLIT = 0.3  # not a multiple of 2**-16: the edge falls inside a prefix bucket
CLASSES = {
    "c0": ("s1", "s2", "s3", "s4"),  # two sub-classes, chain over two hosts
    "c1": ("s1", "s2", "s3", "s4"),  # first host is remote (tag and pass on)
    "c2": ("s2", "s3", "s4"),  # first host is the ingress switch itself
    "c3": ("s2", "s3", "s4"),  # born at a production VM inside host s2
    "c4": ("s1", "s2", "s3", "s4"),  # a NAT at s2, then a hash-ranged match
}
NAT_SPLIT = 0.6  # s3 drops c4's hashes from here up, after the NAT at s2
DETOUR = {"c0": ("s1", "s5", "s4"), "c1": ("s1", "s5", "s4")}


def _build():
    """s1 — s2(host) — s3(host) — s4, plus a detour s1 — s5 — s4.

    c4's chain starts with a NAT (``modifies_headers``) at s2, and s3 then
    matches c4's packets — tagged for s3 by then — on their hash: the
    upper part is dropped before the host.  The rule generator never
    installs a hash-ranged entry for tagged packets; walks must stay exact
    if one is there.
    """
    topo = Topology(
        "ladder",
        ["s1", "s2", "s3", "s4", "s5"],
        [Link("s1", "s2"), Link("s2", "s3"), Link("s3", "s4"),
         Link("s1", "s5"), Link("s5", "s4")],
        hosts={"s2": AppleHostSpec(cores=64), "s3": AppleHostSpec(cores=64)},
    )
    net = DataPlaneNetwork(topo)
    for class_id, path in CLASSES.items():
        net.register_class_path(class_id, path)
    nf = NFType("m", cores=1, capacity_mbps=1e9, clickos=True,
                capacity_pps=CAPACITY_PPS)
    instances = {}
    for name, switch in [("a", "s2"), ("b", "s3"), ("c", "s2"), ("d", "s3"),
                         ("e", "s3"), ("f", "s2")]:
        inst = instances[name] = VNFInstance(name, nf, switch, window=0.1)
        net.vswitch_at(switch).register_instance(inst)
    nat = NFType("nat", cores=1, capacity_mbps=1e9, clickos=True,
                 capacity_pps=CAPACITY_PPS, modifies_headers=True)
    instances["n"] = VNFInstance("n", nat, "s2", window=0.1)
    net.vswitch_at("s2").register_instance(instances["n"])
    v2, v3 = net.vswitch_at("s2"), net.vswitch_at("s3")
    v2.install_rule("c0", 0, VSwitchRule(("a",), exit_host_tag="s3"))
    v3.install_rule("c0", 0, VSwitchRule(("b",), exit_host_tag=FIN))
    v2.install_rule("c0", 1, VSwitchRule(("c",), exit_host_tag=FIN))
    v3.install_rule("c1", 0, VSwitchRule(("d", "e"), exit_host_tag=FIN))
    v2.install_rule("c2", 0, VSwitchRule(("f", "a"), exit_host_tag=FIN))
    v2.install_rule("c3", 0, VSwitchRule(("c",), exit_host_tag="s3"))
    v3.install_rule("c3", 0, VSwitchRule(("e",), exit_host_tag=FIN))
    v2.install_origin_rule("c3", (0.0, 1.0), 0, "s2")
    v2.install_rule("c4", 0, VSwitchRule(("n",), exit_host_tag="s3"))
    v3.install_rule("c4", 0, VSwitchRule(("e",), exit_host_tag=FIN))
    write_rule_sets(net, [
        SwitchRuleSet("s1", classifications=[
            ("c0", (0.0, SPLIT), 0, "s2"),
            ("c0", (SPLIT, 1.0), 1, "s2"),
            ("c1", (0.0, 1.0), 0, "s3"),
            ("c4", (0.0, 1.0), 0, "s2"),
        ]),
        SwitchRuleSet("s2", host_match=True, classifications=[
            ("c2", (0.0, 1.0), 0, "s2"),
        ]),
        SwitchRuleSet("s3", host_match=True),
        SwitchRuleSet("s4"),
        SwitchRuleSet("s5"),
    ])
    net.switches["s3"].table.install(TcamEntry(
        priority=999, action=Action(ActionKind.DROP), host_tag_is="s3",
        class_id="c4", hash_range=(NAT_SPLIT, 1.0), name="s3/drop/c4",
    ))
    return net, instances


# ----------------------------------------------------------------------
# Events: each is applied to both networks, in the same order
# ----------------------------------------------------------------------
#: One state-changing call per mutator of the generation contract, picked
#: so the walk of some class changes: drops, lost tags (violations), a
#: moved interval edge, a missing rule (KeyError), a table that misses.
MUTATIONS = {
    "install": lambda n, i: n.switches["s3"].table.install(
        TcamEntry(priority=999, action=Action(ActionKind.DROP), class_id="c1")
    ),
    "remove_where": lambda n, i: n.switches["s1"].table.remove_where(
        lambda e: e.class_id == "c1"
    ),
    "remove_by_name": lambda n, i: n.switches["s3"].table.remove_by_name(
        host_match_entry("s3").name
    ),
    "replace": lambda n, i: n.switches["s1"].table.replace(
        classify_entry("s1", "c0", (0.8, 1.0), 1, "s2")
    ),
    "sync_prefix": lambda n, i: n.switches["s1"].table.sync_prefix(
        "s1/classify/",
        (
            classification_spec("s1", "c0", (0.0, 0.8), 1, "s2"),
            classification_spec("s1", "c1", (0.0, 1.0), 0, "s3"),
        ),
    ),
    "clear": lambda n, i: n.switches["s1"].table.clear(),
    "register_instance": lambda n, i: n.vswitch_at("s3").register_instance(
        i["d"], alias="b"
    ),
    "deregister_instance": lambda n, i: n.vswitch_at("s2").deregister_instance("f"),
    "install_rule": lambda n, i: n.vswitch_at("s3").install_rule(
        "c1", 0, VSwitchRule(("e",), exit_host_tag=FIN)
    ),
    "remove_rule": lambda n, i: n.vswitch_at("s2").remove_rule("c0", 1),
    "clear_rules": lambda n, i: n.vswitch_at("s3").clear_rules(),
    "install_origin_rule": lambda n, i: n.vswitch_at("s2").install_origin_rule(
        "c3", (0.0, 0.5), 0, "s3"
    ),
    "clear_origin_rules": lambda n, i: n.vswitch_at("s2").clear_origin_rules(),
}


def test_every_mutator_of_the_generation_contract_is_exercised():
    assert set(MUTATIONS) == set(TCAM_MUTATORS) | set(VSWITCH_MUTATORS)


def _edge_hashes(net, class_id):
    """0, just below 1, and every interval edge with its two neighbours."""
    out = [0.0, math.nextafter(1.0, 0.0)]
    for edge in net.class_intervals(class_id).cuts:
        out += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
    return out


def _counters(net):
    """Every counter of a network (``test_dataplane_sharded._state``'s shape,
    keyed by name so it fits any topology; ``cache_hits`` included)."""
    net.flush_counters()
    return {
        "stats": net.stats_snapshot().as_tuple(),
        "switches": {
            s: (sw.packets_seen, sw.table.lookup_count, sw.table.miss_count,
                sw.table.cache_hits)
            for s, sw in net.switches.items()
        },
        "vsw": {
            s: (vsw.packets_in, vsw.packets_dropped)
            for s, vsw in net.vswitches.items()
        },
        "inst": {
            (s, alias): (i.stats.packets_in, i.stats.packets_processed,
                         i.stats.packets_dropped, i.stats.bytes_processed)
            for s, vsw in net.vswitches.items()
            for alias, i in vsw._instances.items()
        },
    }


class _Pair:
    """The replay network and the reference network, driven in lockstep."""

    def __init__(self):
        self.replay, self.replay_inst = _build()
        self.reference, self.reference_inst = _build()
        self.now = 0.0

    def both(self, fn):
        fn(self.replay, self.replay_inst)
        fn(self.reference, self.reference_inst)

    @staticmethod
    def _observe(walk, packet, now):
        try:
            record = walk(packet, now)
        except (KeyError, RuntimeError, ValueError) as exc:
            return ("raised", type(exc).__name__, str(exc), packet.trace,
                    packet.host_tag, packet.subclass_tag)
        return (record.delivered, record.dropped_at, packet.trace,
                packet.host_tag, packet.subclass_tag)

    def packet(self, class_id, h, host_tag=None, subclass_tag=None):
        """One packet into each network; they must agree on everything."""
        path = self.replay.class_paths[class_id]

        def make():
            return Packet(class_id, h, path[0], path[-1],
                          host_tag=host_tag, subclass_tag=subclass_tag)

        got = self._observe(self.replay.inject, make(), self.now)
        want = self._observe(self.reference.walk_reference, make(), self.now)
        assert got == want, (class_id, h, self.now)
        return got

    def origin(self, h):
        got = self._observe(
            self.replay.inject_from_host, Packet("c3", h, "s2", "s4"), self.now
        )
        want = self._observe(
            self.reference.inject_from_host, Packet("c3", h, "s2", "s4"), self.now
        )
        assert got == want, ("origin", h, self.now)

    def check_totals(self):
        got, want = (_counters(n) for n in (self.replay, self.reference))
        assert got["stats"] == want["stats"]
        assert got["vsw"] == want["vsw"]
        assert got["inst"] == want["inst"]
        assert {k: v[:3] for k, v in got["switches"].items()} == {
            k: v[:3] for k, v in want["switches"].items()
        }
        # cache_hits: the replay counts the hops it answered from a plan,
        # the reference walker scans every time and counts none.
        assert all(v[3] == 0 for v in want["switches"].values())
        assert all(v[3] <= v[1] for v in got["switches"].values())
        assert self.replay.stats_snapshot() == self.reference.stats_snapshot()
        assert [tuple(i._recent) for i in self.replay_inst.values()] == [
            tuple(i._recent) for i in self.reference_inst.values()
        ]
        assert [(r.delivered, r.dropped_at) for r in self.replay.recent_records] == [
            (r.delivered, r.dropped_at) for r in self.reference.recent_records
        ]


# ----------------------------------------------------------------------
# Property: random interleavings of traffic, faults and mutations
# ----------------------------------------------------------------------
_CLASS = st.sampled_from(["c0", "c1", "c2", "c4"])
_INSTANCE = st.sampled_from(["a", "b", "c", "d", "e", "f", "n"])
_LINK = st.sampled_from([("s1", "s2"), ("s2", "s3"), ("s3", "s4"), ("s5", "s4")])
_HASH = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True, allow_nan=False),
    st.integers(0, 64).map(lambda k: ("edge", k)),
)
_EVENT = st.one_of(
    st.tuples(st.just("packet"), _CLASS, _HASH),
    st.tuples(st.just("packet"), _CLASS, _HASH),
    st.tuples(st.just("burst"), _CLASS, st.integers(5, 12)),
    st.tuples(st.just("tagged"), _CLASS, _HASH, st.sampled_from(["s2", "s3", FIN])),
    st.tuples(st.just("origin"), _HASH),
    st.tuples(st.just("tick"), st.sampled_from([0.001, 0.01, 0.05, 0.2])),
    st.tuples(st.just("link"), _LINK, st.booleans()),
    st.tuples(st.just("shutdown"), _INSTANCE),
    st.tuples(st.just("restart"), _INSTANCE),
    st.tuples(st.just("degrade"), _INSTANCE, st.sampled_from([0.25, 0.5, 1.0])),
    st.tuples(st.just("mutate"), st.sampled_from(sorted(MUTATIONS))),
    st.tuples(st.just("reregister"), st.sampled_from(sorted(DETOUR)), st.booleans()),
    st.tuples(st.just("invalidate")),
    st.tuples(st.just("reset")),
)


def _hash(pair, class_id, h):
    if isinstance(h, tuple):
        edges = _edge_hashes(pair.replay, class_id)
        return edges[h[1] % len(edges)]
    return h


def _apply(pair, event):
    kind = event[0]
    if kind == "packet":
        pair.packet(event[1], _hash(pair, event[1], event[2]))
    elif kind == "burst":  # far over the window budget: must drop
        for k in range(event[2]):
            pair.packet(event[1], (k * 0.137) % 1.0)
    elif kind == "tagged":  # not at its ingress classification any more
        pair.packet(event[1], _hash(pair, event[1], event[2]),
                    host_tag=event[3], subclass_tag=0)
    elif kind == "origin":
        pair.origin(_hash(pair, "c3", event[1]))
    elif kind == "tick":
        pair.now += event[1]
    elif kind == "link":
        pair.both(lambda n, i: n.set_link_failed(*event[1], event[2]))
    elif kind == "shutdown":  # no epoch move: the replay must see it live
        pair.both(lambda n, i: i[event[1]].shutdown())
    elif kind == "restart":
        pair.both(lambda n, i: setattr(i[event[1]], "running", True))
    elif kind == "degrade":  # no invalidate_plans() either
        pair.both(lambda n, i: i[event[1]].degrade(event[2]))
    elif kind == "mutate":
        try:
            pair.both(MUTATIONS[event[1]])
        except KeyError:
            pass  # e.g. a rule naming an instance an earlier event removed
    elif kind == "reregister":
        path = DETOUR[event[1]] if event[2] else CLASSES[event[1]]
        pair.both(lambda n, i: n.register_class_path(event[1], path))
    elif kind == "invalidate":
        pair.both(lambda n, i: n.invalidate_plans())
    elif kind == "reset":
        pair.both(lambda n, i: n.reset_runtime_state())


@settings(max_examples=150, deadline=None)
@given(st.lists(_EVENT, min_size=5, max_size=60))
def test_inject_matches_the_reference_walker(events):
    pair = _Pair()
    for class_id in ("c0", "c1", "c2", "c4"):  # warm every plan before the first event
        for h in _edge_hashes(pair.replay, class_id):
            pair.packet(class_id, h)
    pair.now += 1.0
    for event in events:
        _apply(pair, event)
    pair.check_totals()


# ----------------------------------------------------------------------
# Deterministic corners
# ----------------------------------------------------------------------
def _cbr(pair, seconds, load):
    """Every class at ``load`` × the instance capacity, hashes cycling
    through the edge set and a fixed stride; returns per-packet outcomes."""
    gap = 1.0 / (CAPACITY_PPS * load)
    outcomes = []
    for k in range(int(seconds / gap)):
        pair.now = k * gap
        for class_id in ("c0", "c1", "c2"):
            edges = _edge_hashes(pair.replay, class_id)
            h = edges[k % len(edges)] if k % 3 == 0 else (k * 0.137) % 1.0
            outcomes.append(pair.packet(class_id, h))
        pair.origin((k * 0.137) % 1.0)
    return outcomes


def test_overload_at_1_6x_drops_identically():
    pair = _Pair()
    outcomes = _cbr(pair, seconds=3.0, load=1.6)
    pair.check_totals()
    delivered, dropped, violations = pair.replay.stats_snapshot().as_tuple()
    assert dropped > 0.2 * len(outcomes) and delivered > 0 and violations == 0
    assert {o[1] for o in outcomes} >= {None, "s2", "s3"}  # every drop site


def test_edge_hashes_land_where_the_rules_put_them():
    pair = _Pair()
    below, on, above = (
        pair.packet("c0", h)
        for h in (math.nextafter(SPLIT, 0.0), SPLIT, math.nextafter(SPLIT, 1.0))
    )
    assert below[4] == 0 and on[4] == 1 and above[4] == 1  # sub-class tags
    assert [name for kind, name in below[2] if kind == "vnf"] == ["a", "b"]
    assert [name for kind, name in on[2] if kind == "vnf"] == ["c"]
    assert pair.replay.class_intervals("c0").cuts == [SPLIT]


def test_shutdown_and_degrade_are_seen_without_an_epoch_move():
    pair = _Pair()
    assert pair.packet("c1", 0.5)[0] is True
    epoch = pair.replay.rule_epoch
    pair.both(lambda n, i: i["e"].shutdown())
    assert pair.packet("c1", 0.5)[:2] == (False, "s3")
    pair.both(lambda n, i: setattr(i["e"], "running", True))
    pair.both(lambda n, i: i["d"].degrade(0.25))  # budget 4 → 1 per window
    pair.now = 10.0
    assert [pair.packet("c1", 0.5)[0] for _ in range(3)] == [True, False, False]
    assert pair.replay.rule_epoch == epoch
    pair.check_totals()


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_the_packet_after_a_mutation_sees_the_new_rules(name):
    pair = _Pair()
    before = [pair.packet(c, h) for c in ("c0", "c1", "c2") for h in (0.1, 0.7)]
    pair.origin(0.1)
    epoch = pair.replay.rule_epoch
    pair.both(MUTATIONS[name])
    assert pair.replay.rule_epoch != epoch
    pair.now = 5.0
    after = [pair.packet(c, h) for c in ("c0", "c1", "c2") for h in (0.1, 0.7)]
    pair.origin(0.1)
    if name not in ("register_instance", "install_origin_rule", "clear_origin_rules"):
        assert after != before  # the mutation changes some ingress walk
    pair.check_totals()


def test_reregistered_path_is_walked_by_the_next_packet():
    pair = _Pair()
    assert pair.packet("c1", 0.5)[:2] == (True, None)
    pair.both(lambda n, i: n.register_class_path("c1", DETOUR["c1"]))
    outcome = pair.packet("c1", 0.5)
    assert [name for kind, name in outcome[2] if kind == "switch"] == ["s1", "s5", "s4"]
    assert outcome[3] == "s3"  # still tagged for a host the detour never meets
    assert pair.replay.stats_snapshot().violations == 1
    pair.check_totals()


def test_hash_ranged_match_after_a_nat_splits_where_the_ingress_cut():
    # The NAT at s2 leaves flow_hash alone, so s3's match on c4's tagged
    # packets splits the class at an edge the ingress plan already has.
    pair = _Pair()
    below, on = (
        pair.packet("c4", h) for h in (math.nextafter(NAT_SPLIT, 0.0), NAT_SPLIT)
    )
    assert below[:2] == (True, None) and on[:2] == (False, "s3")
    assert [name for kind, name in below[2] if kind == "vnf"] == ["n", "e"]
    assert [name for kind, name in on[2] if kind == "vnf"] == ["n"]
    assert pair.replay.class_intervals("c4").cuts == [NAT_SPLIT]
    pair.now = 1.0
    burst = [pair.packet("c4", (k * 0.137) % 1.0)[:2] for k in range(8)]
    assert burst == [(True, None)] * 4 + [(False, "s2")] * 4  # the NAT's budget is 4
    pair.check_totals()


@pytest.mark.parametrize(
    "items, size, pattern",
    [
        ([("c1", 1.5, 0.0)], 1500, r"flow_hash must be in \[0, 1\)"),
        ([("c1", math.nan, 0.0)], 1500, r"flow_hash must be in \[0, 1\)"),
        ([("c1", -0.2, 0.0)], 1500, r"flow_hash must be in \[0, 1\)"),
        ([("c1", 0.5, 1.0), ("c1", 0.5, 0.5)], 1500,
         "ts must be finite and non-decreasing"),
        ([("c1", 0.5, math.nan)], 1500, "ts must be finite and non-decreasing"),
        ([("c1", 0.5, -math.inf), ("c1", 0.5, 0.0)], 1500, "ts must be finite"),
        ([("c1", 0.5, 0.0), ("c1", 0.5, math.inf)], 1500, "ts must be finite"),
        ([("c1", 0.5, 0.0)], -1500, "size_bytes must be positive"),
        ([("c1", 0.5, 0.0)], 0, "size_bytes must be positive"),
    ],
    ids=["hash-above", "hash-nan", "hash-below", "ts-decreasing", "ts-nan",
         "ts-minus-inf", "ts-inf", "size-negative", "size-zero"],
)
def test_inject_stream_refuses_what_every_other_walker_refuses(items, size, pattern):
    # A stream of (class, hash, ts) items, given to the column walker as
    # columns, is refused whole where Packet() refuses one of its packets or
    # the times run backwards: nothing walked, nothing counted.
    net, instances = _build()
    with pytest.raises(ValueError, match=pattern):
        ShardedDataPlane(net).inject_columns(
            ["c1"], [0] * len(items), [h for _, h, _ in items],
            [t for _, _, t in items], size_bytes=size, collect=True,
        )
    assert net.stats_snapshot().as_tuple() == (0, 0, 0)
    assert [(i.stats.packets_in, i.stats.bytes_processed)
            for i in instances.values()] == [(0, 0)] * len(instances)


@pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("walker", ["inject", "walk_reference", "inject_from_host"])
def test_a_non_finite_now_is_refused_before_anything_is_counted(walker, now):
    # One NaN used to sit in an instance window for good: no cutoff compares
    # true against it, so the window never trimmed and the instance refused
    # nearly every later packet until a reset.
    net, _ = _build()
    class_id = "c3" if walker == "inject_from_host" else "c1"
    path = CLASSES[class_id]
    walk = getattr(net, walker)
    with pytest.raises(ValueError, match="now must be finite"):
        walk(Packet(class_id, 0.5, path[0], path[-1]), now)
    assert _counters(net) == _counters(_build()[0])
    stream = [
        walk(Packet(class_id, (k * 0.137) % 1.0, path[0], path[-1]), 1.0 + k / 20)
        for k in range(40)
    ]
    assert all(r.delivered for r in stream)


def _raw(net):
    """Every counter as it stands, unflushed (``cache_hits`` aside)."""
    return {
        "ledger": (net.delivered_count, net.dropped_count, net.violation_count),
        "switches": {
            s: (sw.packets_seen, sw.table.lookup_count, sw.table.miss_count)
            for s, sw in net.switches.items()
        },
        "vsw": {s: (v.packets_in, v.packets_dropped) for s, v in net.vswitches.items()},
        "inst": {
            (s, alias): (i.stats, tuple(i._recent))
            for s, vsw in net.vswitches.items()
            for alias, i in vsw._instances.items()
        },
    }


def test_deferred_inject_counts_equal_a_reference_only_twin():
    # inject counts a packet on its plan only; the per-hop counters and the
    # ledger are written by the flush.  Every reader must still see what a
    # network that walked the same packets hop by hop shows: after an epoch
    # move (the next walker flushes the retired plans), after
    # flush_counters(), in stats_snapshot() and across reset_runtime_state().
    net, _ = _build()
    twin, _ = _build()
    plane = ShardedDataPlane(net)
    classes = ["c0", "c1", "c2", "c4"]
    records = []  # the twin's records of what net walked one packet at a time
    probe_lookups = dict.fromkeys(net.switches, 0)

    def packet(class_id, h):
        path = CLASSES[class_id]
        return Packet(class_id, h, path[0], path[-1])

    def observed(r):
        p = r.packet
        return (r.delivered, r.dropped_at, p.trace, p.host_tag, p.subclass_tag)

    def burst(now, probes=False):  # ten per class in one instant: budget is 4
        for k in range(10):
            for class_id in classes:
                h = (k * 0.137) % 1.0
                if probes and k % 3 == 0:
                    before = {s: sw.table.lookup_count for s, sw in net.switches.items()}
                    got = net.walk_reference(packet(class_id, h), now)
                    for s, sw in net.switches.items():
                        probe_lookups[s] += sw.table.lookup_count - before[s]
                else:
                    got = net.inject(packet(class_id, h), now)
                want = twin.walk_reference(packet(class_id, h), now)
                assert observed(got) == observed(want)
                records.append(want)

    burst(0.0)
    assert net.dropped_count == 0 < twin.dropped_count  # deferred so far
    moves = [
        lambda n: n.switches["s3"].table.install(
            TcamEntry(priority=999, action=Action(ActionKind.DROP), class_id="c1")
        ),
        lambda n: n.set_link_failed("s3", "s4", True),
        lambda n: n.set_link_failed("s3", "s4", False),
        lambda n: n.invalidate_plans(),
    ]
    for step, move in enumerate(moves, start=1):
        move(net)
        move(twin)
        net.class_intervals("c0")  # the next walker retires the old plans
        assert _raw(net) == _raw(twin)
        burst(float(step))
    now = float(len(moves) + 1)
    items = [(classes.index(c), (k * 0.137) % 1.0) for k in range(10) for c in classes]
    plane.inject_columns(classes, [c for c, _ in items], [h for _, h in items],
                         [now] * len(items))
    for c, h in items:
        twin.walk_reference(packet(classes[c], h), now)
    burst(now + 0.05, probes=True)
    net.flush_counters()
    assert _raw(net) == _raw(twin)
    burst(now + 1.0, probes=True)
    assert net.stats_snapshot() == twin.stats_snapshot()
    assert _raw(net) == _raw(twin)
    assert [observed(r) for r in net.recent_records] == [
        observed(r) for r in records[-net.RECENT_RECORDS:]
    ]
    for s, sw in net.switches.items():  # every hop not probed came from a plan
        assert sw.table.cache_hits + probe_lookups[s] == sw.table.lookup_count
        assert twin.switches[s].table.cache_hits == 0
    burst(now + 2.0)
    net.reset_runtime_state()
    twin.reset_runtime_state()
    net.flush_counters()
    assert _raw(net) == _raw(twin)


def test_pretagged_packets_take_the_reference_walker():
    pair = _Pair()
    pair.packet("c0", 0.1)  # plan for the interval exists and says: a then b
    outcome = pair.packet("c0", 0.1, host_tag="s3", subclass_tag=0)
    assert [name for kind, name in outcome[2] if kind == "vnf"] == ["b"]
    pair.origin(0.4)
    pair.check_totals()
    assert sum(sw.table.cache_hits for sw in pair.replay.switches.values()) == 4
