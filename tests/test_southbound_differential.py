"""The southbound epoch against its first-written self.

``tests/southbound_reference.py`` keeps the fingerprints, render, diff,
read-back and agent the fabric ran before its epoch was rewritten for
speed.  Here the program runs with three checks installed on its public
seams, and must agree with the reference everywhere:

* every ``push_desired``: the same fingerprints, the same per-class
  versions, the same desired ``NetworkState`` field for field, and the same
  launched ``SwitchDiff`` op lists, in order;
* every message a ``SwitchAgent`` receives: the same ack, the same
  installed table (entry order and hardware count included), the same
  vSwitch rules and origin rows in order, the same class paths and path
  callbacks, the same ``ops_applied`` — against a ``ReferenceAgent``
  applying the message to a copy of the switch taken just before; and every
  installed entry's cached ``spec`` equals the spec of its fields;
* every reconciler tick and committed transaction: the fabric's diffs and
  installed state equal a from-scratch reference read-back and diff, and
  ``state_signature()`` reads the same installed payload.

Inputs: the 25-epoch seed-0 GEANT reconfiguration series, Internet2 pushes
with origin rows, a 10 %-loss two-disconnect ``southbound-chaos --quick``
row, and hypothesis sequences of pushes (stranded classes, origin rows,
path-only changes), out-of-band TCAM edits, VNF crashes that make a
``vsw_put`` skip, and ticks under loss.  ``TcamTable.sync_prefix`` is also
held to remove-then-install-one-by-one on random tables.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from contextlib import ExitStack
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings, strategies as st

import tests.southbound_reference as ref
from repro.core.controller import AppleController
from repro.core.subclasses import assign_subclasses
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.switch import host_match_entry, quarantine_entry
from repro.dataplane.tcam import Action, ActionKind, TcamEntry, TcamTable
from repro.dataplane.vswitch import VSwitch
from repro.experiments.southbound_chaos import _southbound_row
from repro.sim.kernel import Simulator
from repro.southbound import SouthboundChaosConfig, SouthboundFabric
from repro.southbound.channel import SwitchAgent
from repro.southbound.state import class_fingerprints
from repro.topology.datasets import internet2
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import STANDARD_CHAINS
from tests.deploy_series import GEANT_SNAPSHOTS, GeantReconfigSeries


# ----------------------------------------------------------------------
# The checks
# ----------------------------------------------------------------------
class _Replica:
    """A stand-in network: copies of one switch's table and vSwitch."""

    def __init__(self, network: DataPlaneNetwork, switch: str) -> None:
        table = TcamTable()
        for entry in network.switches[switch].table.entries():
            table.install(entry)
        self.switches = {switch: SimpleNamespace(table=table)}
        self.vswitches = {}
        vsw = network.vswitches.get(switch)
        if vsw is not None:
            twin = VSwitch(switch)
            for alias, instance in vsw._instances.items():
                twin.register_instance(instance, alias=alias)
            for (in_port, class_id, sub_id), rule in vsw.installed_rules().items():
                twin.install_rule(class_id, sub_id, rule, in_port=in_port)
            for row in vsw.installed_origin_rules():
                twin.install_origin_rule(*row)
            self.vswitches[switch] = twin
        self.class_paths = dict(network.class_paths)

    def vswitch_at(self, switch: str) -> VSwitch:
        try:
            return self.vswitches[switch]
        except KeyError:
            raise KeyError(f"no APPLE host/vSwitch at switch {switch!r}") from None

    def register_class_path(self, class_id: str, path) -> None:
        self.class_paths[class_id] = tuple(path)


def _switch_state(network, switch: str) -> tuple:
    table = network.switches[switch].table
    vsw = network.vswitches.get(switch)
    return (
        [ref.entry_spec(e) for e in table.entries()],
        table.entry_count(),
        None
        if vsw is None
        else (list(vsw.installed_rules().items()), vsw.installed_origin_rules()),
    )


def _checked_receive(inner, agent: SwitchAgent, msg):
    network, switch = agent.network, agent.switch
    replica = _Replica(network, switch)
    twin_paths: list = []
    twin = ref.ReferenceAgent(switch, replica, on_paths_applied=twin_paths.append)
    twin.current_epoch = agent.current_epoch
    twin.applied_cookies = set(agent.applied_cookies)
    applied = agent.ops_applied
    paths: list = []
    hook = agent.on_paths_applied

    def record(p):
        paths.append(p)
        if hook is not None:
            hook(p)

    agent.on_paths_applied = record
    try:
        ack = inner(agent, msg)
    finally:
        agent.on_paths_applied = hook
    assert ack.cookie == msg.cookie
    assert ack.status == twin.receive(msg)
    assert _switch_state(network, switch) == _switch_state(replica, switch)
    assert network.class_paths == replica.class_paths
    assert paths == twin_paths
    assert agent.ops_applied - applied == twin.ops_applied
    for entry in network.switches[switch].table.entries():
        assert entry.spec == ref.entry_spec(entry)
    return ack


def _diff_lists(diffs) -> list:
    return [(d.switch, d.adds, d.swap, d.dels) for d in diffs]


def _check_view(fabric: SouthboundFabric) -> None:
    """The fabric's installed view and diffs equal a from-scratch reference."""
    if fabric.desired is None:
        return
    network = fabric.network
    assert _diff_lists(fabric._diffs()) == _diff_lists(
        ref.diffs(network, fabric.desired)
    )
    installed = ref.read_installed(network)
    assert ref.fields(fabric._view.state()) == ref.fields(installed)
    signed = json.loads(fabric.state_signature())["installed"]
    assert signed == installed.signature_payload()


_PUSH = inspect.signature(SouthboundFabric.push_desired)


def _checked_push(inner, fabric: SouthboundFabric, *args, **kwargs):
    bound = _PUSH.bind(fabric, *args, **kwargs)
    bound.apply_defaults()
    rules, classes = bound.arguments["rules"], list(bound.arguments["classes"])
    stranded = dict(bound.arguments["stranded"] or {})
    fingerprints = ref.class_fingerprints(rules, classes)
    assert class_fingerprints(rules, classes) == fingerprints
    versions = dict(fabric.versions)
    for class_id, fp in fingerprints.items():
        old = fabric._fingerprints.get(class_id)
        if old is not None and old != fp:
            versions[class_id] = versions.get(class_id, 0) + 1
    running = fabric.current_txn
    epoch = inner(*bound.args, **bound.kwargs)
    network = fabric.network
    want = ref.render_desired(
        sorted(network.switches),
        sorted(network.vswitches),
        rules,
        classes,
        stranded,
        versions,
    )
    assert fabric.versions == versions
    assert ref.fields(fabric.desired) == ref.fields(want)
    # Nothing is applied before the simulator runs: the launched diffs are
    # the reference diff of the network as it stands.
    launched = fabric.current_txn
    expected = _diff_lists(ref.diffs(network, want))
    assert _diff_lists(fabric._diffs()) == expected
    assert (launched is not running) == bool(expected)
    if expected:
        assert {
            phase: dict(batches) for phase, batches in launched._ops.items()
        } == _phases(expected)
    return epoch


def _phases(diffs: list) -> dict:
    return {
        phase: {s: tuple(ops[i]) for s, *ops in diffs if ops[i]}
        for i, phase in enumerate(("add", "swap", "del"))
    }


def _checked_then(inner, fabric, *args, **kwargs):
    _check_view(fabric)
    return inner(fabric, *args, **kwargs)


def _then_checked(inner, fabric, *args, **kwargs):
    out = inner(fabric, *args, **kwargs)
    _check_view(fabric)
    return out


def _wrap(stack: ExitStack, owner, name: str, around) -> None:
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        return around(inner, *args, **kwargs)

    stack.enter_context(mock.patch.object(owner, name, wrapper))


def checked() -> ExitStack:
    """Install every check; use as a context manager."""
    stack = ExitStack()
    _wrap(stack, SwitchAgent, "receive", _checked_receive)
    _wrap(stack, SouthboundFabric, "push_desired", _checked_push)
    _wrap(stack, SouthboundFabric, "_reconcile", _checked_then)
    _wrap(stack, SouthboundFabric, "_txn_done", _then_checked)
    return stack


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_geant_reconfiguration_series_matches_the_reference():
    series = GeantReconfigSeries(seed=0)
    with checked():
        for _ in range(GEANT_SNAPSHOTS + 1):  # the warm-up, then one pass
            _plan, _convergence, report = series.epoch()
            assert report.ok
            _check_view(series.fabric)


@lru_cache(maxsize=None)
def _internet2(matrix_seed: int = 0):
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    plan = controller.compute_placement(gravity_matrix(topo, 8000.0, seed=matrix_seed))
    subs = assign_subclasses(plan)
    return controller, plan, subs


@lru_cache(maxsize=None)
def _inputs(kind: int):
    """(rules, classes, stranded) of one Internet2 push.

    0-2: three gravity matrices; 3: matrix 0 with every fourth class born
    in its source host (origin rows); 4: half of matrix 0's classes placed,
    the rest stranded; 5: matrix 0 with one class's path changed only.
    """
    controller, plan, subs = _internet2(kind if kind < 3 else 0)
    generate = controller.rule_generator.generate
    classes = list(plan.classes)
    if kind < 3:
        return generate(classes, subs), classes, {}
    if kind == 3:
        born = {c.class_id for c in classes[::4]}
        return generate(classes, subs, host_originated=born), classes, {}
    if kind == 4:
        serving = classes[: len(classes) // 2]
        partial = controller.engine.place(serving, controller.available_cores())
        rules = generate(serving, assign_subclasses(partial))
        return rules, serving, {c.class_id: c.src for c in classes[len(serving):]}
    moved = next(c for c in classes if len(c.path) >= 3)
    detour = next(s for s in sorted(controller.topo.switches) if s not in moved.path)
    path = (moved.src, detour, moved.dst)
    rerouted = [dataclasses.replace(c, path=path) if c is moved else c for c in classes]
    return generate(classes, subs), rerouted, {}


def _fresh_fabric(seed: int, chaos=None):
    controller, plan, subs = _internet2(0)
    rules = controller.rule_generator.generate(plan.classes, subs)
    sim = Simulator()
    network = DataPlaneNetwork(controller.topo)
    instances = controller.rule_generator.install(rules, network, plan.classes, sim=sim)
    fabric = SouthboundFabric(sim, network, seed, controller.rule_generator, chaos=chaos)
    fabric.adopt(rules, plan.classes, instances)
    return controller, sim, network, fabric


def test_internet2_pushes_match_the_reference():
    _controller, sim, _network, fabric = _fresh_fabric(3)
    with checked():
        for kind in (1, 3, 5, 4, 2, 0, 3):
            rules, classes, stranded = _inputs(kind)
            fabric.push_desired(rules, classes, stranded=stranded)
            sim.run(until=sim.now + 2.0)
            _check_view(fabric)
            assert fabric.converged


def test_lossy_southbound_chaos_row_matches_the_reference():
    with checked():
        row = _southbound_row(0.1, seed=1, quick=True)
    assert row[-2:] == [0, "OK"]  # drift 0, verify OK


# ----------------------------------------------------------------------
# Hypothesis: interleaved pushes, edits, crashes and ticks
# ----------------------------------------------------------------------
def _edit(network: DataPlaneNetwork, switches, kind: str, k: int) -> None:
    victim = switches[k % len(switches)]
    table = network.switches[victim].table
    prefix = f"{victim}/classify/"
    classify = [e for e in table.entries() if e.name.startswith(prefix)]
    if kind == "strip":
        table.remove_where(lambda e: e.name.startswith(prefix))
    elif kind == "stray":
        table.install(quarantine_entry(victim, f"no-such-class-{k % 3}"))
    elif kind == "reshape" and classify:
        # Same name, other content: the classify set differs by value only.
        old = classify[k % len(classify)]
        lo, hi = old.hash_range
        table.replace(
            TcamEntry(old.priority, old.action, old.host_tag_is, old.class_id,
                      (lo, (lo + hi) / 2), old.name)
        )
    elif kind == "host_match":
        # A static entry changed in place: the diff swaps it back.
        table.replace(
            TcamEntry(999, Action(ActionKind.DROP), victim, None, None,
                      host_match_entry(victim).name)
        )
    elif kind == "duplicate" and classify:
        table.install(classify[0])


_STEPS = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 5)),
    st.tuples(st.just("push_crash"), st.integers(0, 5)),
    st.tuples(st.just("tick"), st.sampled_from([0.03, 0.07, 0.5, 1.7, 6.0])),
    st.tuples(
        st.sampled_from(["strip", "stray", "reshape", "host_match", "duplicate"]),
        st.integers(0, 11),
    ),
    st.tuples(st.just("vnf_crash"), st.integers(0, 63)),
    st.tuples(st.just("disconnect"), st.integers(0, 11)),
)


@given(
    seed=st.integers(0, 2**16),
    loss=st.sampled_from([0.0, 0.1, 0.3]),
    steps=st.lists(_STEPS, min_size=3, max_size=12),
)
@settings(max_examples=30, deadline=None)
def test_interleaved_faults_match_the_reference(seed, loss, steps):
    chaos = SouthboundChaosConfig(loss_rate=loss)
    _controller, sim, network, fabric = _fresh_fabric(seed, chaos)
    switches = sorted(network.switches)
    with checked():
        fabric.start()
        _check_view(fabric)
        for kind, arg in steps:
            if kind in ("push", "push_crash"):
                rules, classes, stranded = _inputs(arg)
                fabric.push_desired(rules, classes, stranded=stranded)
                if kind == "push_crash" and fabric.instances:
                    # Dies after the render, before its rules arrive: the
                    # vsw_puts that name it are skipped.
                    key = sorted(fabric.instances)[seed % len(fabric.instances)]
                    network.vswitch_at(key.rsplit("@", 1)[1]).deregister_instance(key)
            elif kind == "tick":
                sim.run(until=sim.now + arg)
            elif kind == "vnf_crash":
                if fabric.instances:
                    key = sorted(fabric.instances)[arg % len(fabric.instances)]
                    network.vswitch_at(key.rsplit("@", 1)[1]).deregister_instance(key)
            elif kind == "disconnect":
                switch = switches[arg % len(switches)]
                fabric.disconnect(switch)
                sim.schedule(2.0, fabric.reconnect, args=(switch,))
            else:
                _edit(network, switches, kind, arg)
            _check_view(fabric)
        fabric.stop()


# ----------------------------------------------------------------------
# TcamTable.sync_prefix == remove every prefixed entry, install one by one
# ----------------------------------------------------------------------
_NAMES = [f"s/classify/c{i}" for i in range(6)] + ["s/pass-by", "s/host-match", "x"]
_specs = st.builds(
    lambda name, priority, lo, sub: (
        name, priority, "EMPTY", "c", (lo / 8, 1.0), "tag-subclass+fwd-host", sub, None
    ),
    st.sampled_from(_NAMES),
    st.sampled_from([100, 150, 200, 200, 300]),
    st.integers(0, 7),
    st.integers(0, 3),
)


@given(
    installed=st.lists(_specs, max_size=12),
    synced=st.lists(_specs, max_size=8, unique_by=lambda s: s[0]),
)
@settings(max_examples=200, deadline=None)
def test_sync_prefix_equals_remove_then_install(installed, synced):
    synced = [s for s in synced if s[0].startswith("s/classify/")]
    table, twin = TcamTable(), TcamTable()
    for spec in installed:
        table.install(ref.spec_entry(spec))
        twin.install(ref.spec_entry(spec))
    twin.remove_where(lambda e: e.name.startswith("s/classify/"))
    for spec in synced:
        twin.install(ref.spec_entry(spec))
    before, generation = list(table.entries()), table.generation
    table.sync_prefix("s/classify/", synced)
    after = table.entries()
    assert [ref.entry_spec(e) for e in after] == [ref.entry_spec(e) for e in twin.entries()]
    assert table.entry_count() == twin.entry_count()
    assert all(e.spec == ref.entry_spec(e) for e in after)
    assert (table.generation != generation) == (after != before)
    # An unchanged spec keeps its installed entry object.
    kept = {e.name: e for e in before if e.name.startswith("s/classify/")}
    for entry in after:
        old = kept.get(entry.name)
        if old is not None and ref.entry_spec(old) == entry.spec:
            assert entry is old
