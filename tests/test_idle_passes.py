"""The periodic passes that cost O(1) when nothing moved still see what moves.

* ``InstalledView`` skips its read-back while ``network.rule_epoch`` stands
  still, so every rule mutation must move that epoch — checked against a
  cold view after every step of random mutation sequences — and anti-entropy
  must still catch an out-of-band wipe at the very next tick.
* A fabric at rest parks its reconciler and schedules nothing; a wipe
  behind its back wakes it, and the repair starts at the tick (time and
  same-instant order) an always-ticking reconciler would have repaired at.
  A stopped orchestrator leaves no tenant fabric armed.
* The cross-tenant audit sums the cores of the running VNF instances on
  every tick; it stays an oracle only if a bad ledger entry, or an
  instance left running past its plan (beyond its tenant's charge, or on
  a full host), still accrues violation seconds.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import AppleController
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.switch import SwitchRuleSet, pass_by_entry
from repro.dataplane.vswitch import VSwitchRule
from repro.experiments.multi_tenant import generate_intents
from repro.sim.kernel import Simulator
from repro.sim.rng import derive
from repro.southbound import SouthboundFabric
from repro.southbound.config import RECONCILE_INTERVAL
from repro.southbound.state import InstalledView
from repro.tenancy import CreateChain, TenantOrchestrator
from repro.topology.datasets import internet2
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import STANDARD_CHAINS
from repro.vnf.instance import VNFInstance
from repro.vnf.types import DEFAULT_CATALOG
from tests.rule_tables import classify_entry, write_rule_sets
from tests.test_dataplane_generation import TCAM_MUTATORS, VSWITCH_MUTATORS

FIREWALL = DEFAULT_CATALOG.get("firewall")


# ----------------------------------------------------------------------
# (b) generation moved  =>  rule_epoch moved  =>  the warm view re-reads
# ----------------------------------------------------------------------
def _line_network() -> DataPlaneNetwork:
    topo = Topology(
        "line",
        ["s1", "s2", "s3"],
        [Link("s1", "s2"), Link("s2", "s3")],
        hosts={"s2": AppleHostSpec(cores=64)},
    )
    net = DataPlaneNetwork(topo)
    write_rule_sets(net, [SwitchRuleSet(s) for s in net.switches])
    return net


def _classify(switch: str, k: int):
    return classify_entry(switch, f"c{k % 3}", (0.0, 1.0), k, "s2")


#: Every public mutator, as a call on one switch's table / the vSwitch with
#: a small integer to vary its arguments.  Some calls change nothing in
#: some states (removing what is absent); the property only binds when a
#: generation moved.
TABLE_OPS = {
    "install": lambda t, s, k: t.install(_classify(s, k)),
    "remove_where": lambda t, s, k: t.remove_where(
        lambda e: e.class_id == f"c{k % 3}"
    ),
    "remove_by_name": lambda t, s, k: t.remove_by_name(
        (pass_by_entry(s) if k % 2 else _classify(s, k)).name
    ),
    "replace": lambda t, s, k: t.replace(_classify(s, k % 4)),
    "sync_prefix": lambda t, s, k: t.sync_prefix(
        f"{s}/classify/", tuple(_classify(s, j).spec for j in range(k % 4))
    ),
    "clear": lambda t, s, k: t.clear(),
}
VSWITCH_OPS = {
    "register_instance": lambda v, k: v.register_instance(
        VNFInstance(f"fw{k % 3}", FIREWALL, "s2")
    ),
    "deregister_instance": lambda v, k: v.deregister_instance(f"fw{k % 3}"),
    "install_rule": lambda v, k: v.registered(f"fw{k % 3}")
    and v.install_rule(f"c{k % 3}", k % 4, VSwitchRule((f"fw{k % 3}",), "FIN")),
    "remove_rule": lambda v, k: v.remove_rule(f"c{k % 3}", k % 4),
    "clear_rules": lambda v, k: v.clear_rules(),
    "install_origin_rule": lambda v, k: v.install_origin_rule(
        f"c{k % 3}", (0.0, 1.0), k % 4, "s2"
    ),
    "clear_origin_rules": lambda v, k: v.clear_origin_rules(),
}


def test_the_op_tables_name_every_public_mutator():
    # tests/test_dataplane_generation.py classifies every public method of
    # both classes; a mutator added there must be added here too.
    assert set(TABLE_OPS) == set(TCAM_MUTATORS)
    assert set(VSWITCH_OPS) == set(VSWITCH_MUTATORS)


def _generations(net: DataPlaneNetwork):
    return (
        [sw.table.generation for _s, sw in sorted(net.switches.items())],
        [v.generation for _s, v in sorted(net.vswitches.items())],
    )


_steps = st.lists(
    st.tuples(
        st.sampled_from(
            [("table", n) for n in sorted(TABLE_OPS)]
            + [("vswitch", n) for n in sorted(VSWITCH_OPS)]
            + [("idle", "")]
        ),
        st.sampled_from(["s1", "s2", "s3"]),
        st.integers(0, 11),
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=120, deadline=None)
@given(_steps)
def test_every_generation_move_moves_the_epoch_and_reaches_the_warm_view(steps):
    net = _line_network()
    warm = InstalledView(net)
    warm.state()
    for (kind, name), switch, k in steps:
        generations, epoch = _generations(net), net.rule_epoch
        if kind == "table":
            TABLE_OPS[name](net.switches[switch].table, switch, k)
        elif kind == "vswitch":
            VSWITCH_OPS[name](net.vswitch_at("s2"), k)
        if _generations(net) != generations:
            assert net.rule_epoch != epoch, name
        # What the epoch-gated view reports is what a cold read-back finds.
        cold = InstalledView(net)
        assert warm.state() == cold.state(), (kind, name)
        desired = cold.state()
        assert warm.diffs(desired) == []


# ----------------------------------------------------------------------
# (b) anti-entropy still polls: an out-of-band wipe is seen at the next tick
# ----------------------------------------------------------------------
def _fabric_on_a_deployment():
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    sim = Simulator()
    deployment = controller.run(gravity_matrix(topo, 8000.0, seed=5), sim=sim)
    fabric = SouthboundFabric(
        sim, deployment.network, 5, controller.rule_generator
    )
    controller.attach_southbound(fabric)
    return sim, deployment, fabric


def test_out_of_band_wipe_is_repaired_at_the_next_tick():
    sim, deployment, fabric = _fabric_on_a_deployment()
    interval = RECONCILE_INTERVAL
    fabric.start()
    sim.run(until=6 * interval + 0.01)
    assert fabric.metrics.reconcile_ticks == 6  # idle ticks are still counted
    assert fabric.metrics.reconcile_repairs == 0
    assert sum(fabric.metrics.transactions.values()) == 0

    victim = sorted(deployment.rules.switch_rule_sets)[0]
    deployment.network.switches[victim].table.clear()
    assert fabric.drift_count() > 0

    sim.run(until=7 * interval + 0.01)
    assert fabric.metrics.reconcile_ticks == 7
    assert fabric.metrics.reconcile_repairs == 1  # launched by that very tick
    sim.run(until=12 * interval + 0.01)
    fabric.stop()
    assert fabric.metrics.reconcile_ticks == 12
    assert fabric.metrics.transactions["committed"] == 1
    assert fabric.drift_count() == 0


def _grid(start: float, ticks: int) -> list:
    """Reconcile tick times: the same accumulated sums a ticking timer makes."""
    times = [start]
    for _ in range(ticks):
        times.append(times[-1] + RECONCILE_INTERVAL)
    return times


def _wipe(deployment) -> None:
    victim = sorted(deployment.rules.switch_rule_sets)[0]
    deployment.network.switches[victim].table.clear()


def _repair_times(fabric, sim) -> list:
    launched = []
    launch = fabric._launch

    def record(diffs):
        launched.append(sim.now)
        launch(diffs)

    fabric._launch = record
    return launched


@pytest.mark.parametrize(
    "how, repaired_at",
    [
        # Mid-interval: the next tick.
        ("event between ticks", 6),
        # At a tick's instant, scheduled before that tick was: it fires
        # first, so that very tick sees the wipe.
        ("event armed at set-up", 5),
        ("timer started before the fabric", 5),
        # At a tick's instant, scheduled after it (the chaos detector's
        # heartbeat is such a timer): the tick fires first and sees nothing.
        ("timer started after the fabric", 6),
    ],
)
def test_wipe_behind_a_parked_fabric_is_repaired_on_its_tick(how, repaired_at):
    sim, deployment, fabric = _fabric_on_a_deployment()
    grid = _grid(sim.now, 12)
    launched = _repair_times(fabric, sim)
    ticks = []

    def wipe_at_fifth_tick():
        ticks.append(sim.now)
        if len(ticks) == 5:
            _wipe(deployment)

    if how == "event between ticks":
        sim.schedule_at((grid[5] + grid[6]) / 2, _wipe, args=(deployment,))
    elif how == "event armed at set-up":
        sim.schedule_at(grid[5], _wipe, args=(deployment,))
    elif how == "timer started before the fabric":
        sim.every(RECONCILE_INTERVAL, wipe_at_fifth_tick)
    fabric.start()
    if how == "timer started after the fabric":
        sim.every(RECONCILE_INTERVAL, wipe_at_fifth_tick)

    sim.run(until=grid[1])  # the first tick finds the fabric at rest
    assert fabric.metrics.reconcile_ticks == 1
    sim.run(until=grid[repaired_at] - RECONCILE_INTERVAL / 4)
    assert launched == []
    sim.run(until=grid[12])
    assert launched == [grid[repaired_at]]
    assert fabric.metrics.reconcile_repairs == 1
    assert fabric.metrics.reconcile_ticks == 12  # skipped ticks still count
    assert fabric.drift_count() == 0


def test_a_fabric_at_rest_schedules_nothing():
    sim, _deployment, fabric = _fabric_on_a_deployment()
    grid = _grid(sim.now, 40)
    fabric.start()
    assert sim.run(until=grid[1]) == 1  # the tick that parks the reconciler
    assert sim.run(until=grid[40]) == 0
    assert fabric.metrics.reconcile_ticks == 40


def _churn_history():
    """The 16-tenant history ``tests/test_work_counts.py`` pins, stopped."""
    seed = derive(0, "pipeline.history.0")
    topo = internet2(default_host_cores=160)
    sim = Simulator(seed=seed)
    orch = TenantOrchestrator(topo, sim, seed=seed)
    orch.start()
    for delay, intent in generate_intents(16, sorted(topo.hosts), seed):
        orch.submit(intent, delay=delay)
    sim.run(until=70.0)
    orch.stop()
    return sim, orch


def test_stopped_orchestrator_leaves_no_fabric_armed():
    sim, orch = _churn_history()
    live = [w for _t, w in sorted(orch.workers.items()) if w.fabric is not None]
    assert live
    # A stopped reconciler neither ticks nor wakes: drift written now stays.
    _wipe(live[0].deployment)
    assert sim.run(until=sim.now + 10) == 0
    assert live[0].fabric.drift_count() > 0


# ----------------------------------------------------------------------
# (c) the audit is still an oracle
# ----------------------------------------------------------------------
HOST_CORES = 64


def _two_tenants():
    topo = internet2(default_host_cores=HOST_CORES)
    sim = Simulator(seed=0)
    orch = TenantOrchestrator(topo, sim, seed=0)
    orch.start()
    chain = tuple(STANDARD_CHAINS[0])
    orch.submit(CreateChain("tA", chain_id="web", src="STTL", dst="ATLA",
                            chain=chain, rate_mbps=200.0))
    orch.submit(CreateChain("tB", chain_id="db", src="STTL", dst="ATLA",
                            chain=chain, rate_mbps=150.0), delay=0.5)
    sim.run(until=5.0)
    assert orch.convergences == 2 and orch.cross_tenant_violation_seconds == 0
    assert orch.audit_ticks == 20
    return sim, orch


def test_corrupt_ledger_entry_accrues_violation_seconds():
    sim, orch = _two_tenants()
    ledger = orch.arbiter.steady["tA"]
    host = sorted(ledger)[0]
    ledger[host] += 1  # the running totals (free) no longer balance
    sim.run(until=6.0)
    assert orch.cross_tenant_violation_seconds == 1.0  # four 0.25 s ticks
    ledger[host] -= 1
    sim.run(until=7.0)
    assert orch.cross_tenant_violation_seconds == 1.0


@pytest.mark.parametrize("overfill", [False, True], ids=["charge", "host"])
def test_instance_running_past_its_plan_accrues_violation_seconds(overfill):
    # VMs no plan of tA's uses keep running on one of its hosts: one of
    # them already exceeds what the arbiter charges tA there; enough of
    # them exceed the physical host.  The ledgers, untouched, still
    # balance, and the plans still fit — only the running instances show.
    sim, orch = _two_tenants()
    worker = orch.workers["tA"]
    host = sorted(worker.deployment.plan.cores_by_switch())[0]
    count = HOST_CORES // FIREWALL.cores + 1 if overfill else 1
    leftovers = []
    for k in range(count):
        key = f"firewall[{100 + k}]@{host}"
        leftovers.append(VNFInstance(key, FIREWALL, host))
        worker.fabric.instances[key] = leftovers[-1]
    assert orch.arbiter.charges() is not None
    sim.run(until=6.0)
    assert orch.cross_tenant_violation_seconds == 1.0  # four 0.25 s ticks
    for inst in leftovers:  # drained at last: no stale verdict
        inst.shutdown()
    sim.run(until=7.0)
    assert orch.cross_tenant_violation_seconds == 1.0
    orch.stop()


def test_a_finished_platform_is_freed_without_the_collector():
    # Workers and the bus refer back to the orchestrator weakly, and a
    # stopped fabric takes back its channels' callbacks, so nothing of a
    # stopped platform is left for the cyclic collector once it is dropped.
    gc.collect()
    gc.disable()
    try:
        sim, orch = _churn_history()
        fabric = next(w.fabric for _t, w in sorted(orch.workers.items()) if w.fabric)
        platform, tenant = weakref.ref(orch), weakref.ref(fabric)
        del sim, orch, fabric
        assert platform() is None and tenant() is None
    finally:
        gc.enable()
