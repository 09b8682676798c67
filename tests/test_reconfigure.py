"""The one commit step: exactly one outcome per epoch, one committer.

* a ``commit`` while the fabric's epoch is open is refused
  (:class:`EpochOpenError`); the open epoch converges exactly once;
* a recovery verdict landing inside an open elastic epoch waits for it on
  the tenant worker's queue: both epochs converge, each on record once;
* single writer: across a chaos + elastic + tenancy history, no rule
  table of a live network moves outside a ``SwitchAgent`` apply;
* composition: with recovery and the elastic loop both armed, an epoch
  converged after every open fault was detected keeps routing around
  failed links, names only running instances and keeps the converged
  verdict's shed classes out.
"""

from dataclasses import replace

import pytest

from repro.chaos import ChaosConfig, FaultEvent, FaultKind, FaultSchedule
from repro.core.controller import AppleController
from repro.core.reconfigure import EpochOpenError, commit, realize
from repro.dataplane.switch import pass_by_entry
from repro.dataplane.vswitch import VSwitch
from repro.experiments.flash_crowd import QUICK_HORIZON, _scenario
from repro.experiments.multi_tenant import generate_intents
from repro.experiments.scenario import Scenario, World
from repro.sim.kernel import Simulator
from repro.southbound import SouthboundChaosConfig, SouthboundFabric
from repro.southbound.channel import SwitchAgent
from repro.tenancy import TenantOrchestrator
from repro.topology.datasets import internet2
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.traffic.matrix import TrafficMatrix
from repro.vnf.chains import STANDARD_CHAINS


def test_commit_on_an_open_epoch_is_refused():
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    matrix = gravity_matrix(topo, 8000.0, seed=7)
    sim = Simulator()
    deployment = controller.run(matrix, sim=sim)
    fabric = SouthboundFabric(
        sim, deployment.network, 7, controller.rule_generator, drain_retired=True
    )
    controller.attach_southbound(fabric)

    outcomes = {"first": [], "second": []}
    plans = [
        controller.compute_placement(TrafficMatrix(matrix.nodes, matrix.array * factor))
        for factor in (2.0, 3.0)
    ]
    commit(
        fabric,
        plans[0],
        *realize(controller.rule_generator, plans[0]),
        on_done=outcomes["first"].append,
    )
    # Ops are serialized: a second commit while epoch 1 is open is refused.
    with pytest.raises(EpochOpenError):
        commit(
            fabric,
            plans[1],
            *realize(controller.rule_generator, plans[1]),
            on_done=outcomes["second"].append,
        )
    assert fabric.epoch == 1 and outcomes == {"first": [], "second": []}

    fabric.start()
    sim.run(until=10.0)
    fabric.stop()
    (first,) = outcomes["first"]
    assert outcomes["second"] == []
    assert first.convergence.epoch == 1
    assert first.deployment.plan is plans[0]
    assert first.deployment.instances == fabric.instances
    assert first.report.ok, first.report.summary()
    assert fabric.converged and fabric.drift_count() == 0


#: A link flap, a VNF crash and a brownout inside the flash crowd.
_SINGLE_WRITER_FAULTS = ChaosConfig(
    link_flaps=1,
    host_crashes=0,
    vnf_crashes=1,
    brownouts=1,
    window=(3.0, 10.0),
    flap_duration=(4.0, 7.0),
)


def _flash_scenario(
    seed=0, amplitude=2.0, faults=None, sb_chaos=None, horizon=QUICK_HORIZON
):
    """The quick flash-crowd row's world, on a fabric with ``sb_chaos``."""
    scenario = replace(
        _scenario(amplitude, quick=True),
        horizon=horizon,
        faults=faults,
        loss=sb_chaos or SouthboundChaosConfig(),
    )
    return World(scenario, seed)


def test_recovery_waits_behind_an_open_elastic_epoch():
    # Dry run: when does the autoscaler open its first scale-out epoch?
    world = _flash_scenario()
    world.play()
    first = world.elastic.metrics.actions[0]
    assert first.direction == "scale_out" and first.converged_at > first.time

    # Same run, with a recovery verdict batch landing 10 ms into that epoch.
    world = _flash_scenario()
    world.sim.schedule_at(
        first.time + 0.01, world.recovery.on_detections, args=([],)
    )
    result = world.play()
    em, fabric = world.elastic.metrics, world.fabric

    # The scale-out converged as in the dry run, and is counted once (the
    # recovery epoch re-plans against the scale-out's instances and keeps
    # them, so the hottest one stays at 0.459, above the 0.45 low
    # watermark, and no scale-in follows before the horizon)...
    assert em.actions[0].to_dict() == first.to_dict()
    assert em.scale_out_total == 1 and em.scale_in_total == 0
    assert all(a.verify_ok for a in em.actions)
    # ...and recovery's epoch waited for it on the worker's queue, then
    # converged and is on record, once.
    (record,) = result.metrics["convergences"]
    assert result.reconvergences == 1
    assert record["verify_ok"] and record["time"] > first.converged_at
    # And the run stayed clean.
    assert result.metrics["policy_violation_seconds"] == 0
    assert result.summary["cross_tenant_violation_seconds"] == 0
    assert result.final_verify_ok
    assert fabric.converged and fabric.drift_count() == 0


@pytest.mark.parametrize("seed, amplitude", [(0, 2.0), (5, 8.0)])
def test_recovery_and_elastic_pushes_compose(seed, amplitude):
    # Both triggers armed on one controller.  Once every open fault has
    # been detected, a converged epoch pushed after the last detection
    # must reflect all of it *and* the converged admission verdict —
    # whichever trigger pushed it.
    world = _flash_scenario(
        seed, amplitude, faults=_SINGLE_WRITER_FAULTS, horizon=QUICK_HORIZON + 10.0
    )
    sim, worker, fabric = world.sim, world.worker, world.fabric
    bad = {"path": [], "dead instance": [], "shed": []}
    evaluated = []

    def check():
        if not fabric.converged:
            return
        for rec in world.chaos.faults.values():
            if rec.applied_at is None or rec.lifted_at is not None:
                continue
            if rec.detected_at is None or fabric.desired_since < rec.detected_at:
                return
        now = sim.now
        evaluated.append(now)
        deployment = worker.deployment
        failed = world.orch.topo.failed_links
        if any(
            Topology.link_key(a, b) in failed
            for cls in deployment.plan.classes
            for a, b in zip(cls.path, cls.path[1:])
        ):
            bad["path"].append(now)
        if any(
            vsw.registered(iid) is None or not vsw.registered(iid).running
            for vsw in deployment.network.vswitches.values()
            for rule in vsw.installed_rules().values()
            for iid in rule.instance_ids
        ):
            bad["dead instance"].append(now)
        live = {cls.class_id for cls in deployment.plan.classes}
        if live & set(worker.shed):
            bad["shed"].append(now)

    sim.every(0.25, check)
    result = world.play()
    assert bad == {"path": [], "dead instance": [], "shed": []}
    assert len(evaluated) >= 60
    assert result.metrics["policy_violation_seconds"] == 0
    assert result.summary["cross_tenant_violation_seconds"] == 0
    assert result.final_verify_ok


# ----------------------------------------------------------------------
# Single writer (the oracle below shares no code with repro.core.reconfigure:
# it only reads the PR-12 generation counters)
# ----------------------------------------------------------------------
class _GenerationLedger:
    """Every watched network's generation counters, as last left by an apply.

    A network is watched from the moment a fabric takes it over (``adopt``
    / ``restore`` = epoch 0).  From then on its TCAM generations may move only inside
    ``SwitchAgent.receive``; a vSwitch generation may additionally move by
    exactly one per VM port attach (``register_instance`` is the
    hypervisor booting an instance, not a rule write).
    """

    def __init__(self, monkeypatch):
        self.expected = {}  # id(network) -> (network, tcam gens, vswitch gens)
        self.applies = 0
        self.violations = []
        ledger = self

        restore = SouthboundFabric.restore
        receive = SwitchAgent.receive
        register = VSwitch.register_instance

        def watched_restore(fabric, *args, **kwargs):
            restore(fabric, *args, **kwargs)
            ledger.snapshot(fabric.network)

        def watched_receive(agent, msg):
            ledger.check(agent.network, f"before apply at {agent.switch}")
            ack = receive(agent, msg)
            ledger.applies += 1
            ledger.snapshot(agent.network)
            return ack

        def watched_register(vsw, instance, alias=None):
            register(vsw, instance, alias)
            for _net, _tcam, vsw_gens in ledger.expected.values():
                if id(vsw) in vsw_gens:
                    vsw_gens[id(vsw)] += 1

        monkeypatch.setattr(SouthboundFabric, "restore", watched_restore)
        monkeypatch.setattr(SwitchAgent, "receive", watched_receive)
        monkeypatch.setattr(VSwitch, "register_instance", watched_register)

    @staticmethod
    def _read(network):
        tcam = {s: sw.table.generation for s, sw in network.switches.items()}
        vsw = {id(v): v.generation for v in network.vswitches.values()}
        return tcam, vsw

    def snapshot(self, network):
        self.expected[id(network)] = (network, *self._read(network))

    def check(self, network, where):
        watched = self.expected.get(id(network))
        if watched is not None and self._read(network) != watched[1:]:
            self.violations.append(where)

    def check_all(self, where):
        for network, _tcam, _vsw in list(self.expected.values()):
            self.check(network, where)


def test_southbound_fabric_is_the_only_writer_of_a_live_network(monkeypatch):
    ledger = _GenerationLedger(monkeypatch)

    # Chaos + elastic on one network: a VNF crash and a link flap under a
    # flash crowd, over a lossy control channel.
    world = _flash_scenario(
        seed=1,
        faults=_SINGLE_WRITER_FAULTS,
        sb_chaos=SouthboundChaosConfig(loss_rate=0.1, extra_delay_mean=0.01),
        horizon=QUICK_HORIZON + 10.0,
    )
    world.sim.every(0.05, lambda: ledger.check_all("between sim events"))
    result = world.play()
    ledger.check_all("end of chaos + elastic history")
    assert result.reconvergences >= 2 and world.elastic.metrics.actions
    assert world.fabric.metrics.messages_lost > 0
    assert result.metrics["policy_violation_seconds"] == 0
    chaos_applies = ledger.applies
    assert chaos_applies > 0

    # A ring whose only APPLE host dies, no loss configured: the default
    # fabric carries recovery, quarantine DROPs included.
    topo = Topology(
        "ring",
        ["a", "b", "c", "d"],
        [Link("a", "b"), Link("b", "c"), Link("c", "d"), Link("d", "a")],
        hosts={"b": AppleHostSpec(cores=16)},
    )
    controller = AppleController(topo, hashed_assignment(STANDARD_CHAINS))
    sim = Simulator()
    deployment = controller.run(
        TrafficMatrix(["a", "b", "c", "d"], [[0, 0, 400.0, 0]] + [[0] * 4] * 3),
        sim=sim,
    )
    crash = FaultEvent(time=2.0, kind=FaultKind.HOST_CRASH, target="b")
    world = World(
        Scenario(
            8.0,
            day0=lambda seed: (controller, sim),
            faults=FaultSchedule(seed=0, events=(crash,)),
        )
    )
    assert id(deployment.network) in ledger.expected  # adopted => watched
    sim.every(0.05, lambda: ledger.check_all("between default-fabric sim events"))
    result = world.play()
    ledger.check_all("end of default-fabric history")
    assert any(c["stranded"] for c in result.metrics["convergences"])
    assert ledger.applies > chaos_applies
    chaos_applies = ledger.applies

    # Tenancy: many private networks, each adopted at its tenant's day 0.
    topo = internet2(default_host_cores=256)
    sim = Simulator(seed=3)
    orch = TenantOrchestrator(topo, sim, seed=3)
    orch.start()
    for delay, intent in generate_intents(12, sorted(topo.hosts), 3):
        orch.submit(intent, delay=delay)
    sim.every(0.05, lambda: ledger.check_all("between tenancy sim events"))
    sim.run(until=60.0)
    orch.stop()
    ledger.check_all("end of tenancy history")
    assert orch.metrics_summary()["convergences"] > 12
    assert ledger.applies > chaos_applies
    assert orch.total_drift() == 0

    assert ledger.violations == []


def test_generation_ledger_catches_a_direct_write(monkeypatch):
    # The oracle is not vacuous: a write behind the fabric's back shows up.
    ledger = _GenerationLedger(monkeypatch)
    fabric = _flash_scenario().fabric
    victim = sorted(fabric.network.switches)[0]
    fabric.network.switches[victim].table.install(pass_by_entry(victim))
    ledger.check_all("after a direct write")
    assert ledger.violations == ["after a direct write"]
