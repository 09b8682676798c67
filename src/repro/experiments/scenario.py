"""One scenario runner and one probe loop for the live experiments.

A :class:`Scenario` is data: where day 0 comes from (the controller's
deployment, adopted as tenant ``apple``, or seeded tenant intents), what
breaks (a data-plane fault schedule, southbound loss and disconnects,
controller crashes), an optional flash crowd for the elastic loop, and a
horizon.  :func:`play` builds the world on one simulator around one
:class:`~repro.tenancy.orchestrator.TenantOrchestrator`, arms what the
scenario names, runs it and returns one :class:`RunResult`:

* the **injector** arms the fault schedule, the **detector**
  heartbeat-scans the adopted deployment and the **recovery manager**
  submits one re-plan per verdict batch;
* the **elastic loop** submits one re-plan per scale verdict;
* a **controller crash** kills the orchestrator while the data plane keeps
  forwarding, and ``recover()`` swaps one rebuilt from the journal in;
* the **probe loop** scores every tenant's data plane at a fixed cadence.

Same scenario, same seed: the same result, bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import obs
from repro.chaos import (
    ChaosConfig,
    ChaosMetrics,
    FailureDetector,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    RecoveryManager,
    generate_schedule,
)
from repro.core.controller import AppleController
from repro.core.engine import EngineConfig
from repro.core.verify import probe_faults, verify_deployment
from repro.dataplane.network import DataPlaneNetwork, NetworkStats
from repro.dataplane.packet import Packet
from repro.elastic import ElasticController, assign_slo_classes
from repro.experiments.harness import (
    REPLAY_HEADROOM,
    TOPOLOGY_DEMAND_MBPS,
    standard_setup,
)
from repro.obs.collectors import collect_chaos, trace_chaos_timeline
from repro.resilience import MemoryJournal, RecoveryReport, recover
from repro.sim.kernel import Simulator, Timer
from repro.southbound import (
    SouthboundChaosConfig,
    SouthboundFabric,
    generate_southbound_schedule,
)
from repro.tenancy import Intent, TenantOrchestrator
from repro.tenancy.worker import TenantWorker
from repro.topology.graph import Topology
from repro.traffic.flashcrowd import FlashCrowdConfig, generate_flash_crowd

#: The tenant the controller's day-0 deployment is adopted as (class ids
#: keep the controller's names).
TENANT = "apple"
#: Probe cadence (sim seconds): one downtime / policy-violation-seconds
#: granule per tick.
PROBE_INTERVAL = 0.25
#: Catch-up monitor cadence after each recovery.
CATCHUP_POLL = 0.1

Day0 = Callable[[int], Tuple[AppleController, Simulator]]
Intents = Callable[[int], Tuple[Topology, List[Tuple[float, Intent]]]]


def replay_day0(topology: str, seed: int) -> Tuple[AppleController, Simulator]:
    """The controller's day 0 on ``topology`` (a :data:`Day0` once the
    topology is bound): the standard setup at its replay demand and
    headroom, deployed on a fresh simulator."""
    topo, controller, series = standard_setup(
        topology,
        snapshots=1,
        seed=seed,
        demand_mbps=TOPOLOGY_DEMAND_MBPS[topology],
        engine_config=EngineConfig(capacity_headroom=REPLAY_HEADROOM),
    )
    sim = Simulator()
    controller.run(series.snapshots[0], sim=sim)
    return controller, sim


@dataclass(frozen=True)
class Scenario:
    """One live run, as data.

    Exactly one day-0 source is set:

    * ``day0(seed) -> (controller, sim)``: a controller that has deployed
      on ``sim``; its engine, rule generator and deployment are adopted as
      tenant ``apple``, which every fault, loss and flash crowd acts on;
    * ``intents(seed) -> (topology, [(delay, intent)])``: seeded tenant
      intents submitted to an empty orchestrator on ``topology``.

    ``faults`` is a data-plane fault config drawn on the day-0 deployment,
    or an explicit schedule; ``loss`` puts the adopted tenant on a lossy
    fabric with seeded switch disconnects; ``crashes`` kill the controller
    (each recovered after its ``duration``) and need a journal, which
    ``checkpoint_interval`` attaches.
    """

    horizon: float
    day0: Optional[Day0] = None
    intents: Optional[Intents] = None
    faults: Union[ChaosConfig, FaultSchedule, None] = None
    loss: Optional[SouthboundChaosConfig] = None
    flash: Optional[FlashCrowdConfig] = None
    crashes: Tuple[FaultEvent, ...] = ()
    checkpoint_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.day0 is None) == (self.intents is None):
            raise ValueError("a scenario has exactly one day-0 source")
        if self.intents is not None and any(
            x is not None for x in (self.faults, self.loss, self.flash)
        ):
            raise ValueError(
                "faults, southbound loss and flash crowds act on the "
                "controller's day-0 tenant"
            )
        if self.day0 is not None and self.crashes:
            # The adopted tenant never went through the intent bus, so the
            # journal cannot replay it, and the detector, injector and loop
            # would stay bound to the dead orchestrator's worker.
            raise ValueError("controller crashes recover seeded tenant intents")
        if self.crashes and self.checkpoint_interval is None:
            raise ValueError("controller crashes recover from a journal")


@dataclass
class Recovery:
    """One crash → ``recover()`` cycle of a played scenario."""

    crash_time: float
    report: RecoveryReport
    #: When every pre-crash intent was terminal again with zero drift.
    caught_up_at: Optional[float] = None

    @property
    def downtime(self) -> float:
        return self.report.recovered_at - self.crash_time


@dataclass
class RunResult:
    """What one played scenario reports; bit-identical for a seed."""

    #: The event plane, the probe loop's tallies and, on the controller's
    #: day 0, the adopted fabric's southbound ledger.
    metrics: dict
    #: The orchestrator's ``state_signature()`` / ``metrics_summary()``
    #: at the horizon (the recovered one after a crash).
    state_signature: str
    summary: Dict[str, float]
    faults_injected: int
    faults_detected: int
    reconvergences: int
    #: The slice of the policy-violation-seconds the controller was down.
    downtime_pv_seconds: float
    #: The final audit of every tenant's deployment.
    final_verify_ok: bool
    final_policy_violations: int
    final_interference_violations: int
    #: The delivery ledgers of every tenant network the probe loop reached
    #: or the horizon holds, summed.
    network_stats: NetworkStats
    schedule_signature: str
    #: Signature of the control-plane disconnects (``None``: no loss).
    southbound_signature: Optional[str] = None
    recoveries: List[Recovery] = field(default_factory=list)
    journal: Optional[MemoryJournal] = None

    def signature(self) -> str:
        """Canonical determinism signature: schedule + metrics + ledger."""
        payload = {
            "schedule": self.schedule_signature,
            "metrics": self.metrics,
            "ledger": list(self.network_stats.as_tuple()),
        }
        if self.southbound_signature is not None:
            payload["southbound_schedule"] = self.southbound_signature
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class ProbeTick:
    """Aggregate probe outcomes of one sampling instant."""

    time: float
    sent: int
    delivered: int
    dropped: int
    policy_violations: int
    interference_violations: int


class ProbeLoop:
    """Fixed-cadence synthetic probes over every tenant's data plane.

    Each tick walks the tenants of ``world.orch`` in sorted order (read
    through the world, so an orchestrator ``recover()`` rebuilt is probed
    without re-arming the timer) and injects one probe at each sub-class's
    hash midpoint of every class the tenant's committed blueprint holds: a
    class deleted in flight legitimately rides default forwarding.  A
    class the tenant carried when the loop started and its plan no longer
    does (stranded or shed) gets a midpoint probe too: its traffic must
    black-hole at the ingress quarantine, never pass unprocessed.  Each
    delivered probe is scored with :func:`repro.core.verify.probe_faults`
    against its chain and the path its tenant's fabric has live (acked).

    The loop owns the traffic-plane tallies: downtime (ticks with a
    dropped probe), policy-violation-seconds (ticks with a mis-chained or
    off-path probe), their slice while the controller is down, and the
    probe counts.
    """

    def __init__(self, world: "World") -> None:
        self.world = world
        self.ticks: List[ProbeTick] = []
        #: Set while the controller is down (a crash's downtime window).
        self.down = False
        self.downtime_pv_ticks = 0
        #: Every tenant network probed, by identity: a tenant deleted before
        #: the horizon takes its network's ledger with it.
        self.networks: Dict[int, DataPlaneNetwork] = {}
        #: Per tenant, (class_id, src, dst, chain) of the classes it carried
        #: when the loop started, so stranded classes keep being probed.
        self._baseline: Dict[str, List[Tuple[str, str, str, Tuple[str, ...]]]] = {}
        self._timer: Optional[Timer] = None

    def start(self) -> None:
        workers = self.world.orch.workers
        self._baseline = {
            tenant_id: [
                (c.class_id, c.src, c.dst, tuple(c.chain.names))
                for c in worker.deployment.plan.classes
            ]
            for tenant_id, worker in workers.items()
            if worker.deployment is not None
        }
        self._timer = self.world.sim.every(PROBE_INTERVAL, self.tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def tick(self) -> None:
        now = self.world.sim.now
        workers = self.world.orch.workers
        sent = delivered = dropped = policy = interference = 0
        for tenant_id in sorted(workers):
            worker = workers[tenant_id]
            deployment = worker.deployment
            if deployment is None:
                continue
            network = deployment.network
            self.networks.setdefault(id(network), network)
            inject = network.inject
            live_path = worker.fabric.active_path
            blueprint = {c.class_id for c in worker.chains.values()}
            probes = []
            for cls in deployment.plan.classes:
                if cls.class_id not in blueprint:
                    continue
                path = live_path(cls.class_id)
                if path is None:
                    path = cls.path
                for sub in deployment.subclass_plan.subclasses(cls.class_id):
                    lo, hi = sub.hash_range
                    if hi > lo:
                        probes.append(
                            (cls.class_id, (lo + hi) / 2, cls.src, cls.dst,
                             cls.chain.names, path)
                        )
            current = {c.class_id for c in deployment.plan.classes}
            for class_id, src, dst, chain in self._baseline.get(tenant_id, ()):
                if class_id not in current:
                    probes.append((class_id, 0.5, src, dst, chain, None))
            for class_id, h, src, dst, chain, path in probes:
                sent += 1
                packet = Packet(class_id=class_id, flow_hash=h, src=src, dst=dst)
                if not inject(packet, now=now).delivered:
                    dropped += 1
                    continue
                delivered += 1
                visited, switches = probe_faults(packet, chain, path)
                policy += visited is not None
                interference += switches is not None
        if self.down and (policy or interference):
            self.downtime_pv_ticks += 1
        self.ticks.append(
            ProbeTick(round(now, 6), sent, delivered, dropped, policy, interference)
        )

    @property
    def downtime_seconds(self) -> float:
        """Probe intervals during which at least one probe black-holed."""
        return PROBE_INTERVAL * sum(1 for t in self.ticks if t.dropped)

    @property
    def policy_violation_seconds(self) -> float:
        """Intervals during which a delivered probe left its chain or path."""
        return PROBE_INTERVAL * sum(
            1 for t in self.ticks if t.policy_violations or t.interference_violations
        )

    @property
    def probes_sent(self) -> int:
        return sum(t.sent for t in self.ticks)

    @property
    def probes_dropped(self) -> int:
        return sum(t.dropped for t in self.ticks)

    def to_dict(self) -> dict:
        """The deterministic traffic-plane export."""
        return {
            "ticks": [
                [round(t.time, 6), t.sent, t.delivered, t.dropped,
                 t.policy_violations, t.interference_violations]
                for t in self.ticks
            ],
            "downtime_seconds": round(self.downtime_seconds, 6),
            "policy_violation_seconds": round(self.policy_violation_seconds, 6),
            "probes_sent": self.probes_sent,
            "probes_dropped": self.probes_dropped,
        }


class World:
    """A scenario's live stack, built: :meth:`play` arms, runs and reports.

    Attributes a caller may read or wire into before :meth:`play`: ``sim``,
    ``orch`` (swapped for the recovered one after a crash), ``probes``,
    ``chaos`` (the event plane) and, on the controller's day 0, ``worker``,
    ``fabric``, ``detector``, ``injector``, ``recovery``, and ``elastic``
    with its ``spikes`` when the scenario has a flash crowd.
    """

    def __init__(self, scenario: Scenario, seed: int = 0) -> None:
        self.scenario = scenario
        self.seed = seed
        self.chaos = ChaosMetrics()
        self.journal: Optional[MemoryJournal] = None
        self.recoveries: List[Recovery] = []
        self.worker: Optional[TenantWorker] = None
        self.fabric: Optional[SouthboundFabric] = None
        self.detector = self.injector = self.recovery = None
        self.elastic: Optional[ElasticController] = None
        self.spikes = None
        self.schedule = FaultSchedule.empty(seed)
        self.sb_schedule: Optional[FaultSchedule] = None
        self._intents: List[Tuple[float, Intent]] = []
        if scenario.day0 is not None:
            self._adopt(*scenario.day0(seed))
        else:
            topo, self._intents = scenario.intents(seed)
            self.sim = Simulator(seed=seed)
            self.orch = TenantOrchestrator(topo, self.sim, seed=seed)
            if obs.REGISTRY.enabled:
                # Per-tenant labels (tenancy_worker_queue_depth) need
                # headroom beyond the default cardinality cap.
                tenants = {intent.tenant_id for _, intent in self._intents}
                obs.REGISTRY.max_series = max(
                    obs.REGISTRY.max_series, len(tenants) + 64
                )
        if scenario.checkpoint_interval is not None:
            self.journal = MemoryJournal(seed=seed)
            self.orch.attach_journal(self.journal, scenario.checkpoint_interval)
        self.probes = ProbeLoop(self)

    def _adopt(self, controller: AppleController, sim: Simulator) -> None:
        """Adopt the controller's day-0 deployment (engine, rule generator,
        plan and wire) as the one tenant of a fresh orchestrator."""
        scenario, seed = self.scenario, self.seed
        deployment = controller.deployment
        self.sim = sim
        orch = self.orch = TenantOrchestrator(controller.topo, sim, seed=seed)
        worker = self.worker = orch.workers[TENANT] = TenantWorker(TENANT, orch)
        worker.engine = controller.engine
        worker.rulegen = controller.rule_generator
        if scenario.loss is None:
            fabric = worker.new_fabric(deployment.network)
        else:
            fabric = SouthboundFabric(
                sim,
                deployment.network,
                seed,
                controller.rule_generator,
                chaos=scenario.loss,
                drain_retired=True,
            )
            self.sb_schedule = generate_southbound_schedule(
                sorted(deployment.network.switches), scenario.loss, seed
            )
        if isinstance(scenario.faults, ChaosConfig):
            self.schedule = generate_schedule(
                controller.topo,
                scenario.faults,
                seed,
                instance_keys=sorted(deployment.instances),
                hosts_in_use=deployment.rules.hosts_in_use,
            )
        elif scenario.faults is not None:
            self.schedule = scenario.faults
        plan, rules = deployment.plan, deployment.rules
        # Chain ids that sort in day-0 order: the worker re-plans in that
        # order, so the controller's warm templates carry over.
        worker.adopt(
            {f"{k:06d}": c for k, c in enumerate(plan.classes)},
            (plan, deployment.subclass_plan, rules),
            fabric,
            deployment.instances,
        )
        # The day-0 plan, charged as an epoch granted and settled.
        cores = plan.cores_by_switch()
        orch.arbiter.request(
            TENANT, cores, rules.classification_rule_count(), resume=None
        )
        orch.arbiter.settle(TENANT, cores)
        self.fabric = fabric
        self.recovery = RecoveryManager(worker, self.chaos)
        self.detector = FailureDetector(worker, self.recovery.on_detections)
        # One injector, both schedules: data-plane faults first, then the
        # control-plane disconnects (arming order breaks same-time ties).
        self.injector = FaultInjector(
            worker, (*self.schedule, *(self.sb_schedule or ())), self.chaos
        )
        fabric.on_degraded = (
            lambda sw, now: self.chaos.detection("southbound", sw, now)
        )
        fabric.on_restored = lambda sw, now: self.chaos.repair(sw, now)
        if scenario.flash is not None:
            baseline = {c.class_id: c.rate_mbps for c in plan.classes}
            spikes = self.spikes = generate_flash_crowd(
                sorted(baseline), scenario.flash, seed
            )
            self.elastic = ElasticController(
                worker,
                lambda now: {
                    cid: rate * spikes.multiplier(cid, now)
                    for cid, rate in baseline.items()
                },
                slo_map=assign_slo_classes(sorted(baseline)),
            )

    # ------------------------------------------------------------------
    def play(self) -> RunResult:
        """Arm what the scenario names, run to its horizon, report."""
        sim = self.sim
        if self.elastic is not None:
            self.elastic.start()
        if self.injector is not None:
            self.injector.arm()
            self.detector.start()
        self.probes.start()
        self.orch.start()
        for delay, intent in self._intents:
            self.orch.submit(intent, delay=delay)
        for ev in sorted(self.scenario.crashes, key=lambda e: e.time):
            sim.schedule(ev.time, self._crash, args=(ev,))
        sim.run(until=self.scenario.horizon)
        return self.finish()

    def _crash(self, ev: FaultEvent) -> None:
        """Kill the controller; recover a fresh one after ``ev.duration``."""
        crash_time = self.sim.now
        harvest = self.orch.crash()
        self.probes.down = True
        if obs.REGISTRY.enabled:
            obs.metric("resilience_crashes_total").inc()
            obs.metric("resilience_downtime_seconds_total").inc(ev.duration)

        def come_back() -> None:
            self.orch, report = recover(
                self.journal,
                self.orch.topo,
                self.sim,
                seed=self.seed,
                harvest=harvest,
                checkpoint_interval=self.scenario.checkpoint_interval,
            )
            self.probes.down = False
            recovery = Recovery(crash_time, report)
            self.recoveries.append(recovery)
            self._watch_catchup(recovery)

        self.sim.schedule(ev.duration, come_back)

    def _watch_catchup(self, recovery: Recovery) -> None:
        """Record when every pre-crash intent is terminal again with zero
        southbound drift."""
        timer: List[Timer] = []

        def poll() -> None:
            orch = self.orch
            if orch.total_drift() != 0 or any(
                not r.terminal
                for r in orch.bus.records
                if r.submitted_at <= recovery.crash_time
            ):
                return
            recovery.caught_up_at = self.sim.now
            timer[0].cancel()

        timer.append(self.sim.every(CATCHUP_POLL, poll))

    def finish(self) -> RunResult:
        """Stop every timer, export the run, audit every tenant.

        The final audit reads the installed tables and sends no packet, so
        the ledgers read last hold exactly the run's own traffic (the
        probe loop's included).
        """
        if self.detector is not None:
            self.detector.stop()
        if self.elastic is not None:
            self.elastic.stop()
        self.probes.stop()
        orch = self.orch
        orch.stop()
        metrics = {**self.chaos.to_dict(), **self.probes.to_dict()}
        if self.fabric is not None:
            metrics["southbound"] = self.fabric.metrics.to_dict()
        collect_chaos(self.chaos, self.probes)
        trace_chaos_timeline(self.chaos, self.probes.ticks)
        if obs.REGISTRY.enabled and self.journal is not None:
            obs.metric("resilience_journal_length").set(len(self.journal))
        ok, policy, interference = True, 0, 0
        networks = dict(self.probes.networks)
        for tenant_id in sorted(orch.workers):
            deployment = orch.workers[tenant_id].deployment
            if deployment is None:
                continue
            report = verify_deployment(deployment, orch.topo)
            ok = ok and report.ok
            kinds = [v.kind for v in report.violations]
            policy += kinds.count("policy")
            interference += kinds.count("interference")
            networks.setdefault(id(deployment.network), deployment.network)
        ledger = [0, 0, 0]
        for network in networks.values():
            stats = network.stats_snapshot().as_tuple()
            ledger = [a + b for a, b in zip(ledger, stats)]
        return RunResult(
            metrics=metrics,
            state_signature=orch.state_signature(),
            summary=orch.metrics_summary(),
            faults_injected=len(self.injector.applied) if self.injector else 0,
            faults_detected=self.chaos.detected_count(),
            reconvergences=self.recovery.reconvergences if self.recovery else 0,
            downtime_pv_seconds=PROBE_INTERVAL * self.probes.downtime_pv_ticks,
            final_verify_ok=ok,
            final_policy_violations=policy,
            final_interference_violations=interference,
            network_stats=NetworkStats(*ledger),
            schedule_signature=self.schedule.signature(),
            southbound_signature=(
                None if self.sb_schedule is None else self.sb_schedule.signature()
            ),
            recoveries=self.recoveries,
            journal=self.journal,
        )


def play(scenario: Scenario, seed: int = 0) -> RunResult:
    """Build the scenario's world, arm it, run it and report."""
    return World(scenario, seed).play()
