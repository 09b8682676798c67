"""The chaos engine: schedule + injector + detector + recovery, one run.

:class:`ChaosEngine` adopts the controller's day-0 deployment (engine,
rule generator, plan and wire) as the one tenant of a
:class:`~repro.tenancy.orchestrator.TenantOrchestrator`, so every re-plan
is an intent on its bus, charged by its arbiter and audited by its
isolation audit, and wires the failure study onto one simulator:

* the **injector** arms the deterministic fault schedule,
* the **detector** heartbeat-scans the worker's deployment,
* the **recovery manager** submits one re-plan per verdict batch,
* the **probe loop** scores the data plane at a fixed cadence.

:meth:`ChaosEngine.run` returns a :class:`ChaosRunResult` whose
``metrics`` dict is bit-identical across same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chaos.detector import FailureDetector
from repro.obs.collectors import collect_chaos, trace_chaos_timeline
from repro.chaos.injector import FaultInjector
from repro.chaos.metrics import ChaosMetrics, ProbeLoop
from repro.chaos.recovery import RecoveryManager
from repro.chaos.schedule import FaultSchedule
from repro.core.controller import AppleController
from repro.core.verify import verify_deployment
from repro.dataplane.network import NetworkStats
from repro.sim.kernel import Simulator
from repro.southbound.fabric import SouthboundFabric

#: The one tenant of a chaos run (class ids keep the controller's names).
TENANT = "apple"


@dataclass
class ChaosRunResult:
    """Everything a failure-recovery experiment reports about one run."""

    seed: int
    faults_injected: int
    faults_detected: int
    reconvergences: int
    #: Deterministic metrics export (bit-identical across same-seed runs).
    metrics: dict
    schedule_signature: str
    final_verify_ok: bool
    final_verify_summary: str
    final_policy_violations: int
    final_interference_violations: int
    network_stats: NetworkStats
    #: The orchestrator's isolation audit (running instances charged and
    #: within the hosts); must be 0.
    cross_tenant_violation_seconds: float
    #: Signature of the control-plane fault schedule (``None`` when the
    #: run had none).
    southbound_signature: Optional[str] = None

    def signature(self) -> str:
        """Canonical determinism signature: schedule + metrics + ledger."""
        import json

        payload = {
            "schedule": self.schedule_signature,
            "metrics": self.metrics,
            "ledger": list(self.network_stats.as_tuple()),
        }
        if self.southbound_signature is not None:
            payload["southbound_schedule"] = self.southbound_signature
        return json.dumps(payload, sort_keys=True)


class ChaosEngine:
    """One-stop wiring of the fault-injection study onto a simulator.

    Args:
        sim: the shared simulator (traffic, heartbeats and faults all ride
            on its clock).
        controller: a controller with a day-0 deployment; its engine, rule
            generator and deployment are adopted, not rebuilt (warm
            templates carry over), and it plans nothing after day 0.
        schedule: the deterministic fault schedule (may be empty — an
            empty schedule must leave the run bit-identical to a plain
            run, the no-op regression).
        southbound: a configured fabric over the deployment's network
            (lossy channels, …) that drains what an epoch retires
            (``drain_retired=True``); left out, the worker's default
            loss-free one.  Its circuit-breaker events feed the detection
            timeline, and the probe loop scores interference against its
            live (acked) paths.
        southbound_schedule: control-plane fault schedule (switch
            disconnects), injected alongside ``schedule``.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: AppleController,
        schedule: FaultSchedule,
        southbound: Optional[SouthboundFabric] = None,
        southbound_schedule: Optional[FaultSchedule] = None,
    ) -> None:
        # Here, not at the top: repro.southbound imports repro.chaos first.
        from repro.tenancy.orchestrator import TenantOrchestrator
        from repro.tenancy.worker import TenantWorker

        deployment = controller.deployment
        self.orch = TenantOrchestrator(controller.topo, sim, seed=schedule.seed)
        worker = self.worker = TenantWorker(TENANT, self.orch)
        self.orch.workers[TENANT] = worker
        worker.engine = controller.engine
        worker.rulegen = controller.rule_generator
        if southbound is None:
            southbound = worker.new_fabric(deployment.network)
        elif not southbound.drain_retired:
            raise ValueError(
                "a tenant fabric drains what an epoch retires: "
                "build it with drain_retired=True"
            )
        plan, rules = deployment.plan, deployment.rules
        # Chain ids that sort in day-0 order: the worker re-plans in that
        # order, so the controller's warm templates carry over.
        worker.adopt(
            {f"{k:06d}": c for k, c in enumerate(plan.classes)},
            (plan, deployment.subclass_plan, rules),
            southbound,
            deployment.instances,
        )
        # The day-0 plan, charged as an epoch granted and settled.
        cores = plan.cores_by_switch()
        self.orch.arbiter.request(
            TENANT, cores, rules.classification_rule_count(), resume=None
        )
        self.orch.arbiter.settle(TENANT, cores)
        self.sim = sim
        self.schedule = schedule
        self.southbound = southbound
        self.southbound_schedule = southbound_schedule
        self.metrics = ChaosMetrics()
        self.recovery = RecoveryManager(worker, self.metrics)
        self.detector = FailureDetector(worker, self.recovery.on_detections)
        # One injector, both schedules: data-plane faults first, then the
        # control-plane disconnects (arming order breaks same-time ties).
        self.injector = FaultInjector(
            worker, (*schedule, *(southbound_schedule or ())), self.metrics
        )
        southbound.on_degraded = (
            lambda sw, now: self.metrics.detection("southbound", sw, now)
        )
        southbound.on_restored = lambda sw, now: self.metrics.repair(sw, now)
        self.probes = ProbeLoop(
            sim,
            lambda: worker.deployment,
            on_tick=self.metrics.record_tick,
            expected_path_fn=southbound.active_path,
        )
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the schedule and start the detector + probe timers."""
        if self._started:
            return
        self._started = True
        self.injector.arm()
        self.detector.start()
        self.probes.start()
        self.orch.start()

    def run(self, until: float) -> ChaosRunResult:
        """Drive the simulation to ``until`` and finalize."""
        self.start()
        self.sim.run(until=until)
        return self.finalize()

    def finalize(self) -> ChaosRunResult:
        """Stop timers, snapshot metrics, run the final verification.

        The final verification reads the installed tables and sends no
        packet, so the ledger read last holds exactly the run's own
        traffic (the probe loop's included).
        """
        self.detector.stop()
        self.probes.stop()
        self.orch.stop()
        metrics_dict = self.metrics.to_dict()
        metrics_dict["southbound"] = self.southbound.metrics.to_dict()
        collect_chaos(self.metrics)
        trace_chaos_timeline(self.metrics)
        deployment = self.worker.deployment
        report = verify_deployment(deployment, self.orch.topo)
        policy = sum(1 for v in report.violations if v.kind == "policy")
        interference = sum(
            1 for v in report.violations if v.kind == "interference"
        )
        stats = deployment.network.stats_snapshot()
        return ChaosRunResult(
            seed=self.schedule.seed,
            faults_injected=len(self.injector.applied),
            faults_detected=self.metrics.detected_count(),
            reconvergences=self.recovery.reconvergences,
            metrics=metrics_dict,
            schedule_signature=self.schedule.signature(),
            final_verify_ok=report.ok,
            final_verify_summary=report.summary(),
            final_policy_violations=policy,
            final_interference_violations=interference,
            network_stats=stats,
            cross_tenant_violation_seconds=(
                self.orch.cross_tenant_violation_seconds
            ),
            southbound_signature=(
                self.southbound_schedule.signature()
                if self.southbound_schedule is not None
                else None
            ),
        )
