"""The chaos engine: schedule + injector + detector + recovery, one run.

:class:`ChaosEngine` wires the whole failure study onto one simulator:

* the **injector** arms the deterministic fault schedule,
* the **detector** heartbeat-scans the deployment,
* the **recovery manager** reconverges on each verdict batch,
* the **probe loop** scores the data plane at a fixed cadence.

:meth:`ChaosEngine.run` drives the simulation and returns a
:class:`ChaosRunResult` whose ``metrics`` dict is bit-identical across
same-seed runs; wall-clock costs and the final verification report ride
alongside, outside the deterministic part.
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


@dataclass
class ChaosRunResult:
    """Everything a failure-recovery experiment reports about one run."""

    seed: int
    faults_injected: int
    faults_detected: int
    reconvergences: int
    #: Deterministic metrics export (bit-identical across same-seed runs).
    metrics: dict
    #: Wall-clock convergence costs (reported, never compared).
    wall_clock: dict
    schedule_signature: str
    final_verify_ok: bool
    final_verify_summary: str
    final_policy_violations: int
    final_interference_violations: int
    network_stats: NetworkStats
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
        controller: a controller with a live deployment.
        schedule: the deterministic fault schedule (may be empty — an
            empty schedule attached must leave the run bit-identical to a
            plain run, the no-op regression).
        southbound: a configured
            :class:`~repro.southbound.fabric.SouthboundFabric` over the
            deployment's network (lossy channels, ``drain_retired``, …);
            left out, the engine builds the default loss-free one and has
            it adopt the deployment as epoch 0.  Recovery commits flow
            through it, its reconciler runs for the whole study,
            circuit-breaker events feed the detection timeline, and the
            probe loop scores interference against its live (acked) paths.
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
        if southbound is None:
            southbound = SouthboundFabric(
                sim,
                controller.deployment.network,
                schedule.seed,
                controller.rule_generator,
            )
        if southbound.desired is None:
            controller.attach_southbound(southbound)
        self.sim = sim
        self.controller = controller
        self.schedule = schedule
        self.southbound = southbound
        self.southbound_schedule = southbound_schedule
        self.metrics = ChaosMetrics()
        self.recovery = RecoveryManager(sim, controller, self.metrics, southbound)
        self.detector = FailureDetector(
            sim, controller, on_detect=self.recovery.on_detections
        )
        # One injector, both schedules: data-plane faults first, then the
        # control-plane disconnects (arming order breaks same-time ties).
        self.injector = FaultInjector(
            sim,
            controller,
            (*schedule, *(southbound_schedule or ())),
            self.metrics,
            southbound,
        )
        southbound.on_degraded = (
            lambda sw, now: self.metrics.detection("southbound", sw, now)
        )
        southbound.on_restored = lambda sw, now: self.metrics.repair(sw, now)
        self.probes = ProbeLoop(
            sim,
            lambda: controller.deployment,
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
        self.southbound.start()
        self.detector.start()
        self.probes.start()

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
        self.southbound.stop()
        metrics_dict = self.metrics.to_dict()
        metrics_dict["southbound"] = self.southbound.metrics.to_dict()
        wall = self.metrics.wall_clock()
        collect_chaos(self.metrics)
        trace_chaos_timeline(self.metrics)
        report = verify_deployment(
            self.controller.deployment, self.controller.topo
        )
        policy = sum(1 for v in report.violations if v.kind == "policy")
        interference = sum(
            1 for v in report.violations if v.kind == "interference"
        )
        stats = self.controller.deployment.network.stats_snapshot()
        return ChaosRunResult(
            seed=self.schedule.seed,
            faults_injected=len(self.injector.applied),
            faults_detected=self.metrics.detected_count(),
            reconvergences=self.recovery.reconvergences,
            metrics=metrics_dict,
            wall_clock=wall,
            schedule_signature=self.schedule.signature(),
            final_verify_ok=report.ok,
            final_verify_summary=report.summary(),
            final_policy_violations=policy,
            final_interference_violations=interference,
            network_stats=stats,
            southbound_signature=(
                self.southbound_schedule.signature()
                if self.southbound_schedule is not None
                else None
            ),
        )
