"""Interference-free recovery: the controller's reaction to detections.

One reconvergence per detector verdict batch.  The manager records the
verdicts (a browned-out VM is shut down: replaced, not nursed), adds dead
instances to the controller's failure view and runs the controller's one
re-plan step (:meth:`~repro.core.controller.AppleController.desired_classes`
→ ``place_live`` → ``push``): classes on failed links are re-routed over
the surviving topology (interference freedom is *relative to routing*),
classes with no surviving path or no live APPLE host on it are stranded
(an ingress quarantine DROP: their traffic black-holes, never passes
unprocessed), the engine re-solves warm over the surviving resources and
one acked make-before-break epoch carries the result.  The audit at
convergence lands in the :class:`~repro.chaos.metrics.ConvergenceRecord`;
an epoch a later push replaced before it converged is recorded as
*superseded*, so there is exactly one record per reconvergence.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Sequence, Tuple

from repro import obs
from repro.chaos.detector import Detection
from repro.chaos.metrics import ChaosMetrics, ConvergenceRecord
from repro.core.controller import AppleController
from repro.core.engine import PlacementError
from repro.core.reconfigure import Outcome
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.southbound.fabric import SouthboundFabric


class RecoveryManager:
    """Turns detector verdicts into controller re-plans and their records.

    Args:
        sim: shared simulator.
        controller: the live controller; its re-plan step swaps
            ``controller.deployment`` when a pushed epoch converges (the
            data-plane network object is reused — rules mutate in place,
            exactly like a real switch fabric).
        metrics: event-plane recorder.
        fabric: the southbound fabric attached to ``controller``.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: AppleController,
        metrics: ChaosMetrics,
        fabric: "SouthboundFabric",
    ) -> None:
        if controller.deployment is None:
            raise RuntimeError("recovery needs a deployed placement")
        self.sim = sim
        self.controller = controller
        self.metrics = metrics
        self.fabric = fabric
        self.reconvergences = 0

    # ------------------------------------------------------------------
    def on_detections(self, detections: Sequence[Detection]) -> None:
        """Detector callback: record verdicts, react, reconverge once."""
        failed = self.controller.failed_instances
        for d in detections:
            self.metrics.detection(d.kind, d.target, d.time)
            if d.kind == "instance":
                failed.add(d.target)
            elif d.kind == "brownout":
                # Operator policy: a degraded VM is replaced, not nursed.
                inst = self.fabric.instances.get(d.target)
                if inst is not None and inst.running:
                    inst.shutdown()
                    self.fabric.network.invalidate_plans()
                failed.add(d.target)
        self._reconverge(tuple(f"{d.kind}:{d.target}" for d in detections))

    # ------------------------------------------------------------------
    def _reconverge(self, trigger: Tuple[str, ...]) -> None:
        controller, fabric = self.controller, self.fabric
        with obs.span("chaos.recovery", cat="chaos"):
            wall0 = time.perf_counter()
            classes, stranded, rerouted = controller.desired_classes()
            record = ConvergenceRecord(
                time=self.sim.now,
                trigger=trigger,
                classes=len(classes),
                rerouted=rerouted,
                stranded=len(stranded),
            )
            try:
                plan = controller.place_live(classes)
            except PlacementError as exc:
                record.failed, record.failure_reason = True, str(exc)
                record.wall_seconds = time.perf_counter() - wall0
                self.metrics.convergence(record)
                return
            record.warm_start = plan.warm_start
            self.reconvergences += 1
            surviving = controller.surviving_instances()
            retries_before = fabric.metrics.retries

            def done(outcome: Outcome) -> None:
                record.time = self.sim.now
                record.channel_retries = fabric.metrics.retries - retries_before
                if outcome.superseded:
                    record.superseded = True
                    self.metrics.convergence(record)
                    return
                record.switches_updated = fabric.last_push["switches"]
                record.flow_mods = fabric.last_push["ops"]
                record.vswitch_updates = fabric.last_push["vsw_ops"]
                record.instances_created = sum(
                    1 for key in outcome.deployment.instances if key not in surviving
                )
                record.convergence_latency = outcome.convergence.latency
                record.verify_summary = outcome.report.summary()
                record.verify_ok = outcome.report.ok
                self.metrics.convergence(record)

            controller.push(plan, stranded, done)
            record.wall_seconds = time.perf_counter() - wall0
