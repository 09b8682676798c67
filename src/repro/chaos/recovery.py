"""Interference-free recovery: the controller's reaction to detections.

One reconvergence per detector verdict batch: the manager records the
verdicts (a browned-out VM is shut down: replaced, not nursed) and submits
one :class:`~repro.tenancy.intents.Replan` intent to the tenant worker
owning the deployment.  The worker re-routes classes off failed links
(interference freedom is *relative to routing*), quarantines those with
no surviving path or live APPLE host (an ingress DROP: their traffic
black-holes, never passes unprocessed), re-solves warm on the live hosts,
is charged only the instances it creates and commits one acked
make-before-break epoch.  Its ops are serialized, so a recovery waits
behind an open elastic epoch instead of replacing it.  Each re-plan files
one :class:`~repro.chaos.metrics.ConvergenceRecord` (a refused placement
is a failed one).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.chaos.detector import Detection
from repro.chaos.metrics import ChaosMetrics, ConvergenceRecord
from repro.core.reconfigure import Outcome
from repro.tenancy.intents import IntentRecord, Replan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.tenancy.worker import TenantWorker


class RecoveryManager:
    """Turns detector verdicts into re-plan intents and their records.

    Args:
        worker: the tenant worker owning the live deployment.
        metrics: event-plane recorder.
    """

    def __init__(self, worker: "TenantWorker", metrics: ChaosMetrics) -> None:
        self.worker = worker
        self.metrics = metrics
        self.reconvergences = 0
        #: Open re-plans by intent seq: [the record being filled, the kept
        #: instances and the fabric's channel retries when the op solved].
        self._open: Dict[int, list] = {}

    # ------------------------------------------------------------------
    def on_detections(self, detections: Sequence[Detection]) -> None:
        """Detector callback: record verdicts, react, reconverge once."""
        worker = self.worker
        fabric = worker.fabric
        for d in detections:
            self.metrics.detection(d.kind, d.target, d.time)
            if d.kind == "brownout":
                # Operator policy: a degraded VM is replaced, not nursed.
                inst = fabric.instances.get(d.target)
                if inst is not None and inst.running:
                    inst.shutdown()
                    fabric.network.invalidate_plans()
        record = worker.orch.submit(Replan(worker.tenant_id))
        record.observer = self
        trigger = tuple(f"{d.kind}:{d.target}" for d in detections)
        self._open[record.seq] = [
            ConvergenceRecord(worker.orch.sim.now, trigger, 0, 0, 0), (), 0
        ]

    # ------------------------------------------------------------------
    # Worker observer
    # ------------------------------------------------------------------
    def solved(self, record: IntentRecord, view: tuple, plan, kept) -> None:
        classes, stranded, rerouted = view
        entry = self._open[record.seq]
        rec = entry[0]
        rec.classes, rec.stranded, rec.rerouted = len(classes), len(stranded), rerouted
        if plan is not None:
            rec.warm_start = plan.warm_start
            self.reconvergences += 1
            entry[1:] = [set(kept), self.worker.fabric.metrics.retries]

    def finished(self, record: IntentRecord, outcome: Optional[Outcome]) -> None:
        rec, kept, retries_before = self._open.pop(record.seq)
        rec.time = self.worker.orch.sim.now
        if outcome is None:
            rec.failed, rec.failure_reason = True, record.detail
        else:
            fabric = self.worker.fabric
            rec.channel_retries = fabric.metrics.retries - retries_before
            rec.switches_updated = fabric.last_push["switches"]
            rec.flow_mods = fabric.last_push["ops"]
            rec.vswitch_updates = fabric.last_push["vsw_ops"]
            rec.instances_created = sum(
                1 for key in outcome.deployment.instances if key not in kept
            )
            rec.convergence_latency = outcome.convergence.latency
            rec.verify_summary = outcome.report.summary()
            rec.verify_ok = outcome.report.ok
        self.metrics.convergence(rec)
