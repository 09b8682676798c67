"""Chaos run accounting: the event plane of a live run.

:class:`ChaosMetrics` keeps one :class:`FaultRecord` per injected fault
(applied → detected → repaired timestamps) plus a
:class:`ConvergenceRecord` per controller reaction, forming the recovery
timeline.  The traffic plane (downtime, policy-violation-seconds) is the
probe loop's (:class:`repro.experiments.scenario.ProbeLoop`).
:meth:`ChaosMetrics.to_dict` is bit-identical across same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.schedule import FaultEvent


@dataclass
class FaultRecord:
    """Lifecycle timestamps of one injected fault."""

    kind: str
    target: str
    scheduled_at: float
    applied_at: Optional[float] = None
    lifted_at: Optional[float] = None
    detected_at: Optional[float] = None
    repaired_at: Optional[float] = None

    @property
    def detection_latency(self) -> Optional[float]:
        if self.applied_at is None or self.detected_at is None:
            return None
        return self.detected_at - self.applied_at

    @property
    def time_to_repair(self) -> Optional[float]:
        if self.applied_at is None or self.repaired_at is None:
            return None
        return self.repaired_at - self.applied_at


@dataclass
class ConvergenceRecord:
    """One recovery re-plan: re-placement + rule push (+ verify)."""

    time: float
    trigger: Tuple[str, ...]
    classes: int
    rerouted: int
    stranded: int
    warm_start: bool = False
    switches_updated: int = 0
    flow_mods: int = 0
    vswitch_updates: int = 0
    instances_created: int = 0
    verify_summary: Optional[str] = None
    verify_ok: Optional[bool] = None
    failed: bool = False
    failure_reason: str = ""
    #: Retransmissions spent pushing this convergence.
    channel_retries: int = 0
    #: Push -> zero drift everywhere (None when failed).
    convergence_latency: Optional[float] = None


def fault_id(event: FaultEvent) -> str:
    """Stable identifier of a scheduled fault."""
    return f"{event.kind.value}:{event.target}@{event.time:.6f}"


class ChaosMetrics:
    """Collects the event-plane records of one run."""

    def __init__(self) -> None:
        self.faults: Dict[str, FaultRecord] = {}
        self.timeline: List[Tuple[float, str, str]] = []
        self.convergences: List[ConvergenceRecord] = []

    def note(self, time: float, kind: str, detail: str) -> None:
        self.timeline.append((round(time, 6), kind, detail))

    def fault_applied(self, event: FaultEvent, now: float) -> None:
        rec = self.faults.setdefault(
            fault_id(event),
            FaultRecord(
                kind=event.kind.value, target=event.target, scheduled_at=event.time
            ),
        )
        rec.applied_at = now
        self.note(now, "inject", f"{event.kind.value} {event.target}")

    def fault_lifted(self, event: FaultEvent, now: float) -> None:
        rec = self.faults.get(fault_id(event))
        if rec is not None:
            rec.lifted_at = now
        self.note(now, "lift", f"{event.kind.value} {event.target}")

    def detection(self, kind: str, target: str, now: float) -> None:
        """A detector verdict; matched to the open fault on ``target``."""
        self.note(now, "detect", f"{kind} {target}")
        for rec in self.faults.values():
            if (
                rec.target == target
                and rec.applied_at is not None
                and rec.detected_at is None
            ):
                rec.detected_at = now

    def repair(self, target: str, now: float) -> None:
        """Mark the open detected fault on ``target`` as repaired.

        Used by faults whose repair is target-local rather than a global
        reconvergence — e.g. a southbound circuit closing when the switch
        reconnects.
        """
        self.note(now, "repair", target)
        for rec in self.faults.values():
            if (
                rec.target == target
                and rec.detected_at is not None
                and rec.repaired_at is None
            ):
                rec.repaired_at = now

    def convergence(self, record: ConvergenceRecord) -> None:
        """A recovery convergence; open detected faults count as repaired."""
        self.convergences.append(record)
        self.note(
            record.time,
            "recover",
            f"classes={record.classes} rerouted={record.rerouted} "
            f"stranded={record.stranded} warm={record.warm_start} "
            f"flow_mods={record.flow_mods}",
        )
        if record.failed:
            return
        for rec in self.faults.values():
            if rec.detected_at is not None and rec.repaired_at is None:
                rec.repaired_at = record.time

    # ------------------------------------------------------------------
    # Aggregates / export
    # ------------------------------------------------------------------
    def _latencies(self, attr: str) -> List[float]:
        out = []
        for rec in self.faults.values():
            value = getattr(rec, attr)
            if value is not None:
                out.append(value)
        return out

    def mean_detection_latency(self) -> Optional[float]:
        vals = self._latencies("detection_latency")
        return sum(vals) / len(vals) if vals else None

    def mean_time_to_repair(self) -> Optional[float]:
        vals = self._latencies("time_to_repair")
        return sum(vals) / len(vals) if vals else None

    def max_time_to_repair(self) -> Optional[float]:
        vals = self._latencies("time_to_repair")
        return max(vals) if vals else None

    def detected_count(self) -> int:
        return sum(1 for r in self.faults.values() if r.detected_at is not None)

    def to_dict(self) -> dict:
        """The deterministic (bit-identical across same-seed runs) export."""

        def r6(x: Optional[float]) -> Optional[float]:
            return None if x is None else round(x, 6)

        return {
            "faults": [
                {
                    "kind": rec.kind,
                    "target": rec.target,
                    "scheduled_at": r6(rec.scheduled_at),
                    "applied_at": r6(rec.applied_at),
                    "lifted_at": r6(rec.lifted_at),
                    "detected_at": r6(rec.detected_at),
                    "repaired_at": r6(rec.repaired_at),
                }
                for _, rec in sorted(self.faults.items())
            ],
            "timeline": [list(entry) for entry in self.timeline],
            "convergences": [
                {
                    "time": r6(c.time),
                    "trigger": list(c.trigger),
                    "classes": c.classes,
                    "rerouted": c.rerouted,
                    "stranded": c.stranded,
                    "warm_start": c.warm_start,
                    "switches_updated": c.switches_updated,
                    "flow_mods": c.flow_mods,
                    "vswitch_updates": c.vswitch_updates,
                    "instances_created": c.instances_created,
                    "verify_summary": c.verify_summary,
                    "verify_ok": c.verify_ok,
                    "failed": c.failed,
                    "failure_reason": c.failure_reason,
                    "channel_retries": c.channel_retries,
                    "convergence_latency": r6(c.convergence_latency),
                }
                for c in self.convergences
            ],
            "mean_detection_latency": r6(self.mean_detection_latency()),
            "mean_time_to_repair": r6(self.mean_time_to_repair()),
            "max_time_to_repair": r6(self.max_time_to_repair()),
        }

