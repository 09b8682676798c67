"""Chaos run accounting: downtime, blackholes, violation-seconds, repair.

Two measurement planes:

* **event plane** — :class:`ChaosMetrics` keeps one :class:`FaultRecord`
  per injected fault (applied → detected → repaired timestamps) plus a
  :class:`ConvergenceRecord` per controller reaction, forming the
  recovery timeline.
* **traffic plane** — :class:`ProbeLoop` injects one probe per sub-class
  at a fixed cadence and scores delivery/policy/interference per tick;
  downtime and policy-violation-seconds integrate those ticks.

Everything lives in :meth:`ChaosMetrics.to_dict`, which is bit-identical
across same-seed runs (the acceptance criterion).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.schedule import FaultEvent, FaultKind
from repro.core.verify import probe_faults
from repro.dataplane.packet import Packet
from repro.sim.kernel import Simulator, Timer

#: Probe cadence (sim seconds): one downtime / policy-violation-seconds
#: granule per tick.
PROBE_INTERVAL = 0.25


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


@dataclass(frozen=True)
class ProbeTick:
    """Aggregate probe outcomes of one sampling instant."""

    time: float
    sent: int
    delivered: int
    dropped: int
    policy_violations: int
    interference_violations: int


def fault_id(event: FaultEvent) -> str:
    """Stable identifier of a scheduled fault."""
    return f"{event.kind.value}:{event.target}@{event.time:.6f}"


class ChaosMetrics:
    """Collects the event-plane records and integrates the traffic plane."""

    def __init__(self) -> None:
        self.faults: Dict[str, FaultRecord] = {}
        self.timeline: List[Tuple[float, str, str]] = []
        self.convergences: List[ConvergenceRecord] = []
        self.ticks: List[ProbeTick] = []

    # ------------------------------------------------------------------
    # Event plane
    # ------------------------------------------------------------------
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
    # Traffic plane
    # ------------------------------------------------------------------
    def record_tick(self, tick: ProbeTick) -> None:
        self.ticks.append(tick)

    @property
    def downtime_seconds(self) -> float:
        """Probe intervals during which at least one probe black-holed."""
        return PROBE_INTERVAL * sum(1 for t in self.ticks if t.dropped)

    @property
    def policy_violation_seconds(self) -> float:
        """Intervals during which delivered probes violated policy/path."""
        return PROBE_INTERVAL * sum(
            1
            for t in self.ticks
            if t.policy_violations or t.interference_violations
        )

    @property
    def probes_dropped(self) -> int:
        return sum(t.dropped for t in self.ticks)

    @property
    def probes_sent(self) -> int:
        return sum(t.sent for t in self.ticks)

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
            "ticks": [
                [
                    r6(t.time),
                    t.sent,
                    t.delivered,
                    t.dropped,
                    t.policy_violations,
                    t.interference_violations,
                ]
                for t in self.ticks
            ],
            "downtime_seconds": r6(self.downtime_seconds),
            "policy_violation_seconds": r6(self.policy_violation_seconds),
            "probes_sent": self.probes_sent,
            "probes_dropped": self.probes_dropped,
            "mean_detection_latency": r6(self.mean_detection_latency()),
            "mean_time_to_repair": r6(self.mean_time_to_repair()),
            "max_time_to_repair": r6(self.max_time_to_repair()),
        }


class ProbeLoop:
    """Fixed-cadence synthetic probes scoring the live data plane.

    Every tick injects one probe at each sub-class's hash midpoint (plus a
    midpoint probe for baseline classes the current placement no longer
    carries, so black-holed traffic of stranded classes stays visible) and
    scores each delivered probe with :func:`repro.core.verify.probe_faults`:
    the chain-order and routing-path tests
    :func:`repro.core.verify.verify_deployment` applies to every cell.

    The loop is deliberately independent of the chaos engine: a plain run
    (no chaos attached) drives the identical loop, which is what the
    empty-schedule bit-identity regression compares against.
    """

    def __init__(
        self,
        sim: Simulator,
        deployment_fn: Callable[[], "object"],
        on_tick: Optional[Callable[[ProbeTick], None]] = None,
        expected_path_fn: Optional[Callable[[str], Optional[tuple]]] = None,
    ) -> None:
        self.sim = sim
        self.deployment_fn = deployment_fn
        self.on_tick = on_tick
        #: Oracle for the path a class is *currently* routed on.  With a
        #: southbound fabric attached, rule pushes are asynchronous: the
        #: fabric's active-path map (updated atomically with each
        #: classification swap) is the truth, not the plan's target path.
        self.expected_path_fn = expected_path_fn
        self.ticks: List[ProbeTick] = []
        #: (class_id, src, dst, chain names) of the baseline placement;
        #: captured on start so stranded classes keep being probed.
        self._baseline: List[Tuple[str, str, str, Tuple[str, ...]]] = []
        self._timer: Optional[Timer] = None

    def start(self) -> None:
        deployment = self.deployment_fn()
        self._baseline = [
            (c.class_id, c.src, c.dst, tuple(c.chain.names))
            for c in deployment.plan.classes
        ]
        self._timer = self.sim.every(PROBE_INTERVAL, self.tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def tick(self) -> ProbeTick:
        now = self.sim.now
        deployment = self.deployment_fn()
        network = deployment.network
        current = {c.class_id: c for c in deployment.plan.classes}
        sent = delivered = dropped = policy = interference = 0

        def probe(class_id: str, h: float, src: str, dst: str, chain, path):
            nonlocal sent, delivered, dropped, policy, interference
            sent += 1
            packet = Packet(class_id=class_id, flow_hash=h, src=src, dst=dst)
            record = network.inject(packet, now=now)
            if not record.delivered:
                dropped += 1
                return
            delivered += 1
            visited, switches = probe_faults(packet, chain, path)
            if visited is not None:
                policy += 1
            if switches is not None:
                interference += 1

        for cls in deployment.plan.classes:
            expected_path = cls.path
            if self.expected_path_fn is not None:
                live = self.expected_path_fn(cls.class_id)
                if live is not None:
                    expected_path = tuple(live)
            for sub in deployment.subclass_plan.subclasses(cls.class_id):
                lo, hi = sub.hash_range
                if hi <= lo:
                    continue
                probe(
                    cls.class_id,
                    (lo + hi) / 2,
                    cls.src,
                    cls.dst,
                    cls.chain.names,
                    expected_path,
                )
        for class_id, src, dst, chain in self._baseline:
            if class_id not in current:
                # Stranded class: its traffic must black-hole, never pass
                # unprocessed (the quarantine rule recovery installs).
                probe(class_id, 0.5, src, dst, chain, None)

        tick = ProbeTick(
            time=round(now, 6),
            sent=sent,
            delivered=delivered,
            dropped=dropped,
            policy_violations=policy,
            interference_violations=interference,
        )
        self.ticks.append(tick)
        if self.on_tick is not None:
            self.on_tick(tick)
        return tick
