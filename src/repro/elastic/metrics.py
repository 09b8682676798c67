"""Elastic-loop bookkeeping: ticks, scale actions, and time-to-absorb.

Everything here is deterministic plain data — ticks are recorded in sim
time, ``to_dict`` rounds and sorts, and ``signature`` hashes the
canonical JSON form so two runs with the same seed can be compared bit
for bit (the flash-crowd experiment's rerun check and
``tests/test_elastic.py``'s full-scale rerun both ride on it).
"""

from __future__ import annotations

import hashlib
import json

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class ElasticTick:
    """One control-loop observation.

    Attributes:
        time: sim time of the tick.
        max_utilization: bottleneck-NF utilization at the tick.
        offered_mbps: total admitted offered load at the tick.
        action: hysteresis verdict ("hold" / "scale_out" / "scale_in"),
            or "busy" when a previous action's epoch was still in
            flight and the decision was skipped.
        in_flight: True while a push had not yet converged (or was
            started on this tick).
        slo_violated: utilization exceeded the SLO ceiling this tick.
    """

    time: float
    max_utilization: float
    offered_mbps: float
    action: str
    in_flight: bool
    slo_violated: bool


@dataclass
class ScaleAction:
    """One executed scaling decision, from trigger to convergence."""

    time: float
    direction: str
    trigger_utilization: float
    classes: int
    admitted: int
    degraded: int
    shed: int
    planned_instances: int
    planned_cores: int
    warm: bool
    added: int = 0
    retired: int = 0
    epoch: Optional[int] = None
    converged_at: Optional[float] = None
    drained: int = 0
    verify_ok: Optional[bool] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": round(self.time, 6),
            "direction": self.direction,
            "trigger_utilization": round(self.trigger_utilization, 6),
            "classes": self.classes,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "shed": self.shed,
            "planned_instances": self.planned_instances,
            "planned_cores": self.planned_cores,
            "warm": self.warm,
            "added": self.added,
            "retired": self.retired,
            "epoch": self.epoch,
            "converged_at": (
                round(self.converged_at, 6) if self.converged_at is not None else None
            ),
            "drained": self.drained,
            "verify_ok": self.verify_ok,
        }


class ElasticMetrics:
    """Accumulates ticks and actions; derives the report numbers."""

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.ticks: List[ElasticTick] = []
        self.actions: List[ScaleAction] = []
        #: Decisions whose epoch another committer replaced before it
        #: converged; none of their effects ever went live.
        self.superseded: List[ScaleAction] = []
        self.scale_out_total = 0
        self.scale_in_total = 0
        self.resolves_warm = 0
        self.resolves_cold = 0
        self.placement_failures = 0

    # ------------------------------------------------------------------
    def record_tick(self, tick: ElasticTick) -> None:
        self.ticks.append(tick)

    def record_action(self, action: ScaleAction) -> None:
        self.actions.append(action)
        if action.direction == "scale_out":
            self.scale_out_total += 1
        else:
            self.scale_in_total += 1

    # ------------------------------------------------------------------
    @property
    def ticks_total(self) -> int:
        return len(self.ticks)

    @property
    def slo_violation_seconds(self) -> float:
        """Sim seconds the bottleneck NF sat above the SLO ceiling."""
        return self.interval * sum(1 for t in self.ticks if t.slo_violated)

    @property
    def drained_total(self) -> int:
        return sum(a.drained for a in self.actions)

    @property
    def degraded_total(self) -> int:
        return sum(a.degraded for a in self.actions)

    @property
    def shed_total(self) -> int:
        return sum(a.shed for a in self.actions)

    def time_to_absorb(
        self,
        windows: Sequence[Tuple[float, float]],
        high_watermark: float,
    ) -> List[Optional[float]]:
        """Per spike window: seconds from spike start until the loop was
        back under the high watermark with no push in flight.

        A window whose load never breached the watermark absorbed
        instantly (0.0); a window still overloaded at the last tick
        never absorbed (None — the report surfaces it as unbounded).
        """
        out: List[Optional[float]] = []
        for start, end in windows:
            overload = next(
                (
                    t
                    for t in self.ticks
                    if t.time >= start and t.max_utilization > high_watermark
                ),
                None,
            )
            if overload is None:
                out.append(0.0)
                continue
            absorbed = next(
                (
                    t
                    for t in self.ticks
                    if t.time > overload.time
                    and t.max_utilization <= high_watermark
                    and not t.in_flight
                ),
                None,
            )
            out.append(round(absorbed.time - start, 6) if absorbed else None)
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "interval": self.interval,
            "ticks_total": self.ticks_total,
            "scale_out_total": self.scale_out_total,
            "scale_in_total": self.scale_in_total,
            "resolves_warm": self.resolves_warm,
            "resolves_cold": self.resolves_cold,
            "placement_failures": self.placement_failures,
            "drained_total": self.drained_total,
            "degraded_total": self.degraded_total,
            "shed_total": self.shed_total,
            "slo_violation_seconds": round(self.slo_violation_seconds, 6),
            "max_utilization": round(
                max((t.max_utilization for t in self.ticks), default=0.0), 6
            ),
            "actions": [a.to_dict() for a in self.actions],
        }
        if self.superseded:  # key absent otherwise: such runs keep their signatures
            out["superseded"] = [a.to_dict() for a in self.superseded]
        return out

    def signature(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
