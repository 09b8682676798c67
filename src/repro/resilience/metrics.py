"""Resilience metrics: crashes, recoveries, journal growth, downtime.

One :class:`RecoveryEvent` per ``recover()`` (its sim-time downtime and
the host wall-clock seconds the recovery took) and the run's crash,
checkpoint and journal-shape counts in :class:`ResilienceMetrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RecoveryEvent:
    """One crash→recover cycle, as seen by the experiment harness."""

    crash_time: float
    recovered_at: float
    checkpoint_time: float
    journal_records: int
    replayed: int
    skipped: int
    tenants_restored: int
    tenants_rebuilt: int
    caught_up_at: Optional[float] = None
    wall_seconds: float = 0.0

    @property
    def downtime(self) -> float:
        return self.recovered_at - self.crash_time

@dataclass
class ResilienceMetrics:
    """Aggregated controller-crash metrics for one run."""

    crashes: int = 0
    checkpoints: int = 0
    journal_length: int = 0
    journal_kinds: Dict[str, int] = field(default_factory=dict)
    recoveries: List[RecoveryEvent] = field(default_factory=list)

    def record_crash(self) -> None:
        self.crashes += 1

    def record_recovery(self, event: RecoveryEvent) -> None:
        self.recoveries.append(event)

    def snapshot_journal(self, journal) -> None:
        """Capture the journal's final shape (length + per-kind counts)."""
        self.journal_length = len(journal)
        self.journal_kinds = dict(sorted(journal.kind_counts().items()))
        self.checkpoints = self.journal_kinds.get("checkpoint", 0)
