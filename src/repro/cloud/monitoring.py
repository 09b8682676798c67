"""Liveness monitoring: the Orchestrator's failure-suspicion book-keeping.

"[The Resource Orchestrator] monitors the available resource on APPLE
hosts" (Fig. 1).  This module keeps the missed-heartbeat state the chaos
failure detector (:mod:`repro.chaos.detector`) runs on; the engine reads
free cores from :meth:`repro.core.controller.AppleController.available_cores`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class HeartbeatState:
    """Book-keeping for one monitored entity."""

    last_seen: float = 0.0
    misses: int = 0
    reported: bool = False


class LivenessTracker:
    """Missed-heartbeat failure suspicion (the chaos detector's core).

    Entities (VNF instances, links) are expected to report a heartbeat
    every detector tick; :meth:`miss` accumulates consecutive silent ticks
    and flags the entity exactly once when the count reaches
    ``miss_threshold``.  A later :meth:`beat` clears the suspicion so a
    future failure of the same entity is reported again.
    """

    def __init__(self, miss_threshold: int = 2) -> None:
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be at least 1")
        self.miss_threshold = miss_threshold
        self._states: Dict[str, HeartbeatState] = {}

    def _state(self, entity: str) -> HeartbeatState:
        state = self._states.get(entity)
        if state is None:
            state = self._states[entity] = HeartbeatState()
        return state

    def beat(self, entity: str, now: float) -> None:
        """A heartbeat arrived: reset suspicion."""
        state = self._state(entity)
        state.last_seen = now
        state.misses = 0
        state.reported = False

    def miss(self, entity: str) -> bool:
        """One silent tick; True exactly when the threshold is first hit."""
        state = self._state(entity)
        state.misses += 1
        if state.misses >= self.miss_threshold and not state.reported:
            state.reported = True
            return True
        return False

    def is_suspect(self, entity: str) -> bool:
        state = self._states.get(entity)
        return bool(state and state.reported)
