"""Structured event tracing: a ring buffer exportable as a Chrome trace.

Records simulator-time-stamped spans and events (fault inject, detection,
recovery convergence, rule push) plus the wall-clock intervals measured by
:class:`repro.obs.span`, into a bounded ring buffer.
:meth:`Tracer.to_chrome` renders the buffer in the Chrome ``trace_event``
JSON format, so a run opens directly in Perfetto (https://ui.perfetto.dev)
or ``chrome://tracing``.

Two tracks keep the two clocks apart:

* **simulation** (tid 1) — deterministic events stamped with *simulated*
  time.  Bit-identical across same-seed runs; golden-file tested.
* **wall-clock** (tid 2) — ``perf_counter`` intervals handed over by
  :class:`repro.obs.span` (solver calls, data-plane batches, chaos
  handlers), exported relative to the earliest one.  Reported, never
  compared.

Tracing must never perturb the run: the tracer reads no clock, only the
timestamps handed to it, and every record call checks ``enabled`` first,
so a disabled tracer costs one attribute read.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

#: Track ids (Chrome ``tid``) of the two clocks.
SIM_TRACK = 1
WALL_TRACK = 2

_TRACK_NAMES = {SIM_TRACK: "simulation", WALL_TRACK: "wall-clock"}

#: Event phases the exporter emits (subset of the trace_event spec).
_PHASES = {"X", "i", "M", "C"}


def _us(seconds: float) -> float:
    """Seconds → microseconds, rounded for stable JSON rendering."""
    return round(seconds * 1e6, 3)


class Tracer:
    """Bounded ring buffer of trace events (oldest events drop first)."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError("trace capacity must be positive")
        self.capacity = capacity
        self.enabled = False
        self.dropped = 0
        self._events: Deque[dict] = deque(maxlen=capacity)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def _push(self, event: dict) -> None:
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)

    # ------------------------------------------------------------------
    # Simulation track (deterministic)
    # ------------------------------------------------------------------
    def instant(
        self,
        name: str,
        ts: float,
        cat: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """An instantaneous event at simulated time ``ts`` (seconds)."""
        if not self.enabled:
            return
        event = {"name": name, "cat": cat, "ph": "i", "ts": _us(ts),
                 "pid": 1, "tid": SIM_TRACK, "s": "t"}
        if args:
            event["args"] = args
        self._push(event)

    def complete(
        self,
        name: str,
        ts: float,
        dur: float,
        cat: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """A span [ts, ts+dur) in simulated time (seconds)."""
        if not self.enabled:
            return
        event = {"name": name, "cat": cat, "ph": "X", "ts": _us(ts),
                 "dur": _us(max(dur, 0.0)), "pid": 1, "tid": SIM_TRACK}
        if args:
            event["args"] = args
        self._push(event)

    def counter(
        self, name: str, ts: float, values: Dict[str, float], cat: str = "sim"
    ) -> None:
        """A counter sample at simulated time ``ts`` (renders as a graph)."""
        if not self.enabled:
            return
        self._push(
            {"name": name, "cat": cat, "ph": "C", "ts": _us(ts),
             "pid": 1, "tid": SIM_TRACK, "args": dict(values)}
        )

    # ------------------------------------------------------------------
    # Wall-clock track (non-deterministic; never part of golden output)
    # ------------------------------------------------------------------
    def wall_span(
        self, name: str, started: float, ended: float, cat: str = "perf"
    ) -> None:
        """An interval between two ``perf_counter`` readings (seconds)."""
        if not self.enabled:
            return
        self._push(
            {"name": name, "cat": cat, "ph": "X", "ts": _us(started),
             "dur": _us(ended - started), "pid": 1, "tid": WALL_TRACK}
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_chrome(self, metadata: Optional[Dict[str, Any]] = None) -> dict:
        """The buffer as a Chrome ``trace_event`` JSON object."""
        events: List[dict] = [
            {
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "ts": 0, "args": {"name": label},
            }
            for tid, label in sorted(_TRACK_NAMES.items())
        ]
        # perf_counter's zero is arbitrary: start the wall track at its
        # earliest interval (an enclosing span is recorded after its children).
        origin = min(
            (e["ts"] for e in self._events if e["tid"] == WALL_TRACK),
            default=0.0,
        )
        events.extend(
            {**e, "ts": round(e["ts"] - origin, 3)}
            if e["tid"] == WALL_TRACK else e
            for e in self._events
        )
        out: Dict[str, Any] = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs",
                "dropped_events": self.dropped,
            },
        }
        if metadata:
            out["otherData"].update(metadata)
        return out

    def write(
        self, path, metadata: Optional[Dict[str, Any]] = None
    ) -> None:
        """Dump the Chrome trace JSON to ``path``."""
        Path(path).write_text(
            json.dumps(self.to_chrome(metadata), indent=2, sort_keys=True)
            + "\n"
        )


def validate_trace(obj: Any) -> List[str]:
    """Structural validation of a Chrome trace object; returns errors.

    Checks the subset of the ``trace_event`` format this package emits
    (and that Perfetto requires to load a file at all).
    """
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["trace must be a JSON object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{where}: missing name")
        if not isinstance(ev.get("ts"), (int, float)):
            errors.append(f"{where}: missing/non-numeric ts")
        if not isinstance(ev.get("pid"), int) or not isinstance(
            ev.get("tid"), int
        ):
            errors.append(f"{where}: missing pid/tid")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            errors.append(f"{where}: complete event missing dur")
        if ph in ("M", "C") and not isinstance(ev.get("args"), dict):
            errors.append(f"{where}: {ph} event missing args")
    return errors
