"""Flash-crowd traffic schedules — DDoS-shaped spikes on seeded substreams.

A flash crowd layers load dynamics on a live run: where
:mod:`repro.chaos.schedule` perturbs the *infrastructure*, a
:class:`FlashCrowdSchedule` perturbs the *offered traffic*.  Each
:class:`SpikeEvent` is a trapezoid — a linear ramp to ``amplitude``×
baseline, a hold, and a linear decay back to 1× — applied to a seeded
subset of traffic classes.  Spikes stack multiplicatively when several
target the same class at once, which is exactly the shape a volumetric
DDoS or a flash crowd presents to an ingress.

Determinism mirrors the chaos schedule: every draw comes from a
``derive(seed, FLASH_STREAM)`` substream, the event list is canonically
sorted, and :meth:`FlashCrowdSchedule.signature` hashes the canonical
JSON form so two runs with the same seed provably replay the same load.
"""

from __future__ import annotations

import hashlib
import json
import math

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.sim.rng import SeededRNG, derive

#: RNG substream label for flash-crowd generation (disjoint from the
#: fault-schedule stream so spikes never perturb fault draws).
FLASH_STREAM = "chaos.flashcrowd"


@dataclass(frozen=True)
class SpikeEvent:
    """One trapezoidal traffic spike against a set of classes.

    Attributes:
        start: sim time the ramp begins.
        ramp: seconds to climb from 1× to ``amplitude``×.
        hold: seconds at full amplitude.
        decay: seconds to fall back to 1×.
        amplitude: peak multiplier (≥ 1.0; 1.0 is a no-op spike).
        targets: class ids the spike applies to (canonically sorted).
    """

    start: float
    ramp: float
    hold: float
    decay: float
    amplitude: float
    targets: Tuple[str, ...]

    @property
    def end(self) -> float:
        """Time the spike has fully decayed back to baseline."""
        return self.start + self.ramp + self.hold + self.decay

    def multiplier(self, class_id: str, t: float) -> float:
        """Load multiplier this spike contributes for ``class_id`` at ``t``."""
        if class_id not in self.targets or t <= self.start or t >= self.end:
            return 1.0
        dt = t - self.start
        if dt < self.ramp:
            frac = dt / self.ramp if self.ramp > 0 else 1.0
        elif dt < self.ramp + self.hold:
            frac = 1.0
        else:
            remaining = self.end - t
            frac = remaining / self.decay if self.decay > 0 else 0.0
        return 1.0 + (self.amplitude - 1.0) * frac

    def to_dict(self) -> Dict[str, object]:
        return {
            "start": round(self.start, 6),
            "ramp": round(self.ramp, 6),
            "hold": round(self.hold, 6),
            "decay": round(self.decay, 6),
            "amplitude": round(self.amplitude, 6),
            "targets": list(self.targets),
        }


@dataclass
class FlashCrowdConfig:
    """Knobs for seeded spike generation.

    Attributes:
        spikes: number of spike events to draw.
        amplitude: (low, high) peak-multiplier range.
        window: (earliest, latest) spike start time.
        ramp / hold / decay: (low, high) duration ranges per phase.
        target_fraction: fraction of the class population each spike
            hits (at least one class).
    """

    spikes: int = 2
    amplitude: Tuple[float, float] = (4.0, 4.0)
    window: Tuple[float, float] = (4.0, 12.0)
    ramp: Tuple[float, float] = (0.5, 1.5)
    hold: Tuple[float, float] = (3.0, 6.0)
    decay: Tuple[float, float] = (1.0, 2.5)
    target_fraction: float = 0.3


@dataclass(frozen=True)
class FlashCrowdSchedule:
    """An immutable, replayable sequence of traffic spikes."""

    seed: int
    events: Tuple[SpikeEvent, ...] = field(default_factory=tuple)

    def multiplier(self, class_id: str, t: float) -> float:
        """Combined load multiplier for ``class_id`` at sim time ``t``.

        Overlapping spikes stack multiplicatively — a class hit by two
        concurrent 2× spikes offers 4× its baseline.
        """
        m = 1.0
        for event in self.events:
            m *= event.multiplier(class_id, t)
        return m

    def windows(self) -> Tuple[Tuple[float, float], ...]:
        """(start, end) spans of every spike, in schedule order."""
        return tuple((e.start, e.end) for e in self.events)

    def signature(self) -> str:
        """Content hash of the canonical JSON form (rerun identity)."""
        payload = {
            "seed": self.seed,
            "events": [e.to_dict() for e in self.events],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def generate_flash_crowd(
    class_ids: Sequence[str],
    config: FlashCrowdConfig,
    seed: int,
) -> FlashCrowdSchedule:
    """Draw a deterministic spike schedule from a seeded substream.

    Targets are drawn without replacement from the sorted class-id pool,
    so the schedule depends only on (seed, config, set of class ids) —
    never on dict iteration order.
    """
    rng = SeededRNG(derive(seed, FLASH_STREAM))
    pool = sorted(set(class_ids))
    if not pool:
        return FlashCrowdSchedule(seed=seed, events=())
    count = max(1, min(len(pool), math.ceil(config.target_fraction * len(pool))))

    events: List[SpikeEvent] = []
    for _ in range(config.spikes):
        start = rng.uniform(*config.window)
        ramp = rng.uniform(*config.ramp)
        hold = rng.uniform(*config.hold)
        decay = rng.uniform(*config.decay)
        amplitude = rng.uniform(*config.amplitude)
        targets = tuple(sorted(rng.choice(pool, size=count, replace=False)))
        events.append(
            SpikeEvent(
                start=start,
                ramp=ramp,
                hold=hold,
                decay=decay,
                amplitude=max(1.0, amplitude),
                targets=targets,
            )
        )

    events.sort(key=lambda e: (e.start, e.end, e.targets))
    return FlashCrowdSchedule(seed=seed, events=tuple(events))
