"""Seeded control-plane fault schedules (switch disconnects).

Disconnect events reuse the chaos layer's :class:`FaultEvent` /
:class:`FaultSchedule` containers but are drawn from the *southbound*
substream — ``derive(seed, "chaos.southbound")`` — never from
``chaos.schedule``'s.  Enabling control-plane chaos therefore composes
with an existing data-plane schedule at the same seed without moving a
single one of its draws (the bit-identity test replays both together).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.chaos.schedule import FaultEvent, FaultKind, FaultSchedule
from repro.sim.rng import SeededRNG, derive
from repro.southbound.config import SOUTHBOUND_STREAM, SouthboundChaosConfig


def generate_southbound_schedule(
    switches: Sequence[str],
    config: SouthboundChaosConfig,
    seed: int,
) -> FaultSchedule:
    """Draw the deterministic disconnect schedule for one run.

    Args:
        switches: candidate switches (pass them sorted for a canonical
            draw order; they are sorted here regardless).
        config: how many disconnects, when, for how long.
        seed: the *run* seed; the southbound stream is derived internally.
    """
    rng = SeededRNG(derive(seed, SOUTHBOUND_STREAM))
    lo, hi = config.window

    events: List[FaultEvent] = []
    pool = sorted(set(switches))
    count = min(config.disconnects, len(pool))
    if count > 0:
        targets = rng.choice(pool, size=count, replace=False)
        for target in targets:
            events.append(
                FaultEvent(
                    time=round(float(rng.uniform(lo, hi)), 6),
                    kind=FaultKind.SWITCH_DISCONNECT,
                    target=target,
                    duration=round(
                        float(rng.uniform(*config.disconnect_duration)), 6
                    ),
                )
            )
    events.sort(key=lambda ev: (ev.time, ev.kind.value, ev.target))
    return FaultSchedule(seed=seed, events=tuple(events))
