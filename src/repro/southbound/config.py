"""Southbound channel constants and the control-plane fault model.

Single source of truth for install latency: the channel's healthy
round-trip time :data:`INSTALL_LATENCY` — the paper's measured 70 ms REST
rule install — is what the OpenDaylight facade's
:data:`repro.cloud.opendaylight.RULE_INSTALL_SECONDS` reads, so the facade
and the southbound fabric (which every recovery, scale and tenant commit
rides) attribute the same number instead of each hard-coding its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.sim.rng import check_count, check_span

#: Label of the southbound chaos substream.  Derived independently of
#: ``chaos.schedule`` so enabling control-plane chaos never perturbs an
#: existing data-plane fault schedule (bit-identity across seeds).
SOUTHBOUND_STREAM = "chaos.southbound"


# Per-switch control-channel behaviour (controller side).

#: Healthy request→apply→ack round trip of one control message: the
#: paper's measured 70 ms rule install.  The forward (request) leg takes
#: ``APPLY_FRACTION`` × this, the ack leg the rest.
INSTALL_LATENCY = 0.070
#: Fraction of the round trip spent before the switch applies the ops.
APPLY_FRACTION = 0.5
#: Retransmission timeout of the first attempt (seconds).
RETRY_TIMEOUT = 0.25
#: Multiplicative backoff per retry.
BACKOFF_FACTOR = 2.0
#: Cap on the retransmission timeout (seconds).
MAX_BACKOFF = 2.0
#: Deterministic jitter: each attempt's timeout is scaled by
#: ``1 ± JITTER_FRAC`` drawn from the switch's seeded substream.
JITTER_FRAC = 0.25
#: Attempts before a message (and its transaction phase) is declared
#: failed.
MAX_ATTEMPTS = 8
#: Bounded in-flight window per switch; excess messages queue FIFO.
MAX_INFLIGHT = 2
#: Consecutive timeouts before the breaker opens and the switch is
#: marked degraded.
CIRCUIT_THRESHOLD = 3
#: While the breaker is open, one probe retransmission per interval
#: (seconds); the first ack closes it.
CIRCUIT_PROBE_INTERVAL = 1.0
#: Anti-entropy cadence of the fabric's desired-state reconciler
#: (seconds).
RECONCILE_INTERVAL = 0.5


def rto(attempt: int) -> float:
    """Unjittered retransmission timeout of ``attempt`` (1-based)."""
    return min(RETRY_TIMEOUT * BACKOFF_FACTOR ** (attempt - 1), MAX_BACKOFF)


@dataclass(frozen=True)
class SouthboundChaosConfig:
    """Seeded fault model of the control channel itself.

    All draws come from ``derive(seed, "chaos.southbound")`` (and
    per-switch child streams), so control-plane chaos composes with a
    data-plane :class:`~repro.chaos.schedule.FaultSchedule` without
    perturbing it.
    """

    #: Probability each message leg (request or ack) is lost.
    loss_rate: float = 0.0
    #: Mean of the exponential extra delay added per leg (seconds).
    extra_delay_mean: float = 0.0
    #: Number of switches that lose their control channel entirely for a
    #: window (drawn as ``FaultKind.SWITCH_DISCONNECT`` events).
    disconnects: int = 0
    #: Disconnect injection window (simulation seconds).
    window: Tuple[float, float] = (5.0, 25.0)
    #: Disconnect duration range (seconds).
    disconnect_duration: Tuple[float, float] = (2.0, 6.0)

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate!r}")
        if not 0.0 <= self.extra_delay_mean < math.inf:
            raise ValueError(
                "extra_delay_mean must be finite and non-negative, "
                f"got {self.extra_delay_mean!r}"
            )
        check_count("disconnects", self.disconnects)
        check_span("window", self.window)
        check_span("disconnect_duration", self.disconnect_duration)
