"""Southbound channel tunables: latency, retries, chaos knobs.

Single source of truth for install latency (satellite of ISSUE 5): the
channel's healthy round-trip time defaults to
:data:`repro.cloud.opendaylight.RULE_INSTALL_SECONDS` — the paper's
measured 70 ms REST rule install — so the OpenDaylight facade and the
southbound fabric (which every recovery, scale and tenant commit rides)
attribute the same number instead of each hard-coding its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.cloud.opendaylight import RULE_INSTALL_SECONDS

#: Label of the southbound chaos substream.  Derived independently of
#: ``chaos.schedule`` so enabling control-plane chaos never perturbs an
#: existing data-plane fault schedule (bit-identity across seeds).
SOUTHBOUND_STREAM = "chaos.southbound"


@dataclass(frozen=True)
class ChannelConfig:
    """Per-switch control-channel behaviour (controller side).

    Attributes:
        install_latency: healthy request→apply→ack round trip for one
            control message.  Defaults to the paper's measured 70 ms rule
            install; the forward (request) leg takes
            ``apply_fraction`` × this, the ack leg the rest.
        apply_fraction: fraction of the round trip spent before the switch
            applies the ops.
        retry_timeout: retransmission timeout of the first attempt.
        backoff_factor: multiplicative backoff per retry.
        max_backoff: cap on the retransmission timeout.
        jitter_frac: deterministic jitter: each attempt's timeout is
            scaled by ``1 ± jitter_frac`` drawn from the switch's seeded
            substream.
        max_attempts: attempts before a message (and its transaction
            phase) is declared failed.
        max_inflight: bounded in-flight window per switch; excess messages
            queue FIFO.
        circuit_threshold: consecutive timeouts before the breaker opens
            and the switch is marked degraded.
        circuit_probe_interval: while open, one probe retransmission per
            interval; the first ack closes the breaker.
        reconcile_interval: anti-entropy cadence of the fabric's
            desired-state reconciler.
    """

    install_latency: float = RULE_INSTALL_SECONDS
    apply_fraction: float = 0.5
    retry_timeout: float = 0.25
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter_frac: float = 0.25
    max_attempts: int = 8
    max_inflight: int = 2
    circuit_threshold: int = 3
    circuit_probe_interval: float = 1.0
    reconcile_interval: float = 0.5

    def rto(self, attempt: int) -> float:
        """Unjittered retransmission timeout of ``attempt`` (1-based)."""
        return min(
            self.retry_timeout * self.backoff_factor ** (attempt - 1),
            self.max_backoff,
        )


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

    def enabled(self) -> bool:
        """Whether any fault injection is configured at all."""
        return (
            self.loss_rate > 0
            or self.extra_delay_mean > 0
            or self.disconnects > 0
        )
