"""Resilient southbound channel (controller ↔ switches).

Acked, idempotent rule installs over a seeded lossy channel; per-switch
retry/backoff with a circuit breaker; transactional make-before-break
delta installation; and desired-state anti-entropy reconciliation.
See DESIGN.md, "Control-plane failure model".
"""

from repro.southbound.channel import ControlChannel, SwitchAgent
from repro.southbound.config import SOUTHBOUND_STREAM, SouthboundChaosConfig
from repro.southbound.fabric import SouthboundFabric
from repro.southbound.faults import generate_southbound_schedule
from repro.southbound.messages import Ack, ControlMessage
from repro.southbound.metrics import EpochConvergence, SouthboundMetrics
from repro.southbound.state import (
    NetworkState,
    SwitchDiff,
    VERSION_STRIDE,
    read_installed,
    render_desired,
)
from repro.southbound.transaction import Transaction

__all__ = [
    "Ack",
    "ControlChannel",
    "ControlMessage",
    "EpochConvergence",
    "NetworkState",
    "SOUTHBOUND_STREAM",
    "SouthboundChaosConfig",
    "SouthboundFabric",
    "SouthboundMetrics",
    "SwitchAgent",
    "SwitchDiff",
    "Transaction",
    "VERSION_STRIDE",
    "generate_southbound_schedule",
    "read_installed",
    "render_desired",
]
