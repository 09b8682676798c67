"""Resilient southbound channel (controller ↔ switches).

Acked, idempotent rule installs over a seeded lossy channel; per-switch
retry/backoff with a circuit breaker; transactional make-before-break
delta installation; and desired-state anti-entropy reconciliation.
See DESIGN.md, "Control-plane failure model".
"""

import importlib

#: Re-exported name → the module that defines it, imported on first access.
_EXPORTS = {
    "SouthboundChaosConfig": "repro.southbound.config",
    "SouthboundFabric": "repro.southbound.fabric",
    "generate_southbound_schedule": "repro.southbound.faults",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
