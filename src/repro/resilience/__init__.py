"""Control-plane crash tolerance: journal, checkpoints, recovery.

The orchestrator stack (tenancy bus/arbiter/workers, each tenant's
southbound fabric) is the single stateful authority for
interference-free enforcement — and until this package existed, killing
it lost everything.  Three pieces fix that:

* :mod:`repro.resilience.journal` — a write-ahead intent journal:
  every accepted intent, arbiter grant and southbound epoch event is
  appended *before* it takes effect, with seeded-deterministic record
  IDs, on an in-memory or on-disk (JSONL) backend.  Both are fsync-free: durability is modelled, not bought.
* :mod:`repro.resilience.checkpoint` — periodic snapshots of the
  orchestrator / arbiter / per-tenant desired state, written into the
  journal as ordinary records, so recovery replays only the suffix.
* :mod:`repro.resilience.recovery` — restore the last checkpoint,
  replay the journal suffix (idempotency cookies make replay
  exactly-once), then re-adopt the still-running data plane through the
  southbound anti-entropy reconciler: installed-vs-desired diff, never
  a blind reinstall, so in-flight make-before-break transactions roll
  forward.
"""

import importlib

#: Re-exported name → the module that defines it, imported on first access.
_EXPORTS = {
    "CHECKPOINT": "repro.resilience.journal",
    "COMMIT": "repro.resilience.journal",
    "INTENT": "repro.resilience.journal",
    "SHUTDOWN": "repro.resilience.journal",
    "FileJournal": "repro.resilience.journal",
    "MemoryJournal": "repro.resilience.journal",
    "recover": "repro.resilience.recovery",
    "RecoveryReport": "repro.resilience.recovery",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
