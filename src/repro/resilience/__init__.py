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

``recovery`` is imported lazily (it pulls in the tenancy stack, which
itself journals through this package).
"""

from repro.resilience.journal import (
    CHECKPOINT,
    COMMIT,
    EPOCH,
    GRANT,
    INTENT,
    RECOVERY,
    SHUTDOWN,
    FileJournal,
    JournalRecord,
    MemoryJournal,
)

__all__ = [
    "INTENT",
    "COMMIT",
    "GRANT",
    "EPOCH",
    "CHECKPOINT",
    "SHUTDOWN",
    "RECOVERY",
    "JournalRecord",
    "MemoryJournal",
    "FileJournal",
    "recover",
    "RecoveryReport",
]


def __getattr__(name: str):
    # Lazy: repro.resilience.recovery imports the tenancy stack, and the
    # tenancy bus imports this package's journal constants — importing
    # recovery eagerly here would close that cycle mid-init.
    if name in ("recover", "RecoveryReport"):
        from repro.resilience import recovery

        return getattr(recovery, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
