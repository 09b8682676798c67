"""The write-ahead intent journal: append-only, seeded, replayable.

Every state-changing decision of the control plane is appended here
*before* it takes effect (classic WAL discipline): accepted intents,
arbiter admission verdicts, intent commits, southbound epoch
opens/convergences, periodic checkpoints, graceful
shutdowns and recoveries.  A crash at any point leaves a prefix of the
journal on, um, disk; recovery restores the last ``CHECKPOINT`` record
and replays the ``INTENT`` suffix (see :mod:`repro.resilience.recovery`).

Record IDs are *seeded-deterministic*: ``sha1("{seed}:{index}:{kind}")``
truncated to 12 hex chars, so two same-seed runs produce bit-identical
journals — the rerun regression hashes :meth:`Journal.signature`.

Two backends, both fsync-free (durability is modelled, not bought):

* :class:`MemoryJournal` — a list; what every test and experiment uses.
* :class:`FileJournal` — JSONL write-through with a one-line header;
  ``FileJournal.load`` round-trips it, so a journal can outlive the
  process that wrote it.

This module deliberately imports nothing from the tenancy / elastic /
southbound stacks — they import *its* record-kind constants, and the
payloads stay plain JSON-compatible dicts (the intent codec lives with
the intent types, :func:`repro.tenancy.intents.intent_to_payload`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional

from repro.obs import state as _obs

#: Record kinds, in rough lifecycle order.
INTENT = "intent"          #: an accepted intent, logged before delivery
GRANT = "grant"            #: an arbiter admission verdict
COMMIT = "commit"          #: an intent reaching a terminal state
EPOCH = "epoch"            #: a southbound epoch opened or converged
CHECKPOINT = "checkpoint"  #: a full desired-state snapshot (inline)
SHUTDOWN = "shutdown"      #: a graceful stop (undelivered seqs listed)
RECOVERY = "recovery"      #: a crash recovery completed

KINDS = (INTENT, GRANT, COMMIT, EPOCH, CHECKPOINT, SHUTDOWN, RECOVERY)

#: Header line of the on-disk backend.
FILE_SCHEMA = "apple-wal/v1"


def record_id(seed: int, index: int, kind: str) -> str:
    """The seeded-deterministic ID of the ``index``-th record."""
    return hashlib.sha1(f"{seed}:{index}:{kind}".encode()).hexdigest()[:12]


@dataclass(frozen=True)
class JournalRecord:
    """One appended record (immutable once written — it's a WAL)."""

    index: int
    record_id: str
    kind: str
    time: float
    payload: dict

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "record_id": self.record_id,
            "kind": self.kind,
            "time": self.time,
            "payload": self.payload,
        }


class Journal:
    """Shared append/iterate/inspect machinery of both backends."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.records: List[JournalRecord] = []

    # ------------------------------------------------------------------
    def append(self, kind: str, payload: dict, time: float = 0.0) -> JournalRecord:
        """Append one record; returns it (ID derived from seed + index)."""
        if kind not in KINDS:
            raise ValueError(f"unknown journal record kind {kind!r}")
        rec = JournalRecord(
            index=len(self.records),
            record_id=record_id(self.seed, len(self.records), kind),
            kind=kind,
            time=float(time),
            payload=payload,
        )
        self.records.append(rec)
        self._persist(rec)
        if _obs.REGISTRY.enabled:
            _obs.metric("resilience_journal_records_total").labels(kind=kind).inc()
        return rec

    def _persist(self, rec: JournalRecord) -> None:  # pragma: no cover
        """Backend hook; the in-memory journal does nothing here."""

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[JournalRecord]:
        return iter(self.records)

    def of_kind(self, kind: str) -> List[JournalRecord]:
        return [r for r in self.records if r.kind == kind]

    def last_checkpoint(self) -> Optional[JournalRecord]:
        """The most recent ``CHECKPOINT`` record, or None."""
        for rec in reversed(self.records):
            if rec.kind == CHECKPOINT:
                return rec
        return None

    def signature(self) -> str:
        """Digest of the full journal (bit-identity regressions)."""
        payload = json.dumps(
            [r.to_dict() for r in self.records], sort_keys=True
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:16]


class MemoryJournal(Journal):
    """The default backend: records live in the process."""


class FileJournal(Journal):
    """JSONL write-through backend (fsync-free, append-only).

    Line 1 is a header (``{"schema": "apple-wal/v1", "seed": N}``); every
    later line is one :class:`JournalRecord`.  ``load`` round-trips a
    file written by a previous process — the crash-across-process story.
    """

    def __init__(self, path, seed: int = 0) -> None:
        super().__init__(seed)
        self.path = Path(path)
        if not self.path.exists():
            self.path.write_text(
                json.dumps({"schema": FILE_SCHEMA, "seed": self.seed}) + "\n"
            )

    def _persist(self, rec: JournalRecord) -> None:
        with self.path.open("a") as fh:
            fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "FileJournal":
        """Rebuild a journal (header + records) from its JSONL file."""
        path = Path(path)
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        if not lines:
            raise ValueError(f"empty journal file {path}")
        header = json.loads(lines[0])
        if header.get("schema") != FILE_SCHEMA:
            raise ValueError(
                f"{path}: expected {FILE_SCHEMA!r} header, got {header!r}"
            )
        journal = cls(path, seed=int(header.get("seed", 0)))
        journal.records = []
        for line in lines[1:]:
            raw = json.loads(line)
            rec = JournalRecord(
                index=int(raw["index"]),
                record_id=str(raw["record_id"]),
                kind=str(raw["kind"]),
                time=float(raw["time"]),
                payload=raw["payload"],
            )
            expect = record_id(journal.seed, rec.index, rec.kind)
            if rec.record_id != expect:
                raise ValueError(
                    f"{path}: record {rec.index} has id {rec.record_id!r}, "
                    f"expected {expect!r} (corrupt or wrong-seed journal)"
                )
            journal.records.append(rec)
        return journal
