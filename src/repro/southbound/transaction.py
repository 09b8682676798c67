"""Transactional make-before-break delta installation.

A :class:`Transaction` pushes one set of per-switch
:class:`~repro.southbound.state.SwitchDiff` lists through three globally
barriered phases:

1. **add** — all inert additions (new-version vSwitch rules, host-match
   entries for newly used hosts, quarantine DROPs).  Nothing references
   them yet, so a half-applied add phase cannot change any packet's fate.
2. **swap** — the commit point: per-switch atomic ``classify_sync`` /
   ``origin_sync`` ops flip each class's ingress classification (and its
   registered path) from old-version to new-version sub-class IDs.
3. **del** — garbage collection of the now-unreferenced old state.

Phase N+1 starts only after *every* phase-N message is acknowledged, so
at no instant can a classification point at a rule that does not exist —
a partially applied delta can never open a policy-violation window.

Failure handling by phase:

* add fails → inverse ops are sent best-effort (``rolled_back``); even
  un-rolled-back leftovers are inert and match the (unchanged) desired
  state, so the reconciler simply finishes the job later.
* swap fails → ``failed``: some classes serve on the new version, the
  rest keep serving on the old one — both complete and correct.  No
  deletes run, so nothing any class references is removed.
* del fails → ``committed_partial``: the new state serves everywhere;
  only garbage remains, and anti-entropy sweeps it.
* any stale ack → ``superseded``: a newer epoch owns the switches; this
  transaction stops touching them immediately.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple

from repro.sim.kernel import Simulator
from repro.southbound.channel import ControlChannel, RESULT_FAILED
from repro.southbound.messages import ACK_STALE, ControlMessage
from repro.southbound.metrics import (
    TXN_COMMITTED,
    TXN_COMMITTED_PARTIAL,
    TXN_FAILED,
    TXN_ROLLED_BACK,
    TXN_SUPERSEDED,
)
from repro.southbound.state import SwitchDiff

PHASES = ("add", "swap", "del")


def _inverse(op: tuple) -> tuple:
    """Rollback op undoing one add-phase op."""
    if op[0] == "tcam_put":
        return ("tcam_del", op[1][0])
    if op[0] == "vsw_put":
        return ("vsw_del", op[1], op[2])
    raise ValueError(f"add phase cannot contain {op[0]!r}")


class Transaction:
    """One three-phase push of a diff set toward the desired state."""

    def __init__(
        self,
        sim: Simulator,
        channels: Mapping[str, ControlChannel],
        epoch: int,
        txn_id: int,
        diffs: List[SwitchDiff],
        on_done: Callable[[str, int], None],
    ) -> None:
        self.sim = sim
        self.channels = channels
        self.epoch = epoch
        self.txn_id = txn_id
        self.on_done = on_done
        self.outcome: str = ""
        self.rollback_ops = 0
        self._ops: Dict[str, Dict[str, Tuple[tuple, ...]]] = {
            "add": {d.switch: tuple(d.adds) for d in diffs if d.adds},
            "swap": {d.switch: tuple(d.swap) for d in diffs if d.swap},
            "del": {d.switch: tuple(d.dels) for d in diffs if d.dels},
        }
        self._awaiting = 0
        self._failed_switches: List[str] = []
        self._superseded = False
        self._finished = False

    def start(self) -> None:
        self._run_phase(0)

    # ------------------------------------------------------------------
    def _run_phase(self, idx: int) -> None:
        while idx < len(PHASES) and not self._ops[PHASES[idx]]:
            idx += 1
        if idx >= len(PHASES):
            self._finish(TXN_COMMITTED)
            return
        phase = PHASES[idx]
        batches = sorted(self._ops[phase].items())
        self._awaiting = len(batches)
        self._failed_switches = []
        for switch, ops in batches:
            msg = ControlMessage.make(switch, self.epoch, self.txn_id, phase, ops)

            def _result(status: str, _switch: str = switch, _idx: int = idx) -> None:
                self._on_result(_idx, _switch, status)

            self.channels[switch].send(msg, _result)

    def _on_result(self, idx: int, switch: str, status: str) -> None:
        if self._finished:
            return
        if status == ACK_STALE:
            self._superseded = True
        elif status == RESULT_FAILED:
            self._failed_switches.append(switch)
        self._awaiting -= 1
        if self._awaiting > 0:
            return
        # Global barrier reached for phase ``idx``.
        if self._superseded:
            self._finish(TXN_SUPERSEDED)
            return
        phase = PHASES[idx]
        if self._failed_switches:
            if phase == "add":
                self._rollback()
                self._finish(TXN_ROLLED_BACK)
            elif phase == "swap":
                self._finish(TXN_FAILED)
            else:
                self._finish(TXN_COMMITTED_PARTIAL)
            return
        self._run_phase(idx + 1)

    # ------------------------------------------------------------------
    def _rollback(self) -> None:
        """Best-effort inverse of the add phase, to every add-switch.

        Sent even to switches whose add message "failed" — an ack may
        have been lost *after* the apply, and every inverse op is
        idempotent (deleting absent state is a no-op).  Results are
        ignored: leftovers are inert and anti-entropy owns them.
        """
        for switch, ops in sorted(self._ops["add"].items()):
            inverse = tuple(_inverse(op) for op in reversed(ops))
            self.rollback_ops += len(inverse)
            msg = ControlMessage.make(
                switch, self.epoch, self.txn_id, "rollback", inverse
            )
            self.channels[switch].send(msg, lambda status: None)

    def _finish(self, outcome: str) -> None:
        if self._finished:
            return
        self._finished = True
        self.outcome = outcome
        # Dropped once called: a callback that refers back to this
        # transaction would keep the pair alive until the cyclic collector ran.
        on_done, self.on_done = self.on_done, None
        on_done(outcome, self.rollback_ops)
