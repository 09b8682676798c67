"""Southbound wire format: ops, messages, acks, idempotency cookies.

Everything on the channel is built from plain tuples of
ints/floats/strings so messages hash deterministically
(:func:`repro.dataplane.flowmod.stable_cookie`) and canonical state
snapshots compare with ``==``.

Op vocabulary (first element of each op tuple):

* ``("tcam_put", spec)`` — install/replace one TCAM entry by name.
* ``("tcam_del", name)`` — remove the TCAM entry called ``name``.
* ``("classify_sync", specs, paths)`` — atomically replace *all*
  classification entries of the switch with ``specs`` and register the
  class paths in ``paths`` (an OpenFlow bundle in miniature).  This is
  the make-before-break commit point: a class's classification and its
  registered path always change together.
* ``("vsw_put", class_id, sub_id, instance_ids, exit_tag)`` — one
  vSwitch rule.
* ``("vsw_del", class_id, sub_id)`` — remove one vSwitch rule.
* ``("origin_sync", origin_tuples)`` — replace the vSwitch's origin
  classification table wholesale.

``EntrySpec`` is the canonical 8-tuple form of a
:class:`~repro.dataplane.tcam.TcamEntry`:
``(name, priority, host_tag_is, class_id, hash_range, action_kind,
subclass_id, next_host)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Optional, Tuple

from repro.dataplane.flowmod import stable_cookie
from repro.dataplane.switch import pass_by_entry
from repro.dataplane.tcam import Action, ActionKind, TcamEntry

#: EntrySpec tuple indices (kept flat for cheap hashing/serialisation).
EntrySpec = Tuple[
    str,  # name
    int,  # priority
    Optional[str],  # host_tag_is
    Optional[str],  # class_id
    Optional[Tuple[float, float]],  # hash_range
    str,  # action kind value
    Optional[int],  # subclass_id
    Optional[str],  # next_host
]


def entry_spec(entry: TcamEntry) -> EntrySpec:
    """Canonical tuple form of a TCAM entry (order-independent compare)."""
    return (
        entry.name,
        entry.priority,
        entry.host_tag_is,
        entry.class_id,
        None if entry.hash_range is None else tuple(entry.hash_range),
        entry.action.kind.value,
        entry.action.subclass_id,
        entry.action.next_host,
    )


@cache
def pass_by_spec(switch: str) -> EntrySpec:
    """The switch's pass-by entry in canonical form.

    A constant of the switch name that every desired-state render lists for
    every switch, so it is built once per name (an immutable tuple; the
    names are the topologies' switches).
    """
    return entry_spec(pass_by_entry(switch))


def spec_entry(spec: EntrySpec) -> TcamEntry:
    """Rebuild a TCAM entry from its canonical tuple."""
    name, priority, host_tag_is, class_id, hash_range, kind, sub_id, nxt = spec
    return TcamEntry(
        priority=priority,
        action=Action(ActionKind(kind), subclass_id=sub_id, next_host=nxt),
        host_tag_is=host_tag_is,
        class_id=class_id,
        hash_range=None if hash_range is None else tuple(hash_range),
        name=name,
    )


#: Ack statuses the agent can return.
ACK_APPLIED = "applied"
ACK_DUPLICATE = "duplicate"  # cookie seen before: retry of an applied msg
ACK_STALE = "stale"  # message from a superseded epoch: not applied


@dataclass(frozen=True)
class Ack:
    """Switch → controller acknowledgement of one control message."""

    cookie: str
    status: str


@dataclass(frozen=True)
class ControlMessage:
    """One controller → switch bundle of ops (a flow-mod batch).

    Attributes:
        switch: destination switch.
        epoch: desired-state epoch the ops belong to; agents reject
            messages from superseded epochs.
        txn_id: transaction (or repair pass) counter; part of the cookie
            so a later repair re-applying identical ops is not suppressed
            as a duplicate of an earlier transaction's message.
        phase: transaction phase label ("add" | "swap" | "del" |
            "rollback") — informational.
        ops: the op tuples, applied in order within one sim event.
        cookie: content hash of (epoch, txn_id, switch, phase, ops);
            retransmissions carry the same cookie, so the agent applies a
            message exactly once no matter how often it arrives.
    """

    switch: str
    epoch: int
    txn_id: int
    phase: str
    ops: Tuple[tuple, ...]
    cookie: str = field(default="")

    @staticmethod
    def make(
        switch: str, epoch: int, txn_id: int, phase: str, ops: Tuple[tuple, ...]
    ) -> "ControlMessage":
        cookie = stable_cookie(epoch, txn_id, switch, phase, ops)
        return ControlMessage(
            switch=switch,
            epoch=epoch,
            txn_id=txn_id,
            phase=phase,
            ops=tuple(ops),
            cookie=cookie,
        )
