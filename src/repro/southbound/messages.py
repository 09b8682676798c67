"""Southbound wire format: ops, messages, acks, idempotency cookies.

Everything on the channel is built from plain tuples of
ints/floats/strings, so canonical state snapshots compare with ``==``.

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
* ``("origin_sync", rows, paths)`` — replace the vSwitch's origin
  classification table wholesale with ``rows`` and register ``paths``
  as ``classify_sync`` does.

A message's cookie is its identity, ``"epoch:txn_id:switch:phase"``: a
transaction sends one message per switch per phase and every repair pass
gets a new transaction ID, so no two messages of one fabric share a
cookie, while every retransmission of a message carries its cookie.
Building a :class:`ControlMessage` checks every op's kind and arity, so a
malformed bundle is refused before it is sent, never half applied.

``EntrySpec`` is the canonical 8-tuple form of a
:class:`~repro.dataplane.tcam.TcamEntry` (:attr:`TcamEntry.spec`):
``(name, priority, host_tag_is, class_id, hash_range, action_kind,
subclass_id, next_host)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.dataplane.switch import host_match_entry, pass_by_entry

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

#: Op kind -> length of its tuple (the kind included).
OP_ARITY = {
    "tcam_put": 2,
    "tcam_del": 2,
    "classify_sync": 3,
    "vsw_put": 5,
    "vsw_del": 3,
    "origin_sync": 3,
}


def pass_by_spec(switch: str) -> EntrySpec:
    """The switch's pass-by entry in canonical form.

    A constant of the switch name that every desired-state render lists for
    every switch: the shared entry's own spec, built once per name.
    """
    return pass_by_entry(switch).spec


def host_match_spec(switch: str) -> EntrySpec:
    """The switch's host-match entry in canonical form (built once per name)."""
    return host_match_entry(switch).spec


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
        cookie: ``"epoch:txn_id:switch:phase"``, which names one message
            of a fabric (see the module docstring); retransmissions carry
            the same cookie, so the agent applies a message exactly once no
            matter how often it arrives.
    """

    switch: str
    epoch: int
    txn_id: int
    phase: str
    ops: Tuple[tuple, ...]
    cookie: str = field(default="")

    def __post_init__(self) -> None:
        """Check every op, so no bundle can be refused half applied.

        Raises:
            ValueError: an op of unknown kind or wrong length, named by its
                index and kind; nothing has been sent or applied.
        """
        arity = OP_ARITY.get
        for index, op in enumerate(self.ops):
            if not op or arity(op[0]) != len(op):
                kind = op[0] if op else None
                raise ValueError(
                    f"southbound op {index} to {self.switch!r} is malformed: "
                    f"kind {kind!r} with {len(op)} fields"
                )

    @staticmethod
    def make(
        switch: str, epoch: int, txn_id: int, phase: str, ops: Tuple[tuple, ...]
    ) -> "ControlMessage":
        """The message, its cookie named from its identity (ops checked)."""
        return ControlMessage(
            switch=switch,
            epoch=epoch,
            txn_id=txn_id,
            phase=phase,
            ops=tuple(ops),
            cookie=f"{epoch}:{txn_id}:{switch}:{phase}",
        )
