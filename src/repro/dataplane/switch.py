"""Physical SDN switches implementing the Table III pipeline.

Upon packet reception (Fig. 2): if the host-ID tag names the APPLE host
attached to this switch, forward into the host; if the tag field is empty,
the packet just entered the network — classify it (tag a sub-class ID, and
either divert it into the local host or tag the next host ID and pass it
on); otherwise pass through to the next table, where the rules of other
applications (routing, traffic engineering) forward it unchanged —
interference freedom in action.

A switch's APPLE table is written only from entry specs, by the southbound
applier (:func:`repro.southbound.channel.apply_ops`), at day 0 and on
every push alike; this module holds the pipeline, the Table III
priorities and the spec of a classification row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cache
from typing import Dict, List, Optional

from repro.dataplane.packet import Packet
from repro.dataplane.tcam import Action, ActionKind, RuleEpoch, TcamEntry, TcamTable

# Table III priorities: host match above classification above pass-by.
PRIORITY_HOST_MATCH = 300
PRIORITY_CLASSIFICATION = 200
PRIORITY_PASS_BY = 100

#: Quarantine sits between classification and pass-by: a placed class's
#: classification always wins; unclassified stranded traffic never leaks.
PRIORITY_QUARANTINE = (PRIORITY_CLASSIFICATION + PRIORITY_PASS_BY) // 2

#: Name prefixes of the entries APPLE owns on a switch.  The southbound
#: reconciler treats everything under these prefixes as managed state.
QUARANTINE_PREFIX = "quarantine/"


@cache
def pass_by_entry(switch_name: str) -> TcamEntry:
    """The lowest-priority catch-all sending packets to the next table.

    One shared entry per switch name: an installed entry is immutable (see
    :class:`~repro.dataplane.tcam.TcamEntry`), and every network of a
    topology — one per tenant — installs the same catch-all at each switch
    (:meth:`TcamEntry.from_spec` of its spec returns this object).
    """
    return TcamEntry(
        priority=PRIORITY_PASS_BY,
        action=Action(ActionKind.GOTO_NEXT_TABLE),
        name=f"{switch_name}/pass-by",
    ).share()


@cache
def host_match_entry(switch_name: str) -> TcamEntry:
    """Host-match rule: packets tagged for this switch's host divert in.

    Shared per switch name, like :func:`pass_by_entry`.
    """
    return TcamEntry(
        priority=PRIORITY_HOST_MATCH,
        action=Action(ActionKind.FORWARD_TO_HOST),
        host_tag_is=switch_name,
        name=f"{switch_name}/host-match",
    ).share()


def classification_spec(
    switch_name: str,
    class_id: str,
    hash_range: tuple,
    subclass_id: int,
    first_host: str,
) -> tuple:
    """Ingress classification of one sub-class (Table III rows 2–3), as the
    :attr:`~repro.dataplane.tcam.TcamEntry.spec` it is written from.

    If the first processing host is local, the entry tags the sub-class and
    diverts the packet immediately; otherwise it also tags the next host ID
    and passes the packet to the routing table.  A desired-state render
    lists one per sub-class; the entry itself is built only where the spec
    is applied (:meth:`TcamEntry.from_spec`), at day 0 and on every push.
    """
    if first_host == switch_name:
        kind, next_host = _TAG_AND_FORWARD_VALUE, None
    else:
        kind, next_host = _TAG_AND_TAG_HOST_VALUE, first_host
    return (
        f"{switch_name}/classify/{class_id}#{subclass_id}",
        PRIORITY_CLASSIFICATION,
        "EMPTY",
        class_id,
        tuple(hash_range),
        kind,
        subclass_id,
        next_host,
    )


def quarantine_entry(switch_name: str, class_id: str) -> TcamEntry:
    """Ingress DROP for a stranded class (its traffic must never leak)."""
    return TcamEntry(
        priority=PRIORITY_QUARANTINE,
        action=Action(ActionKind.DROP),
        class_id=class_id,
        name=f"{QUARANTINE_PREFIX}{class_id}",
    )


class SwitchDecision(enum.Enum):
    """What the pipeline decided to do with the packet."""

    TO_HOST = "to-host"
    FORWARD = "forward"
    DROP = "drop"


# Enum members are class-attribute lookups; the per-hop pipeline reads these.
_TO_HOST = SwitchDecision.TO_HOST
_FORWARD = SwitchDecision.FORWARD
_DROP = SwitchDecision.DROP
_FORWARD_TO_HOST = ActionKind.FORWARD_TO_HOST
_TAG_SUBCLASS_AND_FORWARD_TO_HOST = ActionKind.TAG_SUBCLASS_AND_FORWARD_TO_HOST
_TAG_SUBCLASS_AND_HOST = ActionKind.TAG_SUBCLASS_AND_HOST
_GOTO_NEXT_TABLE = ActionKind.GOTO_NEXT_TABLE
_TAG_AND_FORWARD_VALUE = _TAG_SUBCLASS_AND_FORWARD_TO_HOST.value
_TAG_AND_TAG_HOST_VALUE = _TAG_SUBCLASS_AND_HOST.value


class PhysicalSwitch:
    """One SDN switch with its APPLE TCAM table.

    Args:
        name: switch identifier (matches the topology node).
        epoch: the network-wide rule epoch the table reports mutations to.
    """

    def __init__(self, name: str, epoch: Optional[RuleEpoch] = None) -> None:
        self.name = name
        self.table = TcamTable(name=f"{name}/table0", epoch=epoch)
        self.port_counters: Dict[str, int] = {}
        self.packets_seen = 0

    # ------------------------------------------------------------------
    def process(self, packet: Packet, count_port: Optional[str] = None) -> SwitchDecision:
        """Run the packet through the pipeline; mutates tags in place."""
        self.packets_seen += 1
        if count_port is not None:
            self.port_counters[count_port] = self.port_counters.get(count_port, 0) + 1
        packet.visit("switch", self.name)
        entry = self.table.lookup(packet)
        if entry is None:
            # No rules at all: behave as pass-by (other applications route).
            return _FORWARD
        action = entry.action
        kind = action.kind
        if kind is _GOTO_NEXT_TABLE:
            return _FORWARD
        if kind is _FORWARD_TO_HOST:
            return _TO_HOST
        if kind is _TAG_SUBCLASS_AND_FORWARD_TO_HOST:
            packet.subclass_tag = action.subclass_id
            return _TO_HOST
        if kind is _TAG_SUBCLASS_AND_HOST:
            packet.subclass_tag = action.subclass_id
            packet.host_tag = action.next_host
            return _FORWARD
        return _DROP

    def tcam_usage(self) -> int:
        """Hardware TCAM slots consumed by APPLE rules at this switch."""
        return self.table.entry_count()


@dataclass
class SwitchRuleSet:
    """The Rule Generator's Table III rows for one switch (data only).

    Whether the switch's host is in use (host match) and the ingress
    classification rows; :func:`repro.southbound.state.render_desired`
    turns them into the entry specs a switch is written from.
    """

    switch: str
    host_match: bool = False
    classifications: List[tuple] = field(default_factory=list)
    # each: (class_id, hash_range, subclass_id, first_host)
