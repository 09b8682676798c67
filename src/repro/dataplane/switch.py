"""Physical SDN switches implementing the Table III pipeline.

Upon packet reception (Fig. 2): if the host-ID tag names the APPLE host
attached to this switch, forward into the host; if the tag field is empty,
the packet just entered the network — classify it (tag a sub-class ID, and
either divert it into the local host or tag the next host ID and pass it
on); otherwise pass through to the next table, where the rules of other
applications (routing, traffic engineering) forward it unchanged —
interference freedom in action.
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
    topology — one per tenant — installs the same catch-all at each switch.
    """
    return TcamEntry(
        priority=PRIORITY_PASS_BY,
        action=Action(ActionKind.GOTO_NEXT_TABLE),
        name=f"{switch_name}/pass-by",
    )


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
    )


def classification_entry(
    switch_name: str,
    class_id: str,
    hash_range: tuple,
    subclass_id: int,
    first_host: str,
) -> TcamEntry:
    """Ingress classification entry for one sub-class (Table III rows 2–3)."""
    # One per sub-class on every install: positional arguments, the
    # cheaper call (fields as in Action and TcamEntry).
    if first_host == switch_name:
        action = Action(_TAG_SUBCLASS_AND_FORWARD_TO_HOST, subclass_id)
    else:
        action = Action(_TAG_SUBCLASS_AND_HOST, subclass_id, first_host)
    return TcamEntry(
        PRIORITY_CLASSIFICATION,
        action,
        "EMPTY",
        class_id,
        hash_range,
        f"{switch_name}/classify/{class_id}#{subclass_id}",
    )


def classification_spec(
    switch_name: str,
    class_id: str,
    hash_range: tuple,
    subclass_id: int,
    first_host: str,
) -> tuple:
    """:func:`classification_entry`'s :attr:`TcamEntry.spec`, no entry built.

    A desired-state render lists one per sub-class on every push; the cold
    install keeps building entries directly, so an installed entry carries
    no spec until one is read (``tests/test_southbound_differential.py``
    holds the two equal through the render).
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
        has_host: whether an APPLE host hangs off this switch.
        epoch: the network-wide rule epoch the table reports mutations to.
    """

    def __init__(
        self, name: str, has_host: bool = True, epoch: Optional[RuleEpoch] = None
    ) -> None:
        self.name = name
        self.has_host = has_host
        self.table = TcamTable(name=f"{name}/table0", epoch=epoch)
        self.port_counters: Dict[str, int] = {}
        self.packets_seen = 0

    # ------------------------------------------------------------------
    def install_pass_by(self) -> None:
        """The lowest-priority catch-all sending packets to the next table."""
        self.table.install(pass_by_entry(self.name))

    def install_host_match(self) -> None:
        """Host-match rule: packets tagged for this switch's host divert in."""
        if not self.has_host:
            raise ValueError(f"switch {self.name!r} has no APPLE host")
        self.table.install(host_match_entry(self.name))

    def install_classification(
        self,
        class_id: str,
        hash_range: tuple,
        subclass_id: int,
        first_host: str,
    ) -> None:
        """Ingress classification for one sub-class (Table III rows 2–3).

        If the first processing host is local, the entry tags the sub-class
        and diverts the packet immediately; otherwise it also tags the next
        host ID and passes the packet to the routing table.
        """
        self.table.install(
            classification_entry(
                self.name, class_id, hash_range, subclass_id, first_host
            )
        )

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
    """Declarative rules for one switch, installable in one shot.

    Produced by the Rule Generator; applying it replaces the switch's APPLE
    table contents (rule updates are atomic per switch in the prototype).
    """

    switch: str
    host_match: bool = False
    classifications: List[tuple] = field(default_factory=list)
    # each: (class_id, hash_range, subclass_id, first_host)

    def apply(self, switch: PhysicalSwitch) -> None:
        if switch.name != self.switch:
            raise ValueError(
                f"rule set for {self.switch!r} applied to {switch.name!r}"
            )
        switch.table.clear()
        if self.host_match:
            switch.install_host_match()
        for class_id, hash_range, subclass_id, first_host in self.classifications:
            switch.install_classification(class_id, hash_range, subclass_id, first_host)
        switch.install_pass_by()
