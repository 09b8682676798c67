"""TCAM tables: prioritised match/action entries with pipeline support.

Models the expensive resource the tagging scheme conserves.  An entry
matches on the two tag fields plus the (class, hash-range) classification;
actions mirror Table III: forward to the APPLE host, tag sub-class / host
IDs, or fall through to the next table where other applications' rules
(routing, ACLs) live.

Entry counts reported by :meth:`TcamTable.entry_count` use the *hardware*
cost: a classification entry whose hash range needs k prefix rules counts
as k TCAM entries (Sec. V-A's prefix method).

Lookup path: :meth:`TcamTable.match` is a priority scan, nothing else.
A class-id index (per exact ``class_id``, that class's entries and the
wildcard ones in priority order, plus the wildcard list for every other
class; rebuilt lazily when :attr:`TcamTable.generation` moves) narrows the
scan to entries that could possibly match; ``_scan_all`` keeps the plain
linear scan as the property tests' reference.  There is no per-table flow
cache: what makes repeated lookups cheap is one level up, where
:class:`~repro.dataplane.network.DataPlaneNetwork` resolves a whole walk
once per (class, hash interval) and replays it —
:meth:`TcamTable.hash_boundaries` supplies the interval edges, and
:attr:`TcamTable.cache_hits` counts the hop lookups such a replay answered
without any scan here.

Every table of one network shares a :class:`RuleEpoch`: each mutator moves
the table's own ``generation`` (what the southbound reconciler watches)
*and* the shared epoch (what retires the network's resolved walks), so
"did any rule anywhere change" is one integer comparison.

An entry's canonical 8-tuple (:attr:`TcamEntry.spec`, the southbound wire
form) is computed once per entry and kept in a slot, and an entry built
from a spec (:meth:`TcamEntry.from_spec`) keeps that very tuple, so reading
a table back and comparing it with the specs it was written from is cheap.
A spec of a :meth:`shared <TcamEntry.share>` entry gives back that object.
Entries and actions are slotted: no instance ``__dict__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.classify.split import range_to_cidr_count
from repro.dataplane.packet import Packet


class ActionKind(enum.Enum):
    """Action types appearing in Table III and the vSwitch pipeline."""

    FORWARD_TO_HOST = "fwd-host"
    TAG_SUBCLASS_AND_FORWARD_TO_HOST = "tag-subclass+fwd-host"
    TAG_SUBCLASS_AND_HOST = "tag-subclass+tag-host"
    GOTO_NEXT_TABLE = "goto-next"
    DROP = "drop"


@dataclass(frozen=True, slots=True)
class Action:
    """A TCAM action with its tag parameters."""

    kind: ActionKind
    subclass_id: Optional[int] = None
    next_host: Optional[str] = None  # host-ID tag value to write (may be FIN)


@dataclass(slots=True)
class TcamEntry:
    """One prioritised TCAM entry.

    Match dimensions (None = wildcard):
        host_tag_is: require the host-ID tag to equal this value;
            ``"EMPTY"`` matches an untagged packet.
        class_id: require the packet's class.
        hash_range: ``[lo, hi)`` sub-range of the class's hash domain (the
            sub-class wildcard match); the hardware realisation needs
            :attr:`hardware_entries` prefix rules.

    Match fields are treated as immutable once the entry is installed in a
    table (the scan index and the hardware-entry count rely on it, and the
    static entries are shared between tables); install a fresh entry
    instead of mutating one in place.
    """

    priority: int
    action: Action
    host_tag_is: Optional[str] = None
    class_id: Optional[str] = None
    hash_range: Optional[Tuple[float, float]] = None
    name: str = ""
    _spec: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    HASH_BITS = 16  # resolution at which hash ranges map onto prefix rules

    def matches(self, packet: Packet) -> bool:
        tag = packet.host_tag if packet.host_tag is not None else "EMPTY"
        return self.matches_fields(packet.class_id, tag, packet.flow_hash)

    def matches_fields(
        self, class_id: Optional[str], tag: str, flow_hash: float
    ) -> bool:
        """Match on raw header fields (``tag`` already ``"EMPTY"``-mapped)."""
        if self.host_tag_is is not None and tag != self.host_tag_is:
            return False
        if self.class_id is not None and self.class_id != class_id:
            return False
        if self.hash_range is not None:
            lo, hi = self.hash_range
            if not lo <= flow_hash < hi:
                return False
        return True

    @property
    def hardware_entries(self) -> int:
        """TCAM slots this logical entry occupies (prefix expansion)."""
        return _hardware_entries(self.hash_range)

    @property
    def spec(self) -> tuple:
        """The canonical tuple ``(name, priority, host_tag_is, class_id,
        hash_range, action kind value, subclass_id, next_host)``.

        Computed on first use and kept (match fields never change once an
        entry exists); equal entries have equal specs.
        """
        spec = self._spec
        if spec is None:
            action = self.action
            spec = self._spec = (
                self.name,
                self.priority,
                self.host_tag_is,
                self.class_id,
                None if self.hash_range is None else tuple(self.hash_range),
                action.kind.value,
                action.subclass_id,
                action.next_host,
            )
        return spec

    @staticmethod
    def from_spec(spec: tuple) -> "TcamEntry":
        """The entry whose :attr:`spec` is ``spec`` (that very tuple), or the
        one :meth:`shared <share>` entry with that spec."""
        name, priority, host_tag_is, class_id, hash_range, kind, sub_id, nxt = spec
        if hash_range is not None and type(hash_range) is not tuple:
            hash_range = tuple(hash_range)
            spec = (name, priority, host_tag_is, class_id, hash_range, kind, sub_id, nxt)
        elif class_id is None and spec in _SHARED:  # (shared entries match no class)
            return _SHARED[spec]
        entry = TcamEntry(
            priority,
            Action(_ACTION_KINDS[kind], sub_id, nxt),
            host_tag_is,
            class_id,
            hash_range,
            name,
        )
        entry._spec = spec
        return entry

    def share(self) -> "TcamEntry":
        """Make this entry, which matches no class, the one :meth:`from_spec`
        returns for its spec: one object in every table that holds it."""
        _SHARED[self.spec] = self
        return self


#: Action kind by its value (the spec's action field).
_ACTION_KINDS = {kind.value: kind for kind in ActionKind}

#: Shared entries by spec (:meth:`TcamEntry.share`).
_SHARED: Dict[tuple, TcamEntry] = {}


@lru_cache(maxsize=1024)
def _hardware_entries(hash_range: Optional[Tuple[float, float]]) -> int:
    """Prefix rules realising ``[lo, hi)`` at :attr:`TcamEntry.HASH_BITS`.

    Memoised per range, not per entry: an install of a plan builds a fresh
    entry for every sub-class, most of them over the same few ranges
    (``(0.0, 1.0)`` above all), and the prefix expansion
    (`range_to_cidr_count`) is by far the most expensive part.
    """
    if hash_range is None:
        return 1
    lo, hi = hash_range
    size = 1 << TcamEntry.HASH_BITS
    start = int(round(lo * size))
    stop = int(round(hi * size)) - 1
    if stop < start:
        return 1
    return range_to_cidr_count(start, stop, bits=TcamEntry.HASH_BITS)


class RuleEpoch:
    """A counter shared by every rule table of one network.

    Anything that holds rule state calls :meth:`move` when that state
    changes; anything that caches a function of rule state compares one
    integer (``value``) to learn whether it is still valid.  Whatever must
    *act* on a change subscribes to :attr:`listeners` instead of polling:
    a southbound fabric at rest listens until it is woken (see
    :class:`~repro.southbound.fabric.SouthboundFabric`).  Only mutators
    pay for the hook; a lookup reads ``value`` and nothing else.
    """

    __slots__ = ("value", "listeners")

    def __init__(self) -> None:
        self.value = 0
        #: Called, in order, after every move (replaced, never mutated).
        self.listeners: Tuple[Callable[[], None], ...] = ()

    def move(self) -> None:
        """Record one change of rule state and tell the listeners."""
        self.value += 1
        for listener in self.listeners:
            listener()


class TcamTable:
    """A priority-ordered TCAM table.

    Generation contract: every method that changes the installed entries
    (:meth:`install`, :meth:`remove_where`, :meth:`remove_by_name`,
    :meth:`replace`, :meth:`sync_prefix`, :meth:`clear`) moves
    :attr:`generation` and the shared ``epoch``, and nothing else may
    change them.  The network's
    walk plans and the southbound fabric's installed-state view trust an
    unmoved counter to mean unchanged entries
    (``tests/test_dataplane_generation.py`` enforces it).

    A table lives as long as its network (a tenant's, for the tenant's
    lifetime), so it holds only what it uses: the entry list (one entry
    object may sit in many tables — :func:`~repro.dataplane.switch.pass_by_entry`
    and :func:`~repro.dataplane.switch.host_match_entry` are shared per
    switch name), no parallel priority keys, and no wildcard list before
    its first lookup.

    Args:
        epoch: the network-wide rule epoch this table reports mutations
            to; a table built on its own gets a private one.
    """

    def __init__(self, name: str = "table0", epoch: Optional[RuleEpoch] = None) -> None:
        self.name = name
        self._entries: List[TcamEntry] = []
        self.lookup_count = 0
        self.miss_count = 0
        #: Hop lookups answered without a priority scan: a walker that
        #: replays a resolved plan counts every hop here (and in
        #: ``lookup_count``); :meth:`lookup` itself always scans and never
        #: does.
        self.cache_hits = 0
        self._generation = 0
        self._epoch = epoch if epoch is not None else RuleEpoch()
        self._hw_count = 0
        # Scan index, rebuilt lazily per generation (no wildcard list
        # before the first lookup).
        self._index_generation = -1
        self._by_class: Dict[str, List[TcamEntry]] = {}
        self._wildcard: Sequence[TcamEntry] = ()

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone counter bumped by every rule mutation."""
        return self._generation

    def _moved(self) -> None:
        self._generation += 1
        self._epoch.move()

    def install(self, entry: TcamEntry) -> None:
        """Insert keeping priority order (higher priority matched first).

        Equal priorities keep insertion order (the tie-break a stable sort
        gives).  An entry of no higher priority than the last one is
        appended — a rule set installs in priority order, so a cold
        install never searches; any other entry is placed by bisection.
        """
        entries = self._entries
        priority = entry.priority
        if not entries or entries[-1].priority >= priority:
            entries.append(entry)
        else:
            lo, hi = 0, len(entries) - 1  # the first entry of lower priority
            while lo < hi:
                mid = (lo + hi) // 2
                if entries[mid].priority < priority:
                    hi = mid
                else:
                    lo = mid + 1
            entries.insert(lo, entry)
        self._hw_count += _hardware_entries(entry.hash_range)
        self._moved()

    def remove_where(self, predicate) -> int:
        """Remove entries satisfying ``predicate``; returns count removed."""
        kept = [e for e in self._entries if not predicate(e)]
        removed = len(self._entries) - len(kept)
        if removed:
            self._entries = kept
            self._hw_count = sum(e.hardware_entries for e in kept)
            self._moved()
        return removed

    def clear(self) -> None:
        self._entries.clear()
        self._hw_count = 0
        self._moved()

    def remove_by_name(self, name: str) -> int:
        """Remove every entry called ``name``; returns count removed.

        Entry names are the flow-mod cookies of the southbound channel —
        deleting by name models an OpenFlow delete-strict keyed by cookie.
        """
        return self.remove_where(lambda e: e.name == name)

    def replace(self, entry: TcamEntry) -> None:
        """Install ``entry``, first removing any entry with the same name.

        The southbound agent's idempotent put: re-applying a retried
        flow-mod converges to exactly one installed copy.
        """
        self.remove_where(lambda e: e.name == entry.name)
        self.install(entry)

    def sync_prefix(self, prefix: str, specs: Sequence[tuple]) -> None:
        """Make the entries named ``prefix...`` exactly ``specs``, one move.

        The result, entry order included, is what removing every such entry
        and then installing ``TcamEntry.from_spec(spec)`` for each spec in
        order gives; an installed entry whose spec is unchanged is kept
        instead of rebuilt.  :attr:`generation` moves once, if the entry
        list changed.
        """
        kept: List[TcamEntry] = []
        old: Dict[str, TcamEntry] = {}
        for e in self._entries:
            if e.name.startswith(prefix):
                old[e.name] = e
            else:
                kept.append(e)
        new = []
        for spec in specs:
            e = old.get(spec[0])
            if e is None or e.spec != spec:
                e = TcamEntry.from_spec(spec)
            new.append(e)
        # Stable sort: kept entries first within a priority, then the new
        # ones in spec order -- the order one bisect insert per spec gives.
        entries = sorted(kept + new, key=lambda e: -e.priority)
        if entries == self._entries:
            return
        self._entries = entries
        self._hw_count = sum(_hardware_entries(e.hash_range) for e in entries)
        self._moved()

    def lookup(self, packet: Packet) -> Optional[TcamEntry]:
        """First (highest-priority) matching entry, or None on miss."""
        self.lookup_count += 1
        entry = self.match(packet.class_id, packet.host_tag, packet.flow_hash)
        if entry is None:
            self.miss_count += 1
        return entry

    def match(
        self,
        class_id: Optional[str],
        host_tag: Optional[str],
        flow_hash: float,
    ) -> Optional[TcamEntry]:
        """Like :meth:`lookup` on raw fields, without the hit/miss counters.

        Scans the class's index list: every entry the class can match, in
        the order :meth:`_scan_all` would visit them.
        """
        if self._index_generation != self._generation:
            self._rebuild_index()
        tag = host_tag if host_tag is not None else "EMPTY"
        # No wildcard is keyed by None, so class_id=None scans the wildcards.
        # The class test of TcamEntry.matches_fields holds by construction;
        # the tag and hash-range tests follow, inlined.
        for e in self._by_class.get(class_id, self._wildcard):
            want = e.host_tag_is
            if want is not None and want != tag:
                continue
            hash_range = e.hash_range
            if hash_range is None or hash_range[0] <= flow_hash < hash_range[1]:
                return e
        return None

    def hash_boundaries(self, class_id: Optional[str]) -> List[float]:
        """Sorted interior hash-range bounds of entries a class can match.

        The network cuts the class's hash domain [0, 1) at these points
        (:meth:`DataPlaneNetwork.class_intervals`): within one resulting
        interval, every flow of the class matches the same entry sequence
        in this table, so a single probe resolves the whole interval's
        walk.  Reads the scan index — the class's own entries plus the
        wildcard (``class_id is None``) ones, which it can also match.
        """
        if self._index_generation != self._generation:
            self._rebuild_index()
        bounds = set()
        for e in self._by_class.get(class_id, self._wildcard):
            if e.hash_range is not None:
                for b in e.hash_range:
                    if 0.0 < b < 1.0:
                        bounds.add(b)
        return sorted(bounds)

    def _scan_all(
        self, class_id: Optional[str], tag: str, flow_hash: float
    ) -> Optional[TcamEntry]:
        """Plain linear scan over every entry: :meth:`match`'s reference."""
        for e in self._entries:
            if e.matches_fields(class_id, tag, flow_hash):
                return e
        return None

    def _rebuild_index(self) -> None:
        by_class: Dict[str, List[TcamEntry]] = {}
        wildcard: List[TcamEntry] = []
        for e in self._entries:
            if e.class_id is None:
                # A wildcard follows everything already listed, in every list.
                wildcard.append(e)
                for candidates in by_class.values():
                    candidates.append(e)
            else:
                candidates = by_class.get(e.class_id)
                if candidates is None:
                    by_class[e.class_id] = candidates = list(wildcard)
                candidates.append(e)
        self._by_class = by_class
        self._wildcard = wildcard
        self._index_generation = self._generation

    # ------------------------------------------------------------------
    @property
    def logical_entries(self) -> int:
        """Number of logical rules installed."""
        return len(self._entries)

    def entry_count(self) -> int:
        """Hardware TCAM slots consumed (maintained incrementally)."""
        return self._hw_count

    def entries(self) -> List[TcamEntry]:
        return list(self._entries)

    def __repr__(self) -> str:
        return f"TcamTable({self.name!r}, logical={self.logical_entries}, hw={self.entry_count()})"
