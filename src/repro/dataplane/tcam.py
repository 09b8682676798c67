"""TCAM tables: prioritised match/action entries with pipeline support.

Models the expensive resource the tagging scheme conserves.  An entry
matches on the two tag fields plus the (class, hash-range) classification;
actions mirror Table III: forward to the APPLE host, tag sub-class / host
IDs, or fall through to the next table where other applications' rules
(routing, ACLs) live.

Entry counts reported by :meth:`TcamTable.entry_count` use the *hardware*
cost: a classification entry whose hash range needs k prefix rules counts
as k TCAM entries (Sec. V-A's prefix method).

Lookup fast path (the OVS architecture in miniature): real Open vSwitch
puts an exact-match *flow cache* in front of its megaflow classifier so
that only the first packet of a flow pays the full wildcard-match cost.
:meth:`TcamTable.match` does the same here.  The cache key is
``(class_id, host-tag, hash bucket)`` where the bucket quantises
``flow_hash`` at :attr:`TcamEntry.HASH_BITS` resolution — the exact
resolution the hardware prefix expansion uses.  Correctness:

* the three key components are the only packet fields ``matches`` reads,
  so a cached decision is wrong only if the matched entry could differ
  *within* one hash bucket;
* because the bucket width is 2**-HASH_BITS and scaling by a power of two
  is exact in binary floating point, a hash-range boundary can split a
  bucket only when ``boundary * 2**HASH_BITS`` is not an integer.  Buckets
  containing such an interior boundary are collected per generation and
  never cached — they always take the cold scan;
* every mutation (:meth:`install`, :meth:`remove_where`, :meth:`clear`)
  bumps a generation counter; the cache and the per-class index are
  rebuilt lazily when the generation moves, so a stale entry can never be
  served.

Cold lookups use a class-id index (entries keyed by their exact
``class_id`` plus the wildcard list) so they scan only entries that could
possibly match, merged in priority order.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.classify.split import range_to_cidr_count
from repro.dataplane.packet import Packet


class ActionKind(enum.Enum):
    """Action types appearing in Table III and the vSwitch pipeline."""

    FORWARD_TO_HOST = "fwd-host"
    TAG_SUBCLASS_AND_FORWARD_TO_HOST = "tag-subclass+fwd-host"
    TAG_SUBCLASS_AND_HOST = "tag-subclass+tag-host"
    GOTO_NEXT_TABLE = "goto-next"
    DROP = "drop"


@dataclass(frozen=True)
class Action:
    """A TCAM action with its tag parameters."""

    kind: ActionKind
    subclass_id: Optional[int] = None
    next_host: Optional[str] = None  # host-ID tag value to write (may be FIN)


@dataclass
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
    table (the flow cache and the hardware-entry count rely on it); install
    a fresh entry instead of mutating one in place.
    """

    priority: int
    action: Action
    host_tag_is: Optional[str] = None
    class_id: Optional[str] = None
    hash_range: Optional[Tuple[float, float]] = None
    name: str = ""

    HASH_BITS = 16  # resolution at which hash ranges map onto prefix rules

    def matches(self, packet: Packet) -> bool:
        if self.host_tag_is is not None:
            tag = packet.host_tag if packet.host_tag is not None else "EMPTY"
            if tag != self.host_tag_is:
                return False
        if self.class_id is not None and packet.class_id != self.class_id:
            return False
        if self.hash_range is not None:
            lo, hi = self.hash_range
            if not lo <= packet.flow_hash < hi:
                return False
        return True

    @cached_property
    def hardware_entries(self) -> int:
        """TCAM slots this logical entry occupies (prefix expansion).

        Computed once per entry: experiments read it per snapshot via
        :meth:`TcamTable.entry_count`, and the prefix expansion
        (`range_to_cidr_count`) is by far the most expensive part.
        """
        if self.hash_range is None:
            return 1
        lo, hi = self.hash_range
        size = 1 << self.HASH_BITS
        start = int(round(lo * size))
        stop = int(round(hi * size)) - 1
        if stop < start:
            return 1
        return range_to_cidr_count(start, stop, bits=self.HASH_BITS)


#: Sentinel distinguishing "cached None (miss)" from "not cached".
_NOT_CACHED = object()

#: Number of exact-match buckets the hash domain is quantised into.
_BUCKETS = 1 << TcamEntry.HASH_BITS


class TcamTable:
    """A priority-ordered TCAM table with an exact-match flow cache.

    Generation contract: every method that changes the installed entries
    (:meth:`install`, :meth:`remove_where`, :meth:`remove_by_name`,
    :meth:`replace`, :meth:`clear`) moves :attr:`generation`, and nothing
    else may change them.  The flow cache, the network's walk plans and
    the southbound fabric's installed-state view all trust an unmoved
    generation to mean unchanged entries
    (``tests/test_dataplane_generation.py`` enforces it).
    """

    def __init__(self, name: str = "table0") -> None:
        self.name = name
        self._entries: List[TcamEntry] = []
        #: Parallel list of ``-priority`` keys for O(log n) ordered insert.
        self._prio_keys: List[int] = []
        self.lookup_count = 0
        self.miss_count = 0
        self.cache_hits = 0
        #: Disable to force the pre-fast-path linear scan (benchmarks use
        #: this to reproduce the uncached baseline).
        self.cache_enabled = True
        self._generation = 0
        self._hw_count = 0
        # Flow cache + cold-scan index, rebuilt lazily per generation.
        self._cache: Dict[Tuple[Optional[str], str, int], Optional[TcamEntry]] = {}
        self._index_generation = -1
        self._by_class: Dict[str, List[Tuple[int, TcamEntry]]] = {}
        self._wildcard: List[Tuple[int, TcamEntry]] = []
        self._boundary_buckets: frozenset = frozenset()

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone counter bumped by every rule mutation."""
        return self._generation

    def install(self, entry: TcamEntry) -> None:
        """Insert keeping priority order (higher priority matched first).

        Uses a bisect insert on a parallel priority-key list, so bulk rule
        installation costs O(n log n) comparisons total instead of a full
        re-sort per insert.  Equal priorities keep insertion order (the
        same tie-break the previous stable sort produced).
        """
        key = -entry.priority
        idx = bisect_right(self._prio_keys, key)
        self._prio_keys.insert(idx, key)
        self._entries.insert(idx, entry)
        self._hw_count += entry.hardware_entries
        self._generation += 1

    def remove_where(self, predicate) -> int:
        """Remove entries satisfying ``predicate``; returns count removed."""
        kept = [e for e in self._entries if not predicate(e)]
        removed = len(self._entries) - len(kept)
        if removed:
            self._entries = kept
            self._prio_keys = [-e.priority for e in kept]
            self._hw_count = sum(e.hardware_entries for e in kept)
            self._generation += 1
        return removed

    def clear(self) -> None:
        self._entries.clear()
        self._prio_keys.clear()
        self._hw_count = 0
        self._generation += 1

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

    def entry_by_name(self, name: str) -> Optional[TcamEntry]:
        """The installed entry called ``name`` (None when absent)."""
        for e in self._entries:
            if e.name == name:
                return e
        return None

    def lookup(self, packet: Packet) -> Optional[TcamEntry]:
        """First (highest-priority) matching entry, or None on miss."""
        self.lookup_count += 1
        entry = self.match(packet.class_id, packet.host_tag, packet.flow_hash)
        if entry is None:
            self.miss_count += 1
        return entry

    # ------------------------------------------------------------------
    # Fast path
    # ------------------------------------------------------------------
    def match(
        self,
        class_id: Optional[str],
        host_tag: Optional[str],
        flow_hash: float,
    ) -> Optional[TcamEntry]:
        """Like :meth:`lookup` on raw fields, without the hit/miss counters.

        This is the flow-cached fast path; the batched walker calls it
        directly when resolving a bucket's pipeline once.
        """
        tag = host_tag if host_tag is not None else "EMPTY"
        if not self.cache_enabled:
            return self._scan_all(class_id, tag, flow_hash)
        if self._index_generation != self._generation:
            self._rebuild_index()
        bucket = int(flow_hash * _BUCKETS)
        key = (class_id, tag, bucket)
        hit = self._cache.get(key, _NOT_CACHED)
        if hit is not _NOT_CACHED:
            self.cache_hits += 1
            return hit
        entry = self._scan_indexed(class_id, tag, flow_hash)
        if bucket not in self._boundary_buckets:
            self._cache[key] = entry
        return entry

    def hash_boundaries(self, class_id: Optional[str]) -> List[float]:
        """Sorted interior hash-range bounds of entries a class can match.

        The sharded data plane's partitioner cuts the hash domain [0, 1)
        at these points: within one resulting interval, every flow of the
        class matches the same entry sequence in this table, so a single
        probe resolves the whole interval's walk.  Includes wildcard
        (``class_id is None``) entries, which the class can also match.
        """
        if self._index_generation != self._generation:
            self._rebuild_index()
        bounds = set()
        for e in self._entries:
            if e.class_id is not None and e.class_id != class_id:
                continue
            if e.hash_range is not None:
                for b in e.hash_range:
                    if 0.0 < b < 1.0:
                        bounds.add(b)
        return sorted(bounds)

    def bucket_is_cacheable(self, flow_hash: float) -> bool:
        """Whether the whole hash bucket of ``flow_hash`` matches uniformly.

        False only for buckets containing an interior hash-range boundary;
        the batched walker falls back to per-packet resolution there.
        """
        if self._index_generation != self._generation:
            self._rebuild_index()
        return int(flow_hash * _BUCKETS) not in self._boundary_buckets

    @staticmethod
    def _entry_matches(
        e: TcamEntry, class_id: Optional[str], tag: str, flow_hash: float
    ) -> bool:
        if e.host_tag_is is not None and tag != e.host_tag_is:
            return False
        if e.class_id is not None and e.class_id != class_id:
            return False
        if e.hash_range is not None:
            lo, hi = e.hash_range
            if not lo <= flow_hash < hi:
                return False
        return True

    def _scan_all(
        self, class_id: Optional[str], tag: str, flow_hash: float
    ) -> Optional[TcamEntry]:
        """The pre-fast-path behaviour: linear scan over every entry."""
        for e in self._entries:
            if self._entry_matches(e, class_id, tag, flow_hash):
                return e
        return None

    def _scan_indexed(
        self, class_id: Optional[str], tag: str, flow_hash: float
    ) -> Optional[TcamEntry]:
        """Cold lookup: merge the class's entries with the wildcard list.

        Both index lists carry each entry's position in the full priority
        order, so the merge visits candidates in exactly the order the
        linear scan would.
        """
        a = self._by_class.get(class_id, []) if class_id is not None else []
        b = self._wildcard
        i = j = 0
        la, lb = len(a), len(b)
        while i < la or j < lb:
            if j >= lb or (i < la and a[i][0] < b[j][0]):
                e = a[i][1]
                i += 1
            else:
                e = b[j][1]
                j += 1
            if self._entry_matches(e, class_id, tag, flow_hash):
                return e
        return None

    def _rebuild_index(self) -> None:
        by_class: Dict[str, List[Tuple[int, TcamEntry]]] = {}
        wildcard: List[Tuple[int, TcamEntry]] = []
        boundaries = set()
        for pos, e in enumerate(self._entries):
            if e.class_id is None:
                wildcard.append((pos, e))
            else:
                by_class.setdefault(e.class_id, []).append((pos, e))
            if e.hash_range is not None:
                for bound in e.hash_range:
                    scaled = bound * _BUCKETS  # exact: power-of-two scale
                    ib = int(scaled)
                    if scaled != ib and 0 <= ib < _BUCKETS:
                        boundaries.add(ib)
        self._by_class = by_class
        self._wildcard = wildcard
        self._boundary_buckets = frozenset(boundaries)
        self._cache = {}
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
