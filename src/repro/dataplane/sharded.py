"""Sharded, shared-nothing data plane: columnar walks over flow partitions.

The batched walker (:meth:`DataPlaneNetwork.inject_stream`) already
amortises rule lookups per hash interval but still executes per packet.
This module adds the next structural step, in three layers:

**Partition** (:func:`build_partition`).  The unit of work is a
``(class, hash-interval)`` pair — exactly the key of the network's
resolution cache (:meth:`DataPlaneNetwork.class_intervals`), so the
interval's :class:`_WalkPlan` names its exact VNF instance set.  Units
are then joined with a union-find whenever they
share an instance — an instance's sliding admission window is the one
piece of order-dependent mutable state in a walk, so two units touching
the same instance must never run on different shards.  The resulting
connected components are *shared-nothing*: components are distributed
across shards (largest weight first, least-loaded shard, deterministic
tie-breaks) and never split, which is what makes sharded execution
bit-identical to the global-order walk no matter how shards interleave.
The partition is valid for one value of the network's rule epoch, like
the plans it was built from, so every chaos invalidation
(``invalidate_plans``, link failures, rule mutations) and every newly
registered class retires it automatically.

**Columnar walk** (:class:`_ColumnWalker`).  Every per-packet pass over
the column of ``(class_idx, hash, timestamp)`` arrays is O(n).  Each packet
gets one integer ``(class, interval)`` key — class offset plus interval
index, the index from the exact search of the hash in its class's own small
cuts array — and one radix sort on that narrow key groups the column: the
columnar TCAM walk, each distinct group taking its per-hop TCAM hits from
the plan cache.  With several shards the same keys index a group → shard
table.  The walker then tries to apply whole time-slices in bulk: for
every instance appearing in the slice it evaluates a vectorised *no-drop*
admission check (the sliding-window rule as one shifted comparison over
the instance's merged arrival column: an arrival is refused iff its
``floor(budget)``-th predecessor is still inside the window), and if every
instance admits everything, counters are bulk-added and windows
bulk-extended — numpy instead of the per-packet loop.  If anything could
drop, the slice is bisected; slices at or below :data:`MIN_LEAF` run
through the unmodified ``inject_stream``, which is exact by definition (and
also covers the scalar-fallback plans: header-modifying VNF hops,
downstream hooks).  Instances that fail a check are penalised so subsequent
slices skip straight to the sequential path instead of re-paying a doomed
vector check.

**Process fan-out** (:class:`ShardedDataPlane`).  Shards can run in
worker processes: workers are forked once (inheriting the deployed
network as a copy-on-write replica), per-call timelines travel in a
:mod:`multiprocessing.shared_memory` block, and each worker returns its
outcomes plus a :class:`CounterDelta` — a commutative snapshot diff of
every ledger/switch/vSwitch/instance counter — which the parent merges
at flush time.  Order of merging is irrelevant because every counter
update in a walk is ``+=``.  On one core (or when forking is
unavailable, or inside another worker) execution stays in-process,
running the shard columns sequentially on the parent network — still
bit-identical, because shards share no instances.
"""

from __future__ import annotations

import pickle
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataplane.network import DataPlaneNetwork, _WalkPlan
from repro.obs import state as _obs
from repro.parallel import (
    auto_shards,
    cpu_count,
    fork_available,
    in_worker,
    mp_context,
)
from repro.perf import REGISTRY

#: Bulk slices are bisected down to this size before giving up and
#: running the exact per-packet walker on the slice.
MIN_LEAF = 256

#: Slices at or below this size go straight to the sequential walker when
#: they contain a penalised instance or a scalar-fallback plan — skipping
#: vector checks that are known (or certain) to fail.
SEQ_BYPASS = 4 * MIN_LEAF

#: Vector-check failures put an instance "in penalty" for this many
#: sequential slices; while penalised, slices containing it skip the
#: vector check entirely.  Keeps a steadily-overloaded instance from
#: charging a failed check at every bisection level.
PENALTY = 8


# ----------------------------------------------------------------------
# Commutative counter deltas
# ----------------------------------------------------------------------
@dataclass
class CounterDelta:
    """Every mutable counter of a network, as a snapshot or a diff.

    All fields add elementwise, and every counter update a walk performs
    is ``+=`` — so deltas from different shards commute: merging them in
    any order yields the same totals as the global-order walk.
    ``ledger`` is ``(delivered, dropped, violations)``; ``switches`` maps
    name to ``(packets_seen, lookups, misses, cache_hits)``; ``vswitches``
    maps name to ``(packets_in, packets_dropped)``; ``instances`` maps
    ``(switch, alias)`` to ``(in, processed, dropped, bytes)``.
    """

    ledger: Tuple[int, int, int] = (0, 0, 0)
    switches: Dict[str, Tuple[int, int, int, int]] = field(default_factory=dict)
    vswitches: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    instances: Dict[Tuple[str, str], Tuple[int, int, int, int]] = field(
        default_factory=dict
    )

    @staticmethod
    def capture(network: DataPlaneNetwork) -> "CounterDelta":
        """Absolute counter snapshot (flushes deferred counts first)."""
        network.flush_counters()
        switches = {}
        for name, sw in network.switches.items():
            t = sw.table
            switches[name] = (
                sw.packets_seen, t.lookup_count, t.miss_count, t.cache_hits
            )
        vswitches = {}
        instances = {}
        for name, vsw in network.vswitches.items():
            vswitches[name] = (vsw.packets_in, vsw.packets_dropped)
            for alias, inst in vsw._instances.items():
                st = inst.stats
                instances[(name, alias)] = (
                    st.packets_in,
                    st.packets_processed,
                    st.packets_dropped,
                    st.bytes_processed,
                )
        return CounterDelta(
            ledger=(
                network.delivered_count,
                network.dropped_count,
                network.violation_count,
            ),
            switches=switches,
            vswitches=vswitches,
            instances=instances,
        )

    def subtract(self, base: "CounterDelta") -> "CounterDelta":
        """This snapshot minus ``base`` (what one shard's run added)."""

        def sub(a, b):
            return tuple(x - y for x, y in zip(a, b))

        return CounterDelta(
            ledger=sub(self.ledger, base.ledger),
            switches={
                k: sub(v, base.switches.get(k, (0,) * len(v)))
                for k, v in self.switches.items()
            },
            vswitches={
                k: sub(v, base.vswitches.get(k, (0,) * len(v)))
                for k, v in self.vswitches.items()
            },
            instances={
                k: sub(v, base.instances.get(k, (0,) * len(v)))
                for k, v in self.instances.items()
            },
        )

    def merge(self, other: "CounterDelta") -> "CounterDelta":
        """Elementwise sum — commutative and associative by construction."""

        def add_maps(a, b):
            out = dict(a)
            for k, v in b.items():
                prev = out.get(k)
                out[k] = v if prev is None else tuple(
                    x + y for x, y in zip(prev, v)
                )
            return out

        return CounterDelta(
            ledger=tuple(x + y for x, y in zip(self.ledger, other.ledger)),
            switches=add_maps(self.switches, other.switches),
            vswitches=add_maps(self.vswitches, other.vswitches),
            instances=add_maps(self.instances, other.instances),
        )

    def apply_to(self, network: DataPlaneNetwork) -> None:
        """Add this delta into a live network's counters."""
        d, dr, v = self.ledger
        network.delivered_count += d
        network.dropped_count += dr
        network.violation_count += v
        for name, (seen, lookups, misses, hits) in self.switches.items():
            sw = network.switches[name]
            sw.packets_seen += seen
            sw.table.lookup_count += lookups
            sw.table.miss_count += misses
            sw.table.cache_hits += hits
        for name, (pin, pdrop) in self.vswitches.items():
            vsw = network.vswitches[name]
            vsw.packets_in += pin
            vsw.packets_dropped += pdrop
        for (sw_name, alias), (pin, proc, drop, nbytes) in self.instances.items():
            inst = network.vswitches[sw_name]._instances.get(alias)
            if inst is None:
                continue  # instance torn down since the worker forked
            st = inst.stats
            st.packets_in += pin
            st.packets_processed += proc
            st.packets_dropped += drop
            st.bytes_processed += nbytes


# ----------------------------------------------------------------------
# Shared-nothing flow partition
# ----------------------------------------------------------------------
class FlowPartition:
    """An immutable class → hash-interval → shard map.

    Built by :func:`build_partition`; valid for exactly one rule epoch of
    the network (rule tables + vSwitches + class paths + failure overlay).
    """

    def __init__(
        self,
        epoch: int,
        nshards: int,
        n_components: int,
        class_shards: Dict[str, np.ndarray],
        instance_shards: Dict[str, int],
        has_hooks: bool,
    ) -> None:
        self.epoch = epoch
        self.nshards = nshards
        self.n_components = n_components
        #: class_id → shard of each of the class's hash intervals.
        self.class_shards = class_shards
        #: instance_id → shard, used to keep assignments sticky across
        #: rebuilds (a fault must not migrate an instance's window state
        #: to a different worker replica mid-run).
        self.instance_shards = instance_shards
        self.has_hooks = has_hooks


def _uf_find(parent: dict, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:  # path compression
        parent[x], x = root, parent[x]
    return root


def _uf_union(parent: dict, a, b) -> None:
    ra, rb = _uf_find(parent, a), _uf_find(parent, b)
    if ra != rb:
        parent[rb] = ra


def build_partition(
    network: DataPlaneNetwork,
    shards: int = 0,
    class_weights: Optional[Dict[str, float]] = None,
    sticky: Optional[Dict[str, int]] = None,
) -> FlowPartition:
    """Partition every registered class's hash domain into shards.

    The partitioning rule, in order:

    1. take each class's hash intervals from the network's resolution
       cache — within one interval all flows take the same walk;
    2. read the interval's VNF instance set off its walk plan (for
       scalar-fallback plans the set is over-approximated to every
       instance hosted along the path, which costs parallelism but never
       correctness);
    3. union-find intervals sharing any instance into connected
       components — the shared-nothing units;
    4. deal components onto ``shards`` shards, heaviest first (weight =
       interval width × class rate), least-loaded shard wins, with
       deterministic tie-breaks; ``sticky`` assignments (from a previous
       partition of the same network) pin a component to the shard that
       already holds its instances' window state.

    ``shards == 0`` (or fewer components than shards) clamps to the
    component count, so requesting more shards than the traffic supports
    degrades gracefully instead of creating idle workers.
    """
    started = perf_counter()
    class_ids = list(network.class_paths)
    weights = class_weights or {}
    sticky = sticky or {}

    parent: dict = {}  # union-find over ("u", unit_idx) and ("i", instance_id)
    units: List[tuple] = []  # (weight, instance_ids), classes in order
    has_hooks = False
    for class_id in class_ids:
        cp = network.class_intervals(class_id)
        rate = float(weights.get(class_id, 1.0))
        for g, (lo, hi) in enumerate(zip(cp.edges[:-1], cp.edges[1:])):
            plan = network.interval_plan(cp, g)
            if plan.fallback:
                # The plan cannot vouch for the interval (header-modifying
                # VNF upstream, downstream hook): assume it may touch any
                # instance hosted along the path.
                instances = [
                    inst
                    for sw_name in cp.path
                    if sw_name in network.vswitches
                    for inst in network.vswitches[sw_name].instances()
                ]
            else:
                instances = [
                    slot[0] for slots in plan.vsteps for slot in slots
                ]
            inst_ids = {inst.instance_id for inst in instances}
            if any(inst.downstream is not None for inst in instances):
                has_hooks = True
            ui = ("u", len(units))
            units.append((rate * (hi - lo), inst_ids))
            parent[ui] = ui
            for iid in inst_ids:
                ik = ("i", iid)
                if ik not in parent:
                    parent[ik] = ik
                _uf_union(parent, ui, ik)

    # Connected components, in first-unit order (deterministic).
    comp_of_unit: List[int] = []
    comp_index: Dict[tuple, int] = {}
    comp_weight: List[float] = []
    comp_instances: List[set] = []
    for ui in range(len(units)):
        root = _uf_find(parent, ("u", ui))
        ci = comp_index.get(root)
        if ci is None:
            ci = comp_index[root] = len(comp_weight)
            comp_weight.append(0.0)
            comp_instances.append(set())
        comp_of_unit.append(ci)
        comp_weight[ci] += units[ui][0]
        comp_instances[ci] |= units[ui][1]

    n_components = max(1, len(comp_weight))
    nshards = auto_shards(n_components, shards if shards else "auto")
    if has_hooks:
        # Downstream hooks observe per-packet order across the whole
        # network; only a single shard preserves it.
        nshards = 1

    # Heaviest component first; least-loaded shard wins; ties go to the
    # lowest shard index (fully deterministic).
    comp_shard = [0] * len(comp_weight)
    order = sorted(
        range(len(comp_weight)), key=lambda c: (-comp_weight[c], c)
    )
    loads = [0.0] * nshards
    deferred: List[int] = []
    for ci in order:
        pinned = {
            sticky[iid]
            for iid in comp_instances[ci]
            if iid in sticky and sticky[iid] < nshards
        }
        if pinned:
            # Components only ever split under faults, so members almost
            # always agree; a merge conflict picks the lowest shard.
            s = min(pinned)
            comp_shard[ci] = s
            loads[s] += comp_weight[ci]
        else:
            deferred.append(ci)
    heap = [(loads[s], s) for s in range(nshards)]
    heap.sort()
    for ci in deferred:
        load, s = heappop(heap)
        comp_shard[ci] = s
        heappush(heap, (load + comp_weight[ci], s))

    instance_shards: Dict[str, int] = {}
    for ci, insts in enumerate(comp_instances):
        for iid in insts:
            instance_shards[iid] = comp_shard[ci]

    class_shards: Dict[str, np.ndarray] = {}
    ui = 0
    for class_id in class_ids:
        width = len(network.class_intervals(class_id).cuts) + 1
        class_shards[class_id] = np.asarray(
            [comp_shard[ci] for ci in comp_of_unit[ui : ui + width]],
            dtype=np.int64,
        )
        ui += width

    part = FlowPartition(
        epoch=network.rule_epoch,
        nshards=nshards,
        n_components=n_components,
        class_shards=class_shards,
        instance_shards=instance_shards,
        has_hooks=has_hooks,
    )
    REGISTRY.record("dataplane.shard.partition", perf_counter() - started)
    return part


# ----------------------------------------------------------------------
# Columnar walker
# ----------------------------------------------------------------------
def _narrow_uint(count: int):
    """Narrowest dtype for ``count`` distinct keys: numpy's stable sort is an
    O(n) radix sort on 8/16-bit integers (above that, the wide sort)."""
    if count <= 1 << 8:
        return np.uint8
    return np.uint16 if count <= 1 << 16 else np.int64


def _merge_positions(group_pos: List[np.ndarray], parts: List[tuple]) -> np.ndarray:
    """Ascending positions of ``(group, occurrences)`` parts, merged."""
    pos_parts = [
        group_pos[g] if k == 1 else np.repeat(group_pos[g], k) for g, k in parts
    ]
    if len(pos_parts) == 1:
        return pos_parts[0]
    return np.sort(np.concatenate(pos_parts), kind="stable")


def _span(pos: np.ndarray, lo: int, hi: int, n: int) -> Tuple[int, int]:
    """Index range of ascending ``pos`` inside the column slice ``[lo, hi)``."""
    if lo == 0 and hi == n:
        return 0, len(pos)  # the whole column: no search
    return int(pos.searchsorted(lo)), int(pos.searchsorted(hi))


class _ColumnWalker:
    """Columnar execution of one shard's packet column on one network.

    Stateless apart from the per-instance penalty box (which only affects
    *how* a slice is processed, never its outcome).
    """

    def __init__(self, network: DataPlaneNetwork) -> None:
        self.net = network
        self._penalty: Dict[int, int] = {}  # id(instance) → remaining leaves
        self.bulk_packets = 0
        self.seq_packets = 0

    def group_keys(
        self, classes: Sequence[str], cls_idx: np.ndarray, hashes: np.ndarray
    ) -> Tuple[np.ndarray, List[tuple]]:
        """One integer ``(class, hash interval)`` key per packet.

        Returns ``(keys, table)`` with ``table[k]`` the ``(class plans,
        interval)`` pair behind key ``k`` — the key of the network's plan
        cache.  A key is its class's offset plus the interval index, found
        by the exact search of the hash in the class's own small cuts
        array; between adjacent TCAM hash-range boundaries every flow
        matches the same entry sequence, so there are classes × intervals
        keys, not one per distinct flow hash.
        """
        net = self.net
        counts = np.bincount(cls_idx, minlength=len(classes))
        base = np.zeros(len(classes), dtype=np.int64)
        table: List[tuple] = []
        cut_classes = []
        for ci in np.flatnonzero(counts).tolist():
            cp = net.class_intervals(classes[ci])
            base[ci] = len(table)
            table.extend((cp, g) for g in range(len(cp.cuts) + 1))
            if cp.cuts:
                cut_classes.append((ci, cp))
        dtype = _narrow_uint(len(table))
        keys = base.astype(dtype)[cls_idx]
        if cut_classes:
            order = np.argsort(
                cls_idx.astype(_narrow_uint(len(classes))), kind="stable"
            )
            ends = np.cumsum(counts)
            for ci, cp in cut_classes:
                cpos = order[ends[ci] - counts[ci] : ends[ci]]
                ivals = np.searchsorted(cp.cuts, hashes[cpos], side="right")
                keys[cpos] += ivals.astype(dtype)
        return keys, table

    def run(
        self,
        classes: Sequence[str],
        cls_idx: np.ndarray,
        hashes: np.ndarray,
        ts: np.ndarray,
        size_bytes: int,
        collect: bool,
        keys: np.ndarray,
        table: List[tuple],
    ) -> Optional[list]:
        """Walk one time-ordered column; exact ``inject_stream`` semantics.

        ``keys``/``table``: :meth:`group_keys` of this column or a superset.
        """
        net = self.net
        n = len(ts)
        if n == 0:
            return [] if collect else None

        # Columnar TCAM walk: one radix group-by on the key.  The stable
        # sort keeps time order inside a group; sizes give the boundaries.
        group_pos: List[np.ndarray] = []
        plans: List[_WalkPlan] = []
        fallback_parts = []
        order = np.argsort(keys, kind="stable")
        sizes = np.bincount(keys)
        ends = np.cumsum(sizes).tolist()
        for k in np.flatnonzero(sizes).tolist():
            plan = net.interval_plan(*table[k])
            pos = order[ends[k] - sizes[k] : ends[k]]  # ascending
            plans.append(plan)
            group_pos.append(pos)
            if plan.fallback:
                fallback_parts.append(pos)

        # Per-instance merged arrival columns (positions repeated per
        # occurrence in a plan, kept in global time order).
        inst_entries: Dict[int, list] = {}  # id → [slot, [(group, occ)...]]
        for g, plan in enumerate(plans):
            if plan.fallback:
                continue
            occ: Dict[int, list] = {}
            for slots in plan.vsteps:
                for slot in slots:
                    rec = occ.setdefault(id(slot[0]), [slot, 0])
                    rec[1] += 1
            for iid, (slot, k) in occ.items():
                entry = inst_entries.setdefault(iid, [slot, []])
                entry[1].append((g, k))
        inst_cols: List[list] = [  # [iid, slot, positions ndarray]
            [iid, slot, _merge_positions(group_pos, parts)]
            for iid, (slot, parts) in inst_entries.items()
        ]

        outcomes: Optional[list] = [None] * n if collect else None

        # One full-column no-drop check.  The common case — nothing can
        # drop, no fallback groups — bulk-applies the whole column in one
        # pass with no recursion at all.
        culprits = self._check_bulk(0, n, ts, inst_cols)
        if not culprits and not fallback_parts:
            self._bulk_apply(
                0, n, ts, plans, group_pos, inst_cols, size_bytes, outcomes
            )
            return outcomes

        # A fallback plan's packets run through the exact scalar walker,
        # which may touch state (header-modified re-steers, downstream
        # hooks) that no static instance column names — so a clean/dirty
        # split cannot be proven safe.  Hand the whole column to the
        # slice recursion, which serialises around fallback positions.
        if fallback_parts:
            fallback_pos = np.sort(np.concatenate(fallback_parts))
            self._process(
                0, n, ts, hashes, cls_idx, classes, plans, group_pos,
                fallback_pos, inst_cols, size_bytes, outcomes,
            )
            return outcomes

        # Contamination is local, not transitive.  A culprit (check-
        # failing or stopped) instance invalidates exactly the groups
        # whose plans VISIT it: a drop there changes what reaches every
        # later hop of the same plan, so those packets must be walked by
        # the exact scalar path.  A clean group has no drop-capable hop
        # at all — every one of its packets survives end to end — so
        # bulk application stays exact for it, even when it shares a
        # pass-through instance with a dirty group: a pass-through
        # instance admits unconditionally (its check held for the full
        # arrival superset, and admission is monotone under removing
        # arrivals), so walk order cannot change any decision.  The one
        # piece of shared state that does see both sides is such an
        # instance's sliding window, which ``_bulk_apply`` rebuilds as the
        # merge of the sequential survivors and the clean-side arrivals.
        dirty_iids = set(culprits)
        dirty_groups: set = set()
        for g, plan in enumerate(plans):
            for slots in plan.vsteps:
                if any(id(slot[0]) in dirty_iids for slot in slots):
                    dirty_groups.add(g)
                    break

        # Dirty side first: the scalar walk decides the survivors whose
        # timestamps the mixed-window merge below consumes.
        dlist = sorted(dirty_groups)
        dpos = np.sort(np.concatenate([group_pos[g] for g in dlist]))
        m = len(dpos)
        sub_out: Optional[list] = [None] * m if collect else None
        self._sequential(
            0, m, ts[dpos], hashes[dpos], cls_idx[dpos], classes,
            size_bytes, sub_out, (),
        )
        if collect:
            for i, p in enumerate(dpos.tolist()):
                outcomes[p] = sub_out[i]

        clean_plans = []
        clean_group_pos = []
        for g, plan in enumerate(plans):
            if g not in dirty_groups:
                clean_plans.append(plan)
                clean_group_pos.append(group_pos[g])
        if not clean_plans:
            return outcomes
        clean_cols: List[list] = []
        for iid, (slot, parts) in inst_entries.items():
            cparts = [(g, k) for g, k in parts if g not in dirty_groups]
            if cparts and iid not in dirty_iids:
                clean_cols.append(
                    [iid, slot, _merge_positions(group_pos, cparts)]
                )
        self._bulk_apply(
            0, n, ts, clean_plans, clean_group_pos, clean_cols,
            size_bytes, outcomes,
        )
        return outcomes

    # -- slice recursion ----------------------------------------------
    def _process(
        self, lo, hi, ts, hashes, cls_idx, classes, plans, group_pos,
        fallback_pos, inst_cols, size, outcomes,
    ) -> None:
        n = hi - lo
        if n <= 0:
            return
        penalty = self._penalty
        total = len(ts)
        involved = []
        if penalty:
            for iid, slot, pos in inst_cols:
                if penalty.get(iid, 0) > 0:
                    a, b = _span(pos, lo, hi, total)
                    if b > a:
                        involved.append(iid)
        a, b = _span(fallback_pos, lo, hi, total)
        if b > a or involved:
            # Bulk application is impossible (fallback) or very unlikely
            # (an instance recently failed its check): skip the vector
            # checks and either run the slice exactly or keep splitting
            # to salvage bulk work in the clean half.
            leaf = SEQ_BYPASS
        else:
            involved = self._check_bulk(lo, hi, ts, inst_cols)
            if not involved:
                self._bulk_apply(
                    lo, hi, ts, plans, group_pos, inst_cols, size, outcomes
                )
                return
            for iid in involved:
                penalty[iid] = PENALTY
            leaf = MIN_LEAF
        if n <= leaf:
            self._sequential(
                lo, hi, ts, hashes, cls_idx, classes, size, outcomes, involved
            )
            return
        mid = lo + n // 2
        for start, stop in ((lo, mid), (mid, hi)):
            self._process(
                start, stop, ts, hashes, cls_idx, classes, plans, group_pos,
                fallback_pos, inst_cols, size, outcomes,
            )

    def _check_bulk(self, lo, hi, ts, inst_cols) -> List[int]:
        """Vectorised no-drop check; returns instances that could drop.

        The scalar walker refuses an arrival at ``t`` iff, after trimming
        entries ``<= t - w``, the window already holds ``B = floor(budget)``
        timestamps (``len + 1 > budget``).  With every earlier slice
        arrival admitted the window's history is the sorted column
        ``hist = recent[-B:] ++ sub``, so arrival ``j`` — at ``hist[k + j]``,
        ``k`` pre-slice entries kept — is refused iff its ``B``-th
        predecessor is still live: ``hist[k + j - B] > sub[j] - w``, one
        shifted comparison over the column.  The floats and the strict
        edge are the trim's own, stale (lazily untrimmed) ``recent``
        entries fail the comparison like trimmed ones, and an arrival with
        fewer than ``B`` predecessors admits trivially.  If no arrival is
        refused the whole slice admits (so bulk application is exact); a
        refusal, ``B <= 0`` or a stopped instance marks a culprit.
        """
        culprits: List[int] = []
        n = len(ts)
        for iid, slot, pos in inst_cols:
            a, b = _span(pos, lo, hi, n)
            if b <= a:
                continue
            inst, recent, window = slot
            budget = int(inst._budget)
            if not inst.running or budget <= 0:
                culprits.append(iid)
                continue
            sub = ts[pos[a:b]]
            hist = np.concatenate((recent[-budget:], sub))
            refusable = len(hist) - budget  # arrivals with B predecessors
            if refusable > 0 and np.any(
                hist[:refusable] > sub[b - a - refusable :] - window
            ):
                culprits.append(iid)
        return culprits

    def _bulk_apply(
        self, lo, hi, ts, plans, group_pos, inst_cols, size, outcomes
    ) -> None:
        net = self.net
        dirty = net._dirty_plans
        n = len(ts)
        applied = 0
        for g, pos in enumerate(group_pos):
            a, b = _span(pos, lo, hi, n)
            cnt = b - a
            if not cnt:
                continue
            plan = plans[g]
            if plan.n == 0:
                dirty.append(plan)
            plan.n += cnt
            applied += cnt
            if outcomes is not None:
                final = plan.final_outcome
                for p in pos[a:b].tolist():
                    outcomes[p] = final
        self.bulk_packets += applied
        for iid, slot, pos in inst_cols:
            a, b = _span(pos, lo, hi, n)
            m = b - a
            if not m:
                continue
            inst, recent, window = slot
            st = inst.stats
            st.packets_in += m
            st.packets_processed += m
            st.bytes_processed += size * m
            # The scalar walker trims lazily per packet; after the last
            # admission the window holds exactly the admitted timestamps
            # in (last_t - w, last_t], which is what we rebuild here.  A
            # slice that passed the check leaves at most floor(budget) of
            # its own arrivals live, so only that tail is read.  ``recent``
            # precedes it, except after a contamination split, when it
            # also holds the survivors of the scalar walk of the dirty
            # groups: the sort merges the two sides.
            tail = ts[pos[max(a, b - int(inst._budget)) : b]].tolist()
            live = sorted(recent + tail)
            recent[:] = live[bisect_right(live, live[-1] - window) :]

    def _sequential(
        self, lo, hi, ts, hashes, cls_idx, classes, size, outcomes, involved
    ) -> None:
        """Run one slice through the exact per-packet walker."""
        items = [
            (
                classes[int(cls_idx[p])],
                float(hashes[p]),
                float(ts[p]),
            )
            for p in range(lo, hi)
        ]
        out = self.net.inject_stream(
            items, size_bytes=size, collect=outcomes is not None
        )
        self.seq_packets += len(items)
        if outcomes is not None:
            outcomes[lo:hi] = out
        penalty = self._penalty
        for iid in involved:
            left = penalty.get(iid, 0)
            if left > 1:
                penalty[iid] = left - 1
            else:
                penalty.pop(iid, None)


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def _reset_network(network: DataPlaneNetwork) -> None:
    """Broadcastable runtime reset (see ShardedDataPlane.apply)."""
    network.reset_runtime_state()


def _worker_main(network: DataPlaneNetwork, conn) -> None:
    """Shard worker loop: runs forked, owning a replica of ``network``."""
    from multiprocessing import shared_memory

    walker = _ColumnWalker(network)
    base = CounterDelta.capture(network)
    while True:
        msg = conn.recv()
        kind = msg[0]
        if kind == "column":
            _kind, shm_name, total, lo, hi, classes, size, collect = msg
            shm = shared_memory.SharedMemory(name=shm_name)
            try:
                ts_all = np.ndarray(total, dtype=np.float64, buffer=shm.buf)
                h_all = np.ndarray(
                    total, dtype=np.float64, buffer=shm.buf, offset=8 * total
                )
                c_all = np.ndarray(
                    total, dtype=np.int64, buffer=shm.buf, offset=16 * total
                )
                ts = np.array(ts_all[lo:hi])
                hashes = np.array(h_all[lo:hi])
                cls_idx = np.array(c_all[lo:hi])
            finally:
                shm.close()
                # Python 3.11 registers attached (not just created) segments
                # with the resource tracker; the parent owns the unlink, so
                # drop the worker-side registration to avoid bogus leak
                # warnings at worker exit.
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(shm._name, "shared_memory")
                except Exception:
                    pass
            out = walker.run(
                classes, cls_idx, hashes, ts, size, collect,
                *walker.group_keys(classes, cls_idx, hashes),
            )
            network.flush_counters()
            cur = CounterDelta.capture(network)
            delta = cur.subtract(base)
            base = cur
            conn.send(
                (out, delta, walker.bulk_packets, walker.seq_packets)
            )
            walker.bulk_packets = walker.seq_packets = 0
        elif kind == "apply":
            fn, args, kwargs = msg[1], msg[2], msg[3]
            fn(network, *args, **kwargs)
            walker = _ColumnWalker(network)  # penalties may be stale
            base = CounterDelta.capture(network)
            conn.send("ok")
        elif kind == "stop":
            conn.send("bye")
            return


class ShardedDataPlane:
    """Shard-parallel façade over one deployed :class:`DataPlaneNetwork`.

    Args:
        network: the deployed network (rules installed, instances up).
        shards: requested shard count, or 0/"auto" to derive it from the
            core count and the partition's component count.
        processes: ``"auto"`` forks one worker per shard when the host
            has multiple cores (and forking is possible); ``True`` forces
            workers, ``False`` keeps everything in-process.  In-process
            execution runs the shard columns sequentially on the parent
            network — identical results, no parallel speedup.
        class_weights: optional class → rate map used to balance shard
            loads (defaults to uniform).

    The façade preserves the repo's bit-identity discipline: for the same
    item stream, outcomes and every counter equal the scalar and batched
    walkers', regardless of shard count or execution mode.  Faults follow
    the normal invalidation protocol — any rule/overlay mutation retires
    the partition on the next inject; with worker processes, mutations
    must go through :meth:`apply` so every replica sees them.
    """

    def __init__(
        self,
        network: DataPlaneNetwork,
        shards=0,
        processes="auto",
        class_weights: Optional[Dict[str, float]] = None,
    ) -> None:
        if isinstance(shards, str):
            shards = 0 if shards == "auto" else int(shards)
        if shards < 0:
            raise ValueError(f"shards must be >= 0, got {shards}")
        self.network = network
        self.requested_shards = int(shards)
        self.processes = processes
        self.class_weights = class_weights
        self._partition: Optional[FlowPartition] = None
        self._walker = _ColumnWalker(network)
        self._workers: List = []  # (process, parent_conn) pairs
        self._worker_shards = 0

    # -- partition lifecycle ------------------------------------------
    def _ensure_partition(self) -> FlowPartition:
        part = self._partition
        if part is not None and part.epoch == self.network.rule_epoch:
            return part
        sticky = part.instance_shards if part is not None else None
        part = build_partition(
            self.network,
            shards=self.requested_shards,
            class_weights=self.class_weights,
            sticky=sticky,
        )
        self._partition = part
        self._walker = _ColumnWalker(self.network)  # penalties may be stale
        if _obs.REGISTRY.enabled:
            _obs.metric("dataplane_shard_components").set(part.n_components)
        return part

    @property
    def nshards(self) -> int:
        return self._ensure_partition().nshards

    def _use_processes(self, part: FlowPartition) -> bool:
        if part.nshards <= 1 or self.processes is False:
            return False
        if in_worker() or not fork_available():
            return False
        if self.processes == "auto" and cpu_count() < 2:
            return False
        return True

    # -- injection -----------------------------------------------------
    def inject_stream(
        self,
        items: Sequence[tuple],
        size_bytes: int = 1500,
        collect: bool = False,
    ) -> Optional[List[Tuple[bool, Optional[str]]]]:
        """Drop-in sharded counterpart of ``DataPlaneNetwork.inject_stream``."""
        classes: List[str] = []
        index: Dict[str, int] = {}
        n = len(items)
        cls_idx = np.empty(n, dtype=np.int64)
        hashes = np.empty(n, dtype=np.float64)
        ts = np.empty(n, dtype=np.float64)
        for i, (cid, h, t) in enumerate(items):
            ci = index.get(cid)
            if ci is None:
                ci = index[cid] = len(classes)
                classes.append(cid)
            cls_idx[i] = ci
            hashes[i] = h
            ts[i] = t
        return self.inject_columns(
            classes, cls_idx, hashes, ts, size_bytes=size_bytes, collect=collect
        )

    def inject_columns(
        self,
        classes: Sequence[str],
        cls_idx: np.ndarray,
        hashes: np.ndarray,
        ts: np.ndarray,
        size_bytes: int = 1500,
        collect: bool = False,
    ) -> Optional[List[Tuple[bool, Optional[str]]]]:
        """Walk a time-ordered column of packets, sharded.

        ``classes`` lists the distinct class ids; ``cls_idx`` indexes into
        it per packet; ``hashes``/``ts`` are float64 columns.  Timestamps
        must be non-decreasing (as in every walker).  Returns per-packet
        ``(delivered, dropped_at)`` outcomes when ``collect``.

        Raises:
            ValueError: the columns differ in length, a ``cls_idx`` entry
                is outside ``classes``, or ``ts`` decreases somewhere.
        """
        started = perf_counter()
        classes = list(classes)
        n = len(ts)
        if not len(cls_idx) == len(hashes) == n:
            raise ValueError(
                f"column lengths differ: cls_idx {len(cls_idx)}, "
                f"hashes {len(hashes)}, ts {n}"
            )
        part = self._ensure_partition()
        if n == 0:
            return [] if collect else None
        if cls_idx.min() < 0 or cls_idx.max() >= len(classes):
            raise ValueError(
                f"cls_idx must index the {len(classes)} classes given, got "
                f"values in [{cls_idx.min()}, {cls_idx.max()}]"
            )
        if np.any(ts[1:] < ts[:-1]):
            raise ValueError("ts must be non-decreasing")
        walker = self._walker
        keys, table = walker.group_keys(classes, cls_idx, hashes)
        if part.nshards == 1:
            out = walker.run(
                classes, cls_idx, hashes, ts, size_bytes, collect, keys, table
            )
            self._finish_span(started, part, n)
            return out
        # group → shard, narrow so the per-shard split sorts by radix too
        shard_of_key = np.fromiter(
            (part.class_shards[cp.class_id][g] for cp, g in table),
            dtype=_narrow_uint(part.nshards),
            count=len(table),
        )
        shard_ids = shard_of_key[keys]
        if self._use_processes(part):
            out = self._run_processes(
                part, classes, cls_idx, hashes, ts, shard_ids,
                size_bytes, collect,
            )
        else:
            out = [None] * n if collect else None
            for s in range(part.nshards):
                sel = np.flatnonzero(shard_ids == s)
                if not len(sel):
                    continue
                res = walker.run(
                    classes, cls_idx[sel], hashes[sel], ts[sel],
                    size_bytes, collect, keys[sel], table,
                )
                if collect:
                    for i, p in enumerate(sel.tolist()):
                        out[p] = res[i]
        self._finish_span(started, part, n)
        return out

    def _finish_span(self, started: float, part: FlowPartition, n: int) -> None:
        REGISTRY.record("dataplane.walk.sharded", perf_counter() - started)
        if _obs.REGISTRY.enabled:
            _obs.metric("dataplane_shard_count").set(part.nshards)
            w = self._walker
            if w.bulk_packets:
                _obs.metric("dataplane_shard_bulk_packets_total").inc(
                    w.bulk_packets
                )
            if w.seq_packets:
                _obs.metric("dataplane_shard_sequential_packets_total").inc(
                    w.seq_packets
                )
            w.bulk_packets = w.seq_packets = 0

    # -- process mode --------------------------------------------------
    def _ensure_workers(self, nshards: int) -> None:
        if self._workers and self._worker_shards == nshards:
            return
        self.close()
        ctx = mp_context()
        for _s in range(nshards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(self.network, child_conn),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers.append((proc, parent_conn))
        self._worker_shards = nshards

    def _run_processes(
        self, part, classes, cls_idx, hashes, ts, shard_ids, size, collect
    ):
        from multiprocessing import shared_memory

        self._ensure_workers(part.nshards)
        n = len(ts)
        perm = np.argsort(shard_ids, kind="stable")
        counts = np.bincount(shard_ids, minlength=part.nshards)
        offsets = np.zeros(part.nshards + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        shm = shared_memory.SharedMemory(create=True, size=max(1, 24 * n))
        try:
            ts_v = np.ndarray(n, dtype=np.float64, buffer=shm.buf)
            h_v = np.ndarray(n, dtype=np.float64, buffer=shm.buf, offset=8 * n)
            c_v = np.ndarray(n, dtype=np.int64, buffer=shm.buf, offset=16 * n)
            ts_v[:] = ts[perm]
            h_v[:] = hashes[perm]
            c_v[:] = cls_idx[perm]
            busy = []
            for s, (proc, conn) in enumerate(self._workers):
                lo, hi = int(offsets[s]), int(offsets[s + 1])
                if hi <= lo:
                    continue
                conn.send(
                    ("column", shm.name, n, lo, hi, classes, size, collect)
                )
                busy.append((s, conn, lo, hi))
            out = [None] * n if collect else None
            merge_started = perf_counter()
            bulk = seq = 0
            for s, conn, lo, hi in busy:
                res, delta, b, q = conn.recv()
                delta.apply_to(self.network)
                bulk += b
                seq += q
                if collect and res is not None:
                    for i, p in enumerate(perm[lo:hi].tolist()):
                        out[p] = res[i]
            REGISTRY.record(
                "dataplane.shard.merge", perf_counter() - merge_started
            )
            if _obs.REGISTRY.enabled:
                _obs.metric("dataplane_shard_merge_seconds").observe(
                    perf_counter() - merge_started
                )
            self._walker.bulk_packets += bulk
            self._walker.seq_packets += seq
        finally:
            shm.close()
            shm.unlink()
        return out

    def apply(self, fn, *args, **kwargs) -> None:
        """Apply a mutation to the parent network *and* every worker replica.

        ``fn`` must be a picklable module-level callable taking the
        network as its first argument (e.g. a chaos fault).  Without
        workers this is just ``fn(self.network, ...)``; with workers it is
        the broadcast that keeps replicas converged — a mutation applied
        to the parent alone would be invisible to forked shards.
        """
        pickle.dumps(fn)  # fail fast on closures before touching workers
        fn(self.network, *args, **kwargs)
        for _proc, conn in self._workers:
            conn.send(("apply", fn, args, kwargs))
        for _proc, conn in self._workers:
            conn.recv()

    def reset_runtime_state(self) -> None:
        """Reset runtime counters everywhere (parent + worker replicas)."""
        self.apply(_reset_network)

    def flush_counters(self) -> None:
        self.network.flush_counters()

    def stats_snapshot(self):
        return self.network.stats_snapshot()

    def close(self) -> None:
        """Stop worker processes (no-op without workers)."""
        for proc, conn in self._workers:
            try:
                conn.send(("stop",))
                conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            conn.close()
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        self._workers = []
        self._worker_shards = 0

    def __enter__(self) -> "ShardedDataPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
