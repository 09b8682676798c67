"""Columnar data plane: whole packet columns walked in numpy, in-process.

The batched walker (:meth:`DataPlaneNetwork.inject_stream`) already
amortises rule lookups per hash interval but still executes per packet.
This module adds the next structural step, in two layers:

**Columnar walk** (:class:`_ColumnWalker`).  Every per-packet pass over
the column of ``(class_idx, hash, timestamp)`` arrays is O(n).  Each packet
gets one integer ``(class, interval)`` key — class offset plus interval
index, the index from the exact search of the hash in its class's own small
cuts array — and one radix sort on that narrow key groups the column: the
columnar TCAM walk, each distinct group taking its per-hop TCAM hits from
the plan cache (:meth:`DataPlaneNetwork.class_intervals`, whose
:class:`_WalkPlan` names the group's exact VNF instance set).  The walker
then tries to apply whole time-slices in bulk: for
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

**Façade** (:class:`ShardedDataPlane`).  Validates a column at entry,
walks it once on the network it was given and records the span.  There is
one execution mode.  Splitting a column over shared-nothing shards — in
one process or over forked workers — was measured on the one placement we
have that splits at all and lost to the unsplit walk both ways (DESIGN.md,
"Columnar data plane"), so the partition and the worker fan-out are gone.
The façade remembers one ``rule_epoch``: when a chaos invalidation, a link
failure or a rule mutation moves it, the walker — and with it the penalty
box, keyed by ``id(instance)`` — is renewed before the next column.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataplane.network import DataPlaneNetwork, _WalkPlan
from repro.obs import state as _obs

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
    """Columnar execution of one packet column on one network.

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

        ``keys``/``table``: :meth:`group_keys` of this column.
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
# Façade
# ----------------------------------------------------------------------
def _column(name: str, values, dtype=None) -> np.ndarray:
    """``values`` as a 1-D array (a view when it already is one)."""
    col = np.asarray(values, dtype=dtype)
    if col.ndim != 1:
        raise ValueError(f"{name} must be a 1-D column, got shape {col.shape}")
    return col


class ShardedDataPlane:
    """Columnar façade over one deployed :class:`DataPlaneNetwork`.

    Args:
        network: the deployed network (rules installed, instances up).
        shards, processes, class_weights: accepted and ignored — every
            value they ever took produced the same outcomes and counters.
            ROADMAP item 1 (benchmark v2) drops them from
            ``benchmarks/pipeline``'s call, then from this signature.

    The façade preserves the repo's bit-identity discipline: for the same
    item stream, outcomes and every counter equal the scalar and batched
    walkers'.  Faults follow the normal invalidation protocol — mutate
    ``network`` itself; a moved rule epoch renews the walker on the next
    inject.
    """

    #: Constant; ROADMAP item 1 drops ``benchmarks/pipeline``'s read, then this.
    nshards = 1

    def __init__(
        self, network: DataPlaneNetwork, shards=1, processes=False, class_weights=None
    ) -> None:
        self.network = network
        self._epoch = network.rule_epoch
        self._walker = _ColumnWalker(network)

    # -- injection -----------------------------------------------------
    def inject_stream(
        self,
        items: Sequence[tuple],
        size_bytes: int = 1500,
        collect: bool = False,
    ) -> Optional[List[Tuple[bool, Optional[str]]]]:
        """Drop-in columnar counterpart of ``DataPlaneNetwork.inject_stream``."""
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
        """Walk a time-ordered column of packets.

        ``classes`` lists the distinct class ids; ``cls_idx`` indexes into
        it per packet; ``hashes``/``ts`` are float64 columns (arrays or
        plain sequences).  Timestamps must be non-decreasing (as in every
        walker).  Returns per-packet ``(delivered, dropped_at)`` outcomes
        when ``collect``.

        Raises:
            ValueError: a column is not 1-D, ``cls_idx`` is not of an
                integer dtype, the columns differ in length, a ``cls_idx``
                entry is outside ``classes``, a hash is outside ``[0, 1)``
                (or NaN), or ``ts`` decreases somewhere.  Nothing has been
                walked or counted when it is raised.
        """
        classes = list(classes)
        cls_idx = _column("cls_idx", cls_idx)
        hashes = _column("hashes", hashes, np.float64)
        ts = _column("ts", ts, np.float64)
        n = len(ts)
        if not len(cls_idx) == len(hashes) == n:
            raise ValueError(
                f"column lengths differ: cls_idx {len(cls_idx)}, "
                f"hashes {len(hashes)}, ts {n}"
            )
        if self._epoch != self.network.rule_epoch:
            self._epoch = self.network.rule_epoch
            self._walker = _ColumnWalker(self.network)  # penalties may be stale
        if n == 0:  # before the dtype check: an empty list coerces to float64
            return [] if collect else None
        if cls_idx.dtype.kind not in "iu":
            raise ValueError(
                f"cls_idx must be an integer column, got dtype {cls_idx.dtype}"
            )
        if cls_idx.min() < 0 or cls_idx.max() >= len(classes):
            raise ValueError(
                f"cls_idx must index the {len(classes)} classes given, got "
                f"values in [{cls_idx.min()}, {cls_idx.max()}]"
            )
        cls_idx = cls_idx.astype(np.intp, copy=False)  # bincount refuses uint64
        # Two reductions, not a mask; NaN fails both comparisons.
        if not (hashes.min() >= 0.0 and hashes.max() < 1.0):
            raise ValueError(
                f"flow_hash must be in [0, 1), got values in "
                f"[{hashes.min()}, {hashes.max()}]"
            )
        if np.any(ts[1:] < ts[:-1]):
            raise ValueError("ts must be non-decreasing")
        walker = self._walker
        with _obs.span("dataplane.walk.sharded", cat="dataplane"):
            out = walker.run(
                classes, cls_idx, hashes, ts, size_bytes, collect,
                *walker.group_keys(classes, cls_idx, hashes),
            )
        if _obs.REGISTRY.enabled:
            if walker.bulk_packets:
                _obs.metric("dataplane_shard_bulk_packets_total").inc(
                    walker.bulk_packets
                )
            if walker.seq_packets:
                _obs.metric("dataplane_shard_sequential_packets_total").inc(
                    walker.seq_packets
                )
            walker.bulk_packets = walker.seq_packets = 0
        return out

    # ``with`` / ``close`` held resources while there were workers; kept
    # (as no-ops) for ``benchmarks/pipeline`` until ROADMAP item 1.
    def close(self) -> None:
        pass

    def __enter__(self) -> "ShardedDataPlane":
        return self

    def __exit__(self, *exc) -> None:
        pass
