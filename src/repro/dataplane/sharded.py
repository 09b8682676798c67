"""Columnar data plane: whole packet columns walked in numpy, in-process.

The one way to walk many packets (:meth:`DataPlaneNetwork.inject` walks
one).  Rule lookups are amortised per hash interval by the network's plan
cache; this module executes a column against those plans, in two layers:

**Columnar walk** (:class:`_ColumnWalker`).  Every per-packet pass over
the column of ``(class_idx, hash, timestamp)`` arrays is O(n).  One radix
sort on the narrow class column gives every class a contiguous segment, and
a class whose hash space is cut regroups its own segment by interval — the
index from the exact search of its hashes in its own small cuts array — so
the packets of each ``(class, interval)`` group sit side by side in time
order: the columnar TCAM walk, each distinct group taking its per-hop TCAM
hits from the plan cache (:meth:`DataPlaneNetwork.class_intervals`, whose
:class:`_WalkPlan` names the group's exact VNF instance set).  One gather
of the timestamps through that order leaves each group an ascending
*timestamp run*; no later stage gathers again, and packet *positions* are
kept only for callers that address packets (``collect=True`` and the dirty
side of a contamination split).  Admission is first *certified*: if the
window peaks of an instance's runs (times its visits per packet) plus its
live ``recent`` entries fit ``floor(budget)``, nothing can be refused.
Only an instance the bound cannot clear gets an arrival column, the stable
merge of its runs, and the exact no-drop check (one shifted comparison: an
arrival is refused iff its ``floor(budget)``-th predecessor is still inside
the window).  If every instance admits everything, counters are bulk-added
and windows rebuilt from run tails — numpy instead of the per-packet loop.
If some instance could drop, exactly the groups whose plans visit it run
through the exact per-packet loop (:meth:`_ColumnWalker._walk_exact`, the
walker's private fallback) and every other group is still applied in bulk
(the *contamination split*).  Every plan can be applied in bulk: a
walk is fixed at the ingress switch, and admission is the only per-packet
effect an instance has.

**Façade** (:class:`ShardedDataPlane`).  Validates a column at entry,
walks it once on the network it was given and records the span.  There is
one execution mode.  Splitting a column over shared-nothing shards — in
one process or over forked workers — was measured on the one placement we
have that splits at all and lost to the unsplit walk both ways (DESIGN.md,
"Columnar data plane"), so the partition and the worker fan-out are gone.
The walker carries nothing from one column to the next but two counters,
so a chaos invalidation, a link failure or a rule mutation needs nothing
here: the next column reads the network's plan cache, which follows the
rule epoch.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataplane.network import DataPlaneNetwork, _admit, _WalkPlan
from repro.obs import state as _obs


# ----------------------------------------------------------------------
# Columnar walker
# ----------------------------------------------------------------------
def _narrow_uint(count: int):
    """Narrowest dtype for ``count`` distinct keys: numpy's stable sort is an
    O(n) radix sort on 8/16-bit integers (above that, the wide sort)."""
    if count <= 1 << 8:
        return np.uint8
    return np.uint16 if count <= 1 << 16 else np.int64


def _merge_runs(runs: List[np.ndarray], parts: List[tuple], int_view: bool) -> np.ndarray:
    """Stable merge of the ascending runs named by ``(group, occurrences)`` parts.

    The concatenation is a handful of ascending runs, which the stable sort
    (a timsort above 16 bits) finds and merges without re-sorting inside
    them.  ``int_view`` sorts float64 runs through their int64 view — the
    same order for non-negative floats, on cheaper comparisons.
    """
    cols = [runs[g] if k == 1 else np.repeat(runs[g], k) for g, k in parts]
    if len(cols) == 1:
        return cols[0]
    col = np.concatenate(cols)
    (col.view(np.int64) if int_view else col).sort(kind="stable")
    return col


def _run_peak(run: np.ndarray, window: float) -> int:
    """A bound ``c`` on the arrivals of the ascending ``run`` in any
    ``(t - window, t]``: ``(run[:-c] <= run[c:] - window).all()`` proves it
    in the scalar trim's own arithmetic, so rounding cannot make it unsound.
    The search starts at the run's mean rate and steps up by 1, 2, 4, …."""
    n = len(run)
    span = float(run[-1] - run[0])
    c = max(1, math.ceil(n * window / span)) if window < span else n
    step = 1
    while c < n and not (run[:-c] <= run[c:] - window).all():
        c, step = c + step, 2 * step
    return min(c, n)


class _ColumnWalker:
    """Columnar execution of one packet column on one network.

    One radix sort by class, cut classes regrouped by interval inside their
    own segment, puts every ``(class, interval)`` group's packets side by
    side in time order (:meth:`_group`); one gather of ``ts`` through that
    order turns the groups into ascending *timestamp runs*.  :meth:`_certify`
    clears instances from their runs' window peaks, :meth:`_check_bulk`
    decides the rest on merged runs and :meth:`_bulk_apply` rebuilds windows
    from run tails; none gathers.  Positions exist only where a caller
    addresses packets: per group for ``collect=True`` and for the dirty side
    of a contamination split.

    Stateless apart from the ``bulk_packets`` / ``seq_packets`` counters.
    """

    def __init__(self, network: DataPlaneNetwork) -> None:
        self.net = network
        self.bulk_packets = 0
        self.seq_packets = 0

    def _group(
        self, classes: Sequence[str], cls_idx: np.ndarray, hashes: np.ndarray
    ) -> Tuple[np.ndarray, List[_WalkPlan], List[Tuple[int, int]]]:
        """The column grouped by ``(class, hash interval)``.

        Returns ``(order, plans, bounds)``: ``order[a:b]`` for ``(a, b) =
        bounds[g]`` are the ascending positions of group ``g``'s packets and
        ``plans[g]`` its plan from the network's cache.  Groups come in
        class order, intervals ascending inside a class, empty ones left
        out; only classes with packets are looked up.  A stable sort on the
        class column hands each class one contiguous segment; an uncut
        class is one group, a cut class regroups its own segment by the
        exact search of its hashes in its own small cuts array — between
        adjacent TCAM hash-range boundaries every flow matches the same
        entry sequence, so there are classes × intervals groups, not one
        per distinct flow hash.
        """
        net = self.net
        order = np.argsort(cls_idx.astype(_narrow_uint(len(classes))), kind="stable")
        plans: List[_WalkPlan] = []
        bounds: List[Tuple[int, int]] = []
        end = 0
        for ci, count in enumerate(np.bincount(cls_idx).tolist()):
            if not count:
                continue
            cp = net.class_intervals(classes[ci])
            start, end = end, end + count
            if not cp.cuts:
                plans.append(net.interval_plan(cp, 0))
                bounds.append((start, end))
                continue
            seg = order[start:end]
            ivals = np.searchsorted(cp.cuts, hashes[seg], side="right").astype(
                _narrow_uint(len(cp.cuts) + 1)
            )
            order[start:end] = seg[np.argsort(ivals, kind="stable")]
            for g, size in enumerate(np.bincount(ivals).tolist()):
                if size:
                    plans.append(net.interval_plan(cp, g))
                    bounds.append((start, start + size))
                    start += size
        return order, plans, bounds

    def run(
        self,
        classes: Sequence[str],
        cls_idx: np.ndarray,
        hashes: np.ndarray,
        ts: np.ndarray,
        size_bytes: int,
        collect: bool,
    ) -> Optional[list]:
        """Walk one time-ordered column; exact scalar ``inject`` semantics."""
        n = len(ts)
        if n == 0:
            return [] if collect else None

        # Columnar TCAM walk: one group-by, then one gather that leaves
        # every group an ascending run of timestamps.
        order, plans, bounds = self._group(classes, cls_idx, hashes)
        by_group = ts[order]
        runs = [by_group[a:b] for a, b in bounds]
        # Positions per group (views of the sort order) only for callers
        # that address packets; otherwise the order, an n-sized column, is
        # released before the merges below reach their peak.
        if collect:
            group_pos = [order[a:b] for a, b in bounds]
        else:
            group_pos = [None] * len(plans)
        del order

        # Each instance's parts: (group, visits per packet) per visiting plan.
        inst_entries: Dict[int, tuple] = {}  # id → (id, slot, [(group, occ)...])
        for g, plan in enumerate(plans):
            occ: Dict[int, list] = {}
            for _, _, slot in plan.vsteps:
                rec = occ.setdefault(id(slot[0]), [slot, 0])
                rec[1] += 1
            for iid, (slot, k) in occ.items():
                inst_entries.setdefault(iid, (iid, slot, []))[2].append((g, k))
        entries = list(inst_entries.values())
        groups = list(zip(plans, runs, group_pos))
        outcomes: Optional[list] = [None] * n if collect else None

        # Only instances the run-peak bound cannot clear get a merged
        # arrival column and the exact check.  From zero up a float64 orders
        # as its int64 view does (a -0.0 ahead of the +0.0s it equals); a
        # column that starts below merges as floats.
        int_view = bool(ts[0] >= 0)
        culprits = self._check_bulk([
            (iid, slot, _merge_runs(runs, parts, int_view))
            for iid, slot, parts in self._certify(entries, runs)
        ])
        # The common case — nothing can drop — bulk-applies the whole
        # column in one pass with no positions at all.
        if not culprits:
            self._bulk_apply(groups, runs, entries, size_bytes, outcomes)
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
        # instance's sliding window, which ``_bulk_apply`` rebuilds from
        # the sequential survivors and the clean-side arrivals.
        dirty_iids = set(culprits)
        dirty_groups: set = set()
        for g, plan in enumerate(plans):
            if any(id(slot[0]) in dirty_iids for _, _, slot in plan.vsteps):
                dirty_groups.add(g)

        # Dirty side first: the exact walk decides the survivors whose
        # timestamps the mixed-window rebuild below consumes.  Its packets
        # are addressed by position (regroup if the order was released) and
        # walked in arrival order, each with its group's plan.
        if not collect:
            order = self._group(classes, cls_idx, hashes)[0]
            group_pos = [order[a:b] for a, b in bounds]
        gs = sorted(dirty_groups)
        pos = np.concatenate([group_pos[g] for g in gs])
        which = np.repeat(gs, [len(group_pos[g]) for g in gs])
        arrival = np.argsort(pos)
        dpos = pos[arrival]
        dirty_out = self._walk_exact(
            [plans[g] for g in which[arrival].tolist()],
            ts[dpos].tolist(),
            size_bytes,
            collect,
        )
        if collect:
            for p, outcome in zip(dpos.tolist(), dirty_out):
                outcomes[p] = outcome

        clean = [grp for g, grp in enumerate(groups) if g not in dirty_groups]
        if not clean:
            return outcomes
        clean_entries = []
        for iid, slot, parts in entries:
            cparts = [(g, k) for g, k in parts if g not in dirty_groups]
            if cparts and iid not in dirty_iids:
                clean_entries.append((iid, slot, cparts))
        self._bulk_apply(clean, runs, clean_entries, size_bytes, outcomes)
        return outcomes

    def _walk_exact(
        self, plans: List[_WalkPlan], ts: List[float], size: int, collect: bool
    ) -> Optional[list]:
        """Walk packets one by one, in arrival order, each on its plan.

        The contamination split's dirty side: each packet takes the
        network's one admission step, :func:`_admit` (the same one scalar
        ``inject`` takes), whose counts wait on the plans for
        :meth:`DataPlaneNetwork.flush_counters`.  Returns per-packet
        ``(delivered, dropped_at)`` when ``collect``.
        """
        dirty = self.net._dirty_plans
        outcomes: Optional[list] = [] if collect else None
        for plan, t in zip(plans, ts):
            if not plan.n:
                dirty.append(plan)
            refused = _admit(plan, t, size)
            if collect:
                outcomes.append(
                    plan.final_outcome if refused is None
                    else plan.drop_ends[refused[0]][0]
                )
        self.seq_packets += len(ts)
        return outcomes

    def _certify(self, entries, runs) -> list:
        """The ``(iid, slot, parts)`` entries a run-peak bound cannot clear.

        With every earlier arrival admitted, an instance's window never holds
        more than ``sum(k * peak)`` of its runs' arrivals (``k`` visits per
        packet, the arrival itself included) plus the ``recent`` entries newer
        than its first arrival's ``t - w``.  If that fits ``floor(budget)``
        no arrival is refused, so :meth:`_check_bulk` would pass; stopped and
        zero-budget instances are never cleared.
        """
        peaks: Dict[tuple, int] = {}
        left = []
        for entry in entries:
            _, (inst, recent, window), parts = entry
            first = float(min(runs[g][0] for g, _ in parts))
            bound = len(recent) - bisect_right(recent, first - window)
            for g, k in parts:
                if (g, window) not in peaks:
                    peaks[g, window] = _run_peak(runs[g], window)
                bound += k * peaks[g, window]
            if not (inst.running and bound <= int(inst._budget)):  # bound >= 1
                left.append(entry)
        return left

    def _check_bulk(self, inst_cols) -> List[int]:
        """Exact no-drop check of what :meth:`_certify` left; returns culprits.

        The scalar walker refuses an arrival at ``t`` iff, after trimming
        entries ``<= t - w``, the window already holds ``B = floor(budget)``
        timestamps (``len + 1 > budget``).  With every earlier arrival of
        the column ``sub`` admitted the window's history is the sorted
        column ``recent[-B:] ++ sub``, so an arrival is refused iff its
        ``B``-th predecessor there is still live, ``predecessor > t - w``:
        one shifted comparison, run in two parts so the history is never
        built — arrivals from the ``B``-th on against ``sub`` itself, the
        first ``B`` against the tail of ``recent``.  The floats and the
        strict edge are the trim's own, stale (lazily untrimmed) ``recent``
        entries fail the comparison like trimmed ones, and an arrival with
        fewer than ``B`` predecessors admits trivially.  If no arrival is
        refused the whole column admits (so bulk application is exact); a
        refusal, ``B <= 0`` or a stopped instance marks a culprit.
        """
        culprits: List[int] = []
        for iid, slot, sub in inst_cols:
            inst, recent, window = slot
            budget = int(inst._budget)
            if not inst.running or budget <= 0:
                culprits.append(iid)
                continue
            m = len(sub)
            if m > budget and np.any(sub[: m - budget] > sub[budget:] - window):
                culprits.append(iid)
                continue
            # Arrival j < B has its B-th predecessor in ``recent`` once
            # j >= B - len(tail): tail[i] against sub[B - len(tail) + i].
            tail = recent[-budget:]
            first = budget - len(tail)
            if tail and first < m and np.any(
                np.asarray(tail[: m - first]) > sub[first:budget] - window
            ):
                culprits.append(iid)
        return culprits

    def _bulk_apply(self, groups, runs, entries, size, outcomes) -> None:
        """Count every packet of ``groups`` and every arrival of ``entries``
        as admitted, and rebuild each instance's window from run tails.

        After the last admission at ``T`` the scalar window holds the
        admitted timestamps in ``(T - w, T]``; with no refusal those are run
        tails of at most ``floor(budget)`` elements.  After a contamination
        split ``recent`` also holds the scalar survivors; the sort merges.
        """
        dirty = self.net._dirty_plans
        applied = 0
        for plan, run, pos in groups:
            cnt = len(run)
            if plan.n == 0:
                dirty.append(plan)
            plan.n += cnt
            applied += cnt
            if outcomes is not None:
                final = plan.final_outcome
                for p in pos.tolist():
                    outcomes[p] = final
        self.bulk_packets += applied
        for iid, slot, parts in entries:
            inst, recent, window = slot
            m = sum(k * len(runs[g]) for g, k in parts)
            st = inst.stats
            st.packets_in += m
            st.packets_processed += m
            st.bytes_processed += size * m
            cutoff = float(max([runs[g][-1] for g, _ in parts] + recent[-1:])) - window
            live = list(recent)
            for g, k in parts:
                live += runs[g][np.searchsorted(runs[g], cutoff, "right") :].tolist() * k
            live.sort()
            recent[:] = live[bisect_right(live, cutoff) :]


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
            ROADMAP item 11 (benchmark v2) drops them from
            ``benchmarks/pipeline``'s call, then from this signature.

    The façade preserves the repo's bit-identity discipline: for the same
    packets, outcomes and every counter equal scalar ``inject``'s, one
    packet at a time.  Faults follow the normal invalidation protocol — mutate
    ``network`` itself; the next column reads the plans of the new epoch.
    """

    #: Constant; ROADMAP item 11 (benchmark v2) drops ``benchmarks/pipeline``'s
    #: read, then this.
    nshards = 1

    def __init__(
        self, network: DataPlaneNetwork, shards=1, processes=False, class_weights=None
    ) -> None:
        self.network = network
        self._walker = _ColumnWalker(network)

    # -- injection -----------------------------------------------------
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
        plain sequences).  Timestamps must be finite and non-decreasing (as
        in every walker).  Returns per-packet ``(delivered, dropped_at)`` outcomes
        when ``collect``.

        Raises:
            ValueError: a column is not 1-D, ``cls_idx`` is not of an
                integer dtype, the columns differ in length, a ``cls_idx``
                entry is outside ``classes``, a hash is outside ``[0, 1)``
                (or NaN), or ``ts`` decreases somewhere or holds a NaN or
                an infinity.  Nothing has been walked or counted when it
                is raised.
        """
        if size_bytes <= 0:  # Packet's own rule
            raise ValueError("size_bytes must be positive")
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
        # NaN fails every comparison, so ``>=`` over the pairs leaves only an
        # infinite first or last timestamp to look for.
        if not (np.all(ts[1:] >= ts[:-1]) and np.isfinite(ts[0]) and np.isfinite(ts[-1])):
            raise ValueError("ts must be finite and non-decreasing")
        walker = self._walker
        with _obs.span("dataplane.walk.sharded", cat="dataplane"):
            out = walker.run(classes, cls_idx, hashes, ts, size_bytes, collect)
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

    # ``with`` held resources while there were workers; kept (as a no-op)
    # for ``benchmarks/pipeline`` until ROADMAP item 11 (benchmark v2).
    def __enter__(self) -> "ShardedDataPlane":
        return self

    def __exit__(self, *exc) -> None:
        pass
