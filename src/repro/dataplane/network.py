"""The assembled data plane: walk packets through switches, hosts and VNFs.

:class:`DataPlaneNetwork` holds one :class:`PhysicalSwitch` per topology
node and one :class:`VSwitch` per APPLE host, executes installed rules on
injected packets, and records delivery outcomes.  Crucially every walker
*always* forwards along the class's original routing path — it has no other
forwarding state — so any policy-enforcement behaviour observed emerges
purely from the tag rules, and interference freedom is structural.

One resolution cache, two walkers on it.  The tagging scheme fixes a
packet's whole walk at the ingress switch by two things: its class and the
hash *interval* its sub-class owns.  So per class the network keeps the
sorted interval edges (:meth:`DataPlaneNetwork.class_intervals`: the union
of :meth:`TcamTable.hash_boundaries` along the path) and, per interval, one
lazily resolved :class:`_WalkPlan` — entries matched, tag writes, vSwitch
rules, instance sequence, pre-built trace tuples.  The whole cache is valid
for one value of the network's *rule epoch*, an integer that every
``TcamTable``/``VSwitch`` mutator, :meth:`register_class_path`,
:meth:`set_link_failed` and :meth:`invalidate_plans` moves.

:meth:`inject` walks one packet, the columnar walker of
:mod:`repro.dataplane.sharded` many.  Both count a packet on its plan only
(``n``, and ``drops[i]`` when host visit ``i`` refused it); the flush turns
that into per-hop switch, table (``cache_hits`` too) and vSwitch counters
and the ledger, and every reader flushes first (:meth:`stats_snapshot`,
:meth:`flush_counters`, an epoch move, :meth:`reset_runtime_state`).  Both
admit through :func:`_admit`, the one sliding-window loop over plans.

:meth:`walk_reference` is the hop-by-hop Table III pipeline
(``PhysicalSwitch.process`` → ``TcamTable.lookup`` → ``VSwitch.process``)
with no cache in front of it.  Packets that arrive already tagged take it
(:meth:`inject_from_host`), and the equivalence suites compare every other
walker against it.  The data plane interprets the pipeline in exactly two
places: there and in :meth:`_resolve_plan`.  ``verify_deployment`` sends
no packet: it reads the installed tables as data with code of its own.

Delivery accounting is a counter ledger (delivered/dropped/violations)
plus a bounded ring of recent :class:`DeliveryRecord` objects for
debugging.  :meth:`DataPlaneNetwork.stats_snapshot` is the one O(1) read
— it flushes deferred plan counts, feeds the observability collectors,
and returns a :class:`NetworkStats`.  :meth:`inject` appends a record per
packet; the columnar walker never materialises per-packet records.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.dataplane.packet import FIN, Packet
from repro.dataplane.switch import PhysicalSwitch, SwitchDecision
from repro.dataplane.tcam import ActionKind, RuleEpoch
from repro.dataplane.vswitch import VSwitch
from repro.obs import state as _obs
from repro.obs.collectors import collect_network
from repro.topology.graph import Topology

_TO_HOST = SwitchDecision.TO_HOST
_DROP = SwitchDecision.DROP


@dataclass(frozen=True)
class NetworkStats:
    """A flushed, point-in-time read of the delivery ledger.

    The one sanctioned way to consume delivery counters: constructing it
    flushes the deferred plan counts first, so readers can never
    observe the ledger mid-deferral.
    """

    delivered: int
    dropped: int
    violations: int

    @property
    def total(self) -> int:
        return self.delivered + self.dropped

    @property
    def loss_ratio(self) -> float:
        return self.dropped / self.total if self.total else 0.0

    def as_tuple(self) -> Tuple[int, int, int]:
        """(delivered, dropped, violations) — the legacy triple."""
        return (self.delivered, self.dropped, self.violations)


@dataclass(slots=True)
class DeliveryRecord:
    """Outcome of one injected packet."""

    packet: Packet
    delivered: bool
    dropped_at: Optional[str] = None  # switch of the dropping vSwitch/instance

    @property
    def policy_satisfied(self) -> bool:
        """Delivered with its host tag at FIN (chain complete)."""
        return self.delivered and self.packet.finished_processing


class _WalkPlan:
    """The resolved walk of one (class, hash interval) through the pipeline.

    ``legs`` cuts the walk at each host visit into ``(hops, vswitch)``, the
    hops as ``(switch, table, lookup_missed)``; the last leg has
    ``vswitch=None``.  ``vsteps`` lists the instance visits in walk order as
    ``(visit, k, (instance, window_list, window_seconds))``.  A packet every
    instance admits leaves ``trace``, ``exit_tags`` and ``final_outcome``;
    one refused at ``(visit, k)`` leaves ``drop_ends[visit]`` = ``(outcome,
    tags inside the host, trace prefixes)``, ``prefixes[k]`` its trace.
    Deferred counts: ``n`` packets since the last flush, ``drops[visit]``
    of them refused at that host visit.
    """

    __slots__ = ("legs", "vsteps", "finished", "trace", "exit_tags",
                 "final_outcome", "drop_ends", "n", "drops")

    def __init__(self) -> None:
        self.legs: List[tuple] = []
        self.vsteps: List[tuple] = []
        self.finished = False
        self.trace: tuple = ()
        self.exit_tags: tuple = (None, None)
        self.final_outcome: tuple = (True, None)
        self.drop_ends: List[tuple] = []
        self.n = 0
        self.drops: List[int] = []


def _admit(plan: _WalkPlan, t: float, size: int) -> Optional[Tuple[int, int]]:
    """Count one packet arriving at ``t`` on ``plan`` and admit it.

    Each instance in walk order does what :meth:`VNFInstance.consume` does.
    Returns None, or the refusing ``(visit, k)`` (counted in
    ``plan.drops``).  The caller registers the plan as dirty first.
    """
    plan.n += 1
    for visit, k, (inst, recent, window) in plan.vsteps:
        if not inst.running:
            plan.drops[visit] += 1
            return visit, k
        st = inst.stats
        st.packets_in += 1
        cutoff = t - window
        if recent and recent[0] <= cutoff:
            i = 1
            lr = len(recent)
            while i < lr and recent[i] <= cutoff:
                i += 1
            del recent[:i]
        if len(recent) + 1 > inst._budget:
            st.packets_dropped += 1
            plan.drops[visit] += 1
            return visit, k
        recent.append(t)
        st.packets_processed += 1
        st.bytes_processed += size
    return None


def _check_now(now: float) -> None:
    if now - now != 0.0:  # NaN or an infinity: no window could trim it
        raise ValueError(f"now must be finite, got {now}")


class _ClassPlans:
    """One class's share of the resolution cache.

    ``edges`` is ``[0.0, cuts…, 1.0]``; interval ``g`` is
    ``[edges[g], edges[g + 1])`` and ``bisect_right(cuts, h)`` is the
    interval of hash ``h`` — the same ``lo <= h < hi`` comparison the TCAM
    entries make, so a hash exactly on an edge lands where the rules put it.
    ``plans[g]`` is None until the first packet of the interval.
    """

    __slots__ = ("class_id", "path", "src", "dst", "edges", "cuts", "plans")

    def __init__(self, class_id: str, path: Tuple[str, ...], cuts: List[float]) -> None:
        self.class_id = class_id
        self.path = path
        self.src = path[0]
        self.dst = path[-1]
        self.cuts = cuts
        self.edges = [0.0] + cuts + [1.0]
        self.plans: List[Optional[_WalkPlan]] = [None] * (len(cuts) + 1)


class DataPlaneNetwork:
    """Switches + vSwitches wired to a topology, with a packet walker.

    Args:
        topo: the network topology; a vSwitch is created for every switch
            that has an APPLE host in ``topo.hosts``.
    """

    MAX_HOPS = 1024  # loop guard; paths are far shorter
    RECENT_RECORDS = 256  # ring-buffer depth of per-packet debug records

    def __init__(self, topo: Topology) -> None:
        self.topo = topo
        #: The rule epoch: every table and vSwitch of this network, and the
        #: failure overlay below, move it when they change.
        self.epoch = RuleEpoch()
        self.switches: Dict[str, PhysicalSwitch] = {
            s: PhysicalSwitch(s, epoch=self.epoch)
            for s in topo.switches
        }
        self.vswitches: Dict[str, VSwitch] = {
            s: VSwitch(s, epoch=self.epoch) for s in topo.hosts
        }
        self.class_paths: Dict[str, Tuple[str, ...]] = {}
        # Delivery ledger: O(1) counters + a bounded ring of recent records.
        self.delivered_count = 0
        self.dropped_count = 0
        self.violation_count = 0
        self.recent_records: Deque[DeliveryRecord] = deque(
            maxlen=self.RECENT_RECORDS
        )
        # The resolution cache: class_id -> _ClassPlans, valid while the
        # rule epoch reads ``_plans_epoch``.
        self._class_plans: Dict[str, _ClassPlans] = {}
        self._plans_epoch = 0
        self._dirty_plans: List[_WalkPlan] = []
        # What obs.collectors.collect_network has already added to the
        # registry from this network's counters (its _NETWORK_COUNTERS
        # order); a reset zeroes a counter and its entry here together.
        self._collected = (0, 0, 0, 0, 0, 0)
        # Failure overlay: packets crossing a failed link are dropped at the
        # upstream switch.
        self.failed_links: set = set()

    # ------------------------------------------------------------------
    @property
    def rule_epoch(self) -> int:
        """Moves whenever anything a resolved walk depends on changes."""
        return self.epoch.value

    def register_class_path(self, class_id: str, path: Tuple[str, ...]) -> None:
        """Declare the routing path of a class (set by other applications)."""
        if len(path) < 1:
            raise ValueError("path must contain at least one switch")
        switches = self.switches
        for s in path:
            if s not in switches:
                raise KeyError(f"path references unknown switch {s!r}")
        self.class_paths[class_id] = tuple(path)
        self.epoch.move()

    def vswitch_at(self, switch: str) -> VSwitch:
        try:
            return self.vswitches[switch]
        except KeyError:
            raise KeyError(f"no APPLE host/vSwitch at switch {switch!r}") from None

    # ------------------------------------------------------------------
    # Failure overlay (chaos engine)
    # ------------------------------------------------------------------
    def set_link_failed(self, u: str, v: str, failed: bool) -> None:
        """Mark/unmark a link failed; packets crossing it are dropped."""
        if u not in self.switches or v not in self.switches:
            raise KeyError(f"unknown switch on link {u}-{v}")
        key = (u, v) if u <= v else (v, u)
        if failed:
            self.failed_links.add(key)
        else:
            self.failed_links.discard(key)
        self.epoch.move()

    def invalidate_plans(self) -> None:
        """Retire every resolved walk.

        For callers that change something no rule table knows about — the
        chaos injector after a VM kill or a brownout.  Counts still
        deferred on the old plans flush when the next walker notices.
        """
        self.epoch.move()

    # ------------------------------------------------------------------
    # The resolution cache
    # ------------------------------------------------------------------
    def _retire_plans(self) -> None:
        self._flush_dirty()  # pending counts reference the old plans
        self._class_plans.clear()
        self._plans_epoch = self.epoch.value

    def class_intervals(self, class_id: str) -> _ClassPlans:
        """The class's hash-interval edges and the plans resolved so far.

        The one place interval edges are computed: cut [0, 1) at the union
        of hash-range boundaries installed along the class's path, so that
        within one interval every flow matches the same entry at every hop.
        """
        if self._plans_epoch != self.epoch.value:
            self._retire_plans()
        cp = self._class_plans.get(class_id)
        if cp is None:
            path = self.class_paths.get(class_id)
            if path is None:
                raise KeyError(f"class {class_id!r} has no registered path")
            bounds: set = set()
            for sw_name in path:
                bounds.update(self.switches[sw_name].table.hash_boundaries(class_id))
            cp = self._class_plans[class_id] = _ClassPlans(
                class_id, path, sorted(bounds)
            )
        return cp

    def interval_plan(self, cp: _ClassPlans, g: int) -> _WalkPlan:
        """The walk of interval ``g`` of a class, resolved on first use."""
        plan = cp.plans[g]
        if plan is None:
            lo, hi = cp.edges[g], cp.edges[g + 1]
            mid = lo + (hi - lo) / 2
            if not lo <= mid < hi:
                mid = lo  # degenerate float interval: probe its left edge
            with _obs.span("dataplane.plan.resolve", cat="dataplane"):
                plan = cp.plans[g] = self._resolve_plan(
                    cp.class_id, cp.path, mid
                )
        return plan

    def _resolve_plan(
        self, class_id: str, path: Tuple[str, ...], flow_hash: float
    ) -> _WalkPlan:
        """Walk a probe through the pipeline once, recording the plan.

        The probe performs exactly the reference walk's lookups and tag
        writes, but against local tag variables instead of a packet and
        without touching any counter.  Its one ``flow_hash`` stands for the
        whole interval at every hop on the assumption
        :mod:`repro.core.verify` states — nothing rewrites it in flight — so
        a VNF that ever did would have to re-cut both the audit's cells and
        these plans after its host.
        """
        if len(path) > self.MAX_HOPS + 1:
            raise RuntimeError("hop limit exceeded (loop?)")
        plan = _WalkPlan()
        hops: List[tuple] = []  # (switch, table, missed) of the leg being built
        visited: List[Tuple[str, str]] = []
        host_tag: Optional[str] = None
        subclass_tag: Optional[int] = None
        failed_links = self.failed_links
        for hi, sw_name in enumerate(path):
            if failed_links and hi:
                prev = path[hi - 1]
                key = (prev, sw_name) if prev <= sw_name else (sw_name, prev)
                if key in failed_links:
                    # Black-hole: the walk ends on the dead link, charged to
                    # the upstream switch (matches the reference walker).
                    plan.final_outcome = (False, prev)
                    break
            switch = self.switches[sw_name]
            entry = switch.table.match(class_id, host_tag, flow_hash)
            hops.append((switch, switch.table, entry is None))
            visited.append(("switch", sw_name))
            if entry is None:
                continue  # no rules: behave as pass-by
            kind = entry.action.kind
            if kind is ActionKind.GOTO_NEXT_TABLE:
                continue
            if kind is ActionKind.TAG_SUBCLASS_AND_HOST:
                subclass_tag = entry.action.subclass_id
                host_tag = entry.action.next_host
                continue
            if kind is ActionKind.DROP:
                plan.final_outcome = (False, sw_name)
                break
            # FORWARD_TO_HOST, with or without the sub-class tag write.
            if kind is ActionKind.TAG_SUBCLASS_AND_FORWARD_TO_HOST:
                subclass_tag = entry.action.subclass_id
            vsw = self.vswitch_at(sw_name)
            rule, instances = vsw.resolve(class_id, subclass_tag)
            visited.append(("vswitch", f"ovs-{sw_name}"))
            visit = len(plan.drop_ends)
            plan.legs.append((tuple(hops), vsw))
            hops = []
            prefixes = []
            for k, (iid, inst) in enumerate(zip(rule.instance_ids, instances)):
                plan.vsteps.append((visit, k, (inst, inst._recent, inst.window)))
                prefixes.append(tuple(visited))
                visited.append(("vnf", iid))
            plan.drop_ends.append(
                ((False, sw_name), (host_tag, subclass_tag), tuple(prefixes))
            )
            plan.drops.append(0)
            host_tag = rule.exit_host_tag
            if host_tag == sw_name:
                raise RuntimeError(
                    f"packet re-tagged for the host it just left ({sw_name})"
                )
        else:
            plan.finished = host_tag == FIN
        plan.legs.append((tuple(hops), None))
        plan.trace = tuple(visited)
        plan.exit_tags = (host_tag, subclass_tag)
        return plan

    # ------------------------------------------------------------------
    # One packet
    # ------------------------------------------------------------------
    def inject(self, packet: Packet, now: float = 0.0) -> DeliveryRecord:
        """Walk a packet from its ingress to its egress switch.

        Replays the resolved walk of the packet's (class, hash interval):
        :func:`_admit` runs each instance's admission live (so a stopped or
        browned-out instance behaves exactly as in the pipeline) and counts
        the packet on the plan, then the packet gets the trace and tags the
        pipeline would have left (the trace is the plan's own tuple, not a
        copy).  Switch, table, vSwitch and ledger
        counters follow at the next flush.  A packet that arrives already
        tagged is not at its ingress classification, and a walk that cannot
        be resolved has a rule bug somewhere along it: both take
        :meth:`walk_reference`, which raises where the bug is.  All three
        walkers raise ``ValueError`` on a NaN or infinite ``now``, before
        anything is counted.
        """
        _check_now(now)
        if packet.host_tag is not None or packet.subclass_tag is not None:
            return self.walk_reference(packet, now)
        cp = self._class_plans.get(packet.class_id)
        if cp is None or self._plans_epoch != self.epoch.value:
            cp = self.class_intervals(packet.class_id)
        if cp.src != packet.src or cp.dst != packet.dst:
            raise ValueError(
                f"packet of class {packet.class_id!r} at flow hash "
                f"{packet.flow_hash!r}: src/dst disagree with class path"
            )
        g = bisect_right(cp.cuts, packet.flow_hash)
        plan = cp.plans[g]
        if plan is None:
            try:
                plan = self.interval_plan(cp, g)
            except (KeyError, RuntimeError):
                return self.walk_reference(packet, now)
        if not plan.n:
            self._dirty_plans.append(plan)
        refused = _admit(plan, now, packet.size_bytes)
        if refused is None:
            trace = plan.trace
            packet.host_tag, packet.subclass_tag = plan.exit_tags
            delivered, dropped_at = plan.final_outcome
        else:
            visit, k = refused
            (delivered, dropped_at), tags, prefixes = plan.drop_ends[visit]
            trace = prefixes[k]
            packet.host_tag, packet.subclass_tag = tags
        # The plan's own tuple, shared by every packet of the interval.
        packet.trace = packet.trace + trace if packet.trace else trace
        record = DeliveryRecord(packet, delivered, dropped_at)
        self.recent_records.append(record)
        return record

    def walk_reference(self, packet: Packet, now: float = 0.0) -> DeliveryRecord:
        """Walk a packet hop by hop through the Table III pipeline.

        The walk follows the registered class path.  At each switch the
        pipeline runs; a TO_HOST decision hands the packet to the local
        vSwitch (which may drop it on overload), after which forwarding
        resumes along the path.  Nothing here reads the resolution cache,
        and every counter is written as the packet goes.
        """
        _check_now(now)
        path = self.class_paths.get(packet.class_id)
        if path is None:
            raise KeyError(f"class {packet.class_id!r} has no registered path")
        if path[0] != packet.src or path[-1] != packet.dst:
            raise ValueError(
                f"packet of class {packet.class_id!r} at flow hash "
                f"{packet.flow_hash!r}: src/dst disagree with class path"
            )

        failed_links = self.failed_links
        switches = self.switches
        max_hops = self.MAX_HOPS
        for i, sw_name in enumerate(path):
            if i > max_hops:
                raise RuntimeError("hop limit exceeded (loop?)")
            if failed_links and i:
                prev = path[i - 1]
                key = (prev, sw_name) if prev <= sw_name else (sw_name, prev)
                if key in failed_links:
                    # The packet black-holes on the dead link; it never
                    # reaches sw_name, so the drop is charged upstream.
                    return self._record(packet, False, prev)
            decision = switches[sw_name].process(packet)
            if decision is _TO_HOST:
                if self.vswitch_at(sw_name).process(packet, now) is None:
                    return self._record(packet, False, sw_name)
                # Packet re-enters the switch from the host; if it is now
                # tagged for this same switch again that is a rule bug.
                if packet.host_tag == sw_name:
                    raise RuntimeError(
                        f"packet re-tagged for the host it just left ({sw_name})"
                    )
            elif decision is _DROP:
                return self._record(packet, False, sw_name)
            # FORWARD: continue to the next switch on the path.

        return self._record(packet, True, None)

    def inject_from_host(self, packet: Packet, now: float = 0.0) -> DeliveryRecord:
        """Walk a packet that originates at a production VM in an APPLE host.

        Fig. 3's third scenario: the packet enters its source switch's
        vSwitch untagged (from a production-VM port), is classified and
        tagged there, then follows the hop-by-hop walk along its class
        path — it reaches the first switch already tagged, which is not
        the ingress state the resolved plans describe.
        """
        _check_now(now)
        if packet.class_id not in self.class_paths:
            raise KeyError(f"class {packet.class_id!r} has no registered path")
        vsw = self.vswitch_at(packet.src)
        out = vsw.process_origin(packet, now)
        if out is None:
            return self._record(packet, False, packet.src)
        return self.walk_reference(packet, now)

    def _record(
        self, packet: Packet, delivered: bool, dropped_at: Optional[str]
    ) -> DeliveryRecord:
        record = DeliveryRecord(packet, delivered, dropped_at)
        if delivered:
            self.delivered_count += 1
            if not packet.finished_processing:
                self.violation_count += 1
        else:
            self.dropped_count += 1
        self.recent_records.append(record)
        return record

    # ------------------------------------------------------------------
    # Deferred plan counts
    # ------------------------------------------------------------------
    def flush_counters(self) -> None:
        """Apply deferred plan counts to switch/vSwitch/ledger counters.

        Every ledger reader on this class calls it; code inspecting switch
        or vSwitch counters directly after :meth:`inject` or
        ``ShardedDataPlane.inject_columns`` should call it first.
        """
        self._flush_dirty()

    def _flush_dirty(self) -> None:
        """Apply each touched plan's accumulated counts to the counters.

        A packet dropped at the vSwitch of hop *i* still visited switches
        0..i, so per-hop counts start at the plan's total and shrink by the
        per-step drop counts as the flush walks the path.  Every hop was
        answered from the plan, so it is a ``cache_hits`` count too.
        """
        dirty = self._dirty_plans
        if not dirty:
            return
        for plan in dirty:
            n = plan.n
            alive = n
            drops = plan.drops
            for k, (hops, vsw) in enumerate(plan.legs):
                for sw, table, was_miss in hops:
                    sw.packets_seen += alive
                    table.lookup_count += alive
                    table.cache_hits += alive
                    if was_miss:
                        table.miss_count += alive
                if vsw is None:
                    break
                vsw.packets_in += alive
                d = drops[k]
                if d:
                    vsw.packets_dropped += d
                    alive -= d
                    drops[k] = 0
            if plan.final_outcome[0]:
                self.delivered_count += alive
                self.dropped_count += n - alive
                if not plan.finished:
                    self.violation_count += alive
            else:
                self.dropped_count += n
            plan.n = 0
        dirty.clear()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def tcam_usage_by_switch(self) -> Dict[str, int]:
        """Hardware TCAM slots consumed by APPLE rules, per switch."""
        return {s: sw.tcam_usage() for s, sw in self.switches.items()}

    def total_tcam_usage(self) -> int:
        return sum(self.tcam_usage_by_switch().values())

    def stats_snapshot(self) -> NetworkStats:
        """Flush deferred column counts, then read the ledger.

        The one consumer API: every ledger read routes through here, so
        the deferred-flush contract holds by construction.  It is
        also the data plane's metrics-collection point: with observability
        enabled, what the ledger and TCAM ground-truth counters gained since
        the last snapshot is added to the registry.
        """
        self._flush_dirty()
        collect_network(self)
        return NetworkStats(
            delivered=self.delivered_count,
            dropped=self.dropped_count,
            violations=self.violation_count,
        )

    def reset_records(self) -> None:
        """Zero the delivery ledger and the recent-record ring."""
        self.stats_snapshot()  # flush; the registry takes what it has not seen
        self.delivered_count = 0
        self.dropped_count = 0
        self.violation_count = 0
        self._collected = (0, 0, 0) + self._collected[3:]
        self.recent_records.clear()

    def reset_runtime_state(self) -> None:
        """Zero every runtime counter while keeping rules (and plans) hot.

        Benchmarks use this between repetitions: the installed rules and
        the resolved walk plans stay warm, but delivery counters,
        switch/vSwitch counters and instance sliding windows start fresh.
        """
        self.reset_records()
        for sw in self.switches.values():
            sw.packets_seen = 0
            sw.port_counters.clear()
            table = sw.table
            table.lookup_count = 0
            table.miss_count = 0
            table.cache_hits = 0
        self._collected = (0, 0, 0, 0, 0, 0)
        for vsw in self.vswitches.values():
            vsw.packets_in = 0
            vsw.packets_dropped = 0
            for inst in vsw.instances():
                inst.reset_runtime()
