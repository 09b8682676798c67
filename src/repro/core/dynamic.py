"""The Dynamic Handler: overload detection and fast failover (Sec. VI).

Large time-scale dynamics are handled by periodically re-running the
Optimization Engine; the hard part is small time-scale bursts.  Fast
failover reacts in tens of milliseconds by (1) halving the workload of
every sub-class traversing an overloaded instance, (2) spreading the freed
half onto the least-loaded sub-classes of the same class, and (3) when that
would overload someone else, installing new lightweight ClickOS instances
to create new sub-classes.  When the overload subsides, weights roll back
and the extra instances are cancelled (Fig. 4).

Two implementations live here:

* :class:`OverloadDetector` — packet-level, polling per-port counters with
  the paper's hysteresis thresholds (8.5 Kpps up / 4 Kpps down); drives the
  Fig. 9 prototype experiment.
* :class:`DynamicHandler` — fluid-level, replaying traffic-matrix
  snapshots against a placement; drives the Fig. 12 simulation.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import InstanceRef, PlacementPlan
from repro.core.subclasses import Subclass, SubclassPlan
from repro.sim.kernel import Simulator, Timer
from repro.traffic.replay import ClassRateTimeline
from repro.vnf.types import NFTypeCatalog

# Paper constants (Sec. VIII-E): overload above 8.5 Kpps, roll back at 4.
OVERLOAD_UP_PPS = 8500.0
OVERLOAD_DOWN_PPS = 4000.0


@dataclass
class FailoverEvent:
    """One fast-failover action, for reporting/tests."""

    time: float
    kind: str  # "overload", "rebalance", "new-instance", "rollback"
    detail: str


# ---------------------------------------------------------------------------
# Packet-level detector (Fig. 9)
# ---------------------------------------------------------------------------
class OverloadDetector:
    """Polls a rate callable and fires overload/recovery with hysteresis.

    The prototype polls Open vSwitch per-port packet counters (which
    "update almost instantly", unlike per-flow counters) every interval.

    Args:
        sim: shared simulator.
        rate_fn: returns the current receiving rate in pps.
        on_overload / on_recovery: callbacks fired on threshold crossings.
        up_pps / down_pps: hysteresis thresholds.
        poll_interval: counter polling period in seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_fn: Callable[[], float],
        on_overload: Callable[[], None],
        on_recovery: Callable[[], None],
        up_pps: float = OVERLOAD_UP_PPS,
        down_pps: float = OVERLOAD_DOWN_PPS,
        poll_interval: float = 0.1,
    ) -> None:
        if down_pps >= up_pps:
            raise ValueError("hysteresis requires down_pps < up_pps")
        self.sim = sim
        self.rate_fn = rate_fn
        self.on_overload = on_overload
        self.on_recovery = on_recovery
        self.up_pps = up_pps
        self.down_pps = down_pps
        self.overloaded = False
        self.events: List[FailoverEvent] = []
        self._timer: Timer = sim.every(poll_interval, self._poll)

    def stop(self) -> None:
        self._timer.cancel()

    def _poll(self) -> None:
        rate = self.rate_fn()
        if not self.overloaded and rate > self.up_pps:
            self.overloaded = True
            self.events.append(
                FailoverEvent(self.sim.now, "overload", f"rate={rate:.0f}pps")
            )
            self.on_overload()
        elif self.overloaded and rate <= self.down_pps:
            self.overloaded = False
            self.events.append(
                FailoverEvent(self.sim.now, "rollback", f"rate={rate:.0f}pps")
            )
            self.on_recovery()


# ---------------------------------------------------------------------------
# Fluid-level handler (Fig. 12)
# ---------------------------------------------------------------------------
#: Utilisation above which an instance is overloaded (the paper sets the
#: threshold below the true loss knee, so the handler reacts slightly
#: before packets drop).
OVERLOAD_UTIL = 0.95
#: A diverged class rolls back once every instance of its *base* layout
#: would sit below this utilisation — the hysteresis mirroring the
#: paper's 8.5 Kpps up / 4 Kpps down.
ROLLBACK_UTIL = 0.8
#: Reaction delay when the relieving instance is a full VM instead of
#: ClickOS (OpenStack boot + configuration), seconds.
SLOW_NF_DELAY = 6.2


@dataclass
class FailoverConfig:
    """Settings of the fluid fast-failover model.

    Attributes:
        enabled: disable to get the "without fast failover" baseline.
        detection_delay: seconds from overload onset to rules taking effect
            (counter poll + 70 ms rule install + 30 ms ClickOS reconfigure).
    """

    enabled: bool = True
    detection_delay: float = 0.6


@dataclass
class LossTimeline:
    """Result of a fluid replay."""

    times: List[float]
    loss: List[float]  # network-wide packet loss ratio per snapshot
    extra_cores: List[int]  # cores consumed by failover instances
    events: List[FailoverEvent]

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.loss)) if self.loss else 0.0

    @property
    def max_loss(self) -> float:
        return float(np.max(self.loss)) if self.loss else 0.0

    @property
    def mean_extra_cores(self) -> float:
        return float(np.mean(self.extra_cores)) if self.extra_cores else 0.0


class _SubState:
    """Mutable replay state of one sub-class."""

    __slots__ = ("weight", "base_weight", "seq", "is_extra")

    def __init__(self, weight: float, seq: Tuple[InstanceRef, ...], is_extra: bool = False):
        self.weight = weight
        self.base_weight = weight
        self.seq = seq
        self.is_extra = is_extra


class DynamicHandler:
    """Fluid replay of a traffic timeline with optional fast failover.

    Args:
        plan: the placement (defines base instances).
        subclass_plan: the sub-class assignment realised from the plan.
        catalog: NF datasheets.
        free_cores: cores still free per switch *after* the placement —
            the budget failover instances may dip into.
        config: failover tunables.
    """

    MAX_REBALANCE_ROUNDS = 12

    def __init__(
        self,
        plan: PlacementPlan,
        subclass_plan: SubclassPlan,
        catalog: NFTypeCatalog,
        free_cores: Dict[str, int],
        config: Optional[FailoverConfig] = None,
    ) -> None:
        self.plan = plan
        self.catalog = catalog
        self.config = config or FailoverConfig()
        self.free_cores = dict(free_cores)
        self.events: List[FailoverEvent] = []
        self._class_by_id = {c.class_id: c for c in plan.classes}
        self._state: Dict[str, List[_SubState]] = {
            cid: [_SubState(s.weight, s.instance_seq) for s in subs]
            for cid, subs in subclass_plan.by_class.items()
        }
        self._extra_instances: Dict[InstanceRef, str] = {}  # ref -> relieved key
        self._extra_counter = 0
        self._failed: set = set()  # injected crash faults

    # ------------------------------------------------------------------
    def replay(self, timeline: ClassRateTimeline) -> LossTimeline:
        """Replay every snapshot; returns per-snapshot loss and extra cores."""
        times: List[float] = []
        losses: List[float] = []
        extra_cores: List[int] = []
        dt = timeline.times[1] - timeline.times[0] if len(timeline.times) > 1 else 1.0

        for k, t in enumerate(timeline.times):
            rates = {
                c.class_id: float(timeline.rates[k, j])
                for j, c in enumerate(timeline.classes)
            }
            loss = self._step(t, rates, dt)
            times.append(t)
            losses.append(loss)
            extra_cores.append(self._extra_core_count())
        return LossTimeline(times, losses, extra_cores, self.events)

    # ------------------------------------------------------------------
    def _step(self, t: float, rates: Dict[str, float], dt: float) -> float:
        pre_loss = self._network_loss(rates)
        if not self.config.enabled:
            return pre_loss

        # The Dynamic Handler keeps reacting within the snapshot until no
        # instance is overloaded or it runs out of moves; each round costs
        # one detection delay of pre-rebalance loss.
        delay_total = 0.0
        for _ in range(self.MAX_REBALANCE_ROUNDS):
            overloaded = self._overloaded(self._instance_loads(rates))
            if not overloaded:
                break
            self.events.append(
                FailoverEvent(t, "overload", f"{len(overloaded)} instances")
            )
            before = self._network_loss(rates)
            delay_total += self._rebalance(t, rates, overloaded)
            if self._network_loss(rates) >= before - 1e-12:
                break  # no progress (resources exhausted)
        post_loss = self._network_loss(rates)
        frac = min(1.0, delay_total / dt) if dt > 0 else 0.0
        loss = pre_loss * frac + post_loss * (1.0 - frac)
        self._maybe_rollback(t, rates)
        return loss

    # ------------------------------------------------------------------
    # Failure injection (robustness extension)
    # ------------------------------------------------------------------
    def fail_instance(self, ref: InstanceRef) -> None:
        """Mark an instance as failed: zero capacity from now on.

        Fast failover then treats it exactly like a (permanently)
        overloaded instance: the next step halves the sub-classes through
        it, spreads their traffic, and replaces it with new ClickOS
        instances.  Models crash faults, which the paper's mechanism
        handles for free.
        """
        self._failed.add(ref)
        self.events.append(
            FailoverEvent(0.0, "failure", f"{ref.key} marked failed")
        )

    # ------------------------------------------------------------------
    # Load / loss computation
    # ------------------------------------------------------------------
    def _instance_loads(self, rates: Dict[str, float]) -> Dict[InstanceRef, float]:
        loads: Dict[InstanceRef, float] = {}
        for cid, subs in self._state.items():
            rate = rates.get(cid, 0.0)
            for st in subs:
                if st.weight <= 0:
                    continue
                for ref in st.seq:
                    loads[ref] = loads.get(ref, 0.0) + rate * st.weight
        return loads

    def _capacity(self, ref: InstanceRef) -> float:
        if ref in self._failed:
            return 0.0
        return self.catalog.get(ref.nf).capacity_mbps

    def _overloaded(self, loads: Dict[InstanceRef, float]) -> List[InstanceRef]:
        return sorted(
            (
                r
                for r, load in loads.items()
                if load > OVERLOAD_UTIL * self._capacity(r)
            ),
            key=lambda r: r.key,
        )

    def _network_loss(self, rates: Dict[str, float]) -> float:
        """Aggregate loss ratio: per-instance overflow composed per chain."""
        loads = self._instance_loads(rates)
        inst_loss = {
            r: max(0.0, 1.0 - self._capacity(r) / load) if load > 0 else 0.0
            for r, load in loads.items()
        }
        total_rate = 0.0
        total_lost = 0.0
        for cid, subs in self._state.items():
            rate = rates.get(cid, 0.0)
            if rate <= 0:
                continue
            total_rate += rate
            for st in subs:
                if st.weight <= 0:
                    continue
                survive = 1.0
                for ref in st.seq:
                    survive *= 1.0 - inst_loss.get(ref, 0.0)
                total_lost += rate * st.weight * (1.0 - survive)
        return total_lost / total_rate if total_rate > 0 else 0.0

    # ------------------------------------------------------------------
    # Fast failover (Fig. 4)
    # ------------------------------------------------------------------
    def _rebalance(
        self, t: float, rates: Dict[str, float], overloaded: List[InstanceRef]
    ) -> float:
        """Halve-and-spread around overloaded instances; returns delay."""
        delay = self.config.detection_delay
        over_set = set(overloaded)
        loads = self._instance_loads(rates)  # updated incrementally below
        for cid, subs in self._state.items():
            rate = rates.get(cid, 0.0)
            touched = [st for st in subs if over_set.intersection(st.seq)]
            if not touched:
                continue
            clear = [st for st in subs if not over_set.intersection(st.seq)]
            for st in touched:
                freed = st.weight / 2.0
                if freed <= 0:
                    continue
                st.weight -= freed
                for ref in st.seq:
                    loads[ref] = loads.get(ref, 0.0) - freed * rate
                target = self._spread_target(clear, rate, freed, loads)
                if target is not None:
                    target.weight += freed
                    for ref in target.seq:
                        loads[ref] = loads.get(ref, 0.0) + freed * rate
                    self.events.append(
                        FailoverEvent(t, "rebalance", f"{cid}: moved {freed:.3f}")
                    )
                else:
                    new_st, slow = self._new_subclass(
                        t, self._class_by_id[cid], st, freed, over_set
                    )
                    if new_st is not None:
                        subs.append(new_st)
                        clear.append(new_st)
                        for ref in new_st.seq:
                            loads[ref] = loads.get(ref, 0.0) + freed * rate
                        if slow:
                            delay = max(delay, SLOW_NF_DELAY)
                    else:
                        st.weight += freed  # no resources: loss persists
                        for ref in st.seq:
                            loads[ref] = loads.get(ref, 0.0) + freed * rate
        return delay

    def _spread_target(
        self,
        clear: List[_SubState],
        rate: float,
        freed: float,
        loads: Dict[InstanceRef, float],
    ) -> Optional[_SubState]:
        """Least-loaded clear sub-class that absorbs ``freed`` without overload."""
        best: Optional[_SubState] = None
        best_util = float("inf")
        for st in clear:
            candidate_util = 0.0
            ok = True
            for ref in st.seq:
                load = loads.get(ref, 0.0) + freed * rate
                util = load / self._capacity(ref)
                candidate_util = max(candidate_util, util)
                if util > OVERLOAD_UTIL:
                    ok = False
                    break
            if ok and candidate_util < best_util:
                best, best_util = st, candidate_util
        return best

    def _new_subclass(
        self,
        t: float,
        cls,
        source: _SubState,
        freed: float,
        over_set: set,
    ) -> Tuple[Optional[_SubState], bool]:
        """Clone ``source``'s sequence, replacing overloaded instances.

        Replacements are installed at any APPLE host on the class's path
        whose position keeps the chain order valid (between the previous
        and next steps' positions), preferring the original switch.
        Returns (new sub-state, used_slow_path); None when no compatible
        switch has the cores for some replacement.
        """
        path_pos = {sw: i for i, sw in enumerate(cls.path)}
        positions = [path_pos[ref.switch] for ref in source.seq]
        new_seq: List[InstanceRef] = []
        slow = False
        allocations: List[Tuple[InstanceRef, str, int]] = []

        def fail() -> Tuple[None, bool]:
            # Roll back partial allocations, including their registry
            # entries — otherwise their cores would be freed twice.
            for doomed, sw, cores in allocations:
                self.free_cores[sw] += cores
                del self._extra_instances[doomed]
            return None, False

        prev_pos = 0
        for k, ref in enumerate(source.seq):
            if ref not in over_set:
                new_seq.append(ref)
                prev_pos = positions[k]
                continue
            nf = self.catalog.get(ref.nf)
            hi = positions[k + 1] if k + 1 < len(positions) else len(cls.path) - 1
            # Candidate switches: original first, then order-compatible
            # positions nearest to the original.
            candidates = sorted(
                range(prev_pos, hi + 1), key=lambda p: abs(p - positions[k])
            )
            chosen: Optional[str] = None
            for p in candidates:
                sw = cls.path[p]
                if self.free_cores.get(sw, 0) >= nf.cores:
                    chosen = sw
                    prev_pos = p
                    break
            if chosen is None:
                return fail()
            self.free_cores[chosen] -= nf.cores
            self._extra_counter += 1
            new_ref = InstanceRef(chosen, ref.nf, 1000 + self._extra_counter)
            allocations.append((new_ref, chosen, nf.cores))
            self._extra_instances[new_ref] = ref.key
            new_seq.append(new_ref)
            if not nf.clickos:
                slow = True
            self.events.append(
                FailoverEvent(t, "new-instance", f"{new_ref.key} relieves {ref.key}")
            )
        return _SubState(freed, tuple(new_seq), is_extra=True), slow

    # ------------------------------------------------------------------
    def _maybe_rollback(self, t: float, rates: Dict[str, float]) -> None:
        """Roll classes back to their base configuration when it is safe.

        "Since overloading is transient, the distribution will roll back to
        the normal state when the VNF instance is no longer overloaded"
        (Sec. VI).  Safety test: compute the loads the *base* sub-class
        layout (original weights, no extras) would carry under the current
        rates; any class all of whose base instances stay below the
        rollback threshold is restored and its extra instances cancelled.
        """
        base_loads: Dict[InstanceRef, float] = {}
        for cid, subs in self._state.items():
            rate = rates.get(cid, 0.0)
            for st in subs:
                if st.is_extra:
                    continue
                for ref in st.seq:
                    base_loads[ref] = (
                        base_loads.get(ref, 0.0) + rate * st.base_weight
                    )
        for cid, subs in self._state.items():
            diverged = any(st.is_extra for st in subs) or any(
                abs(st.weight - st.base_weight) > 1e-12
                for st in subs
                if not st.is_extra
            )
            if not diverged:
                continue
            base_refs = {
                ref for st in subs if not st.is_extra for ref in st.seq
            }
            safe = all(
                base_loads.get(ref, 0.0) <= ROLLBACK_UTIL * self._capacity(ref)
                for ref in base_refs
            )
            if not safe:
                continue
            keep: List[_SubState] = []
            for st in subs:
                if st.is_extra:
                    self._release_extras(t, st)
                else:
                    st.weight = st.base_weight
                    keep.append(st)
            self._state[cid] = keep
            self.events.append(FailoverEvent(t, "rollback", f"{cid} restored"))

    def _release_extras(self, t: float, st: _SubState) -> None:
        """Return the cores of an extra sub-class's replacement instances."""
        for ref in st.seq:
            if ref in self._extra_instances:
                nf = self.catalog.get(ref.nf)
                self.free_cores[ref.switch] = (
                    self.free_cores.get(ref.switch, 0) + nf.cores
                )
                del self._extra_instances[ref]
                self.events.append(FailoverEvent(t, "rollback", f"cancel {ref.key}"))

    def _extra_core_count(self) -> int:
        return sum(self.catalog.get(r.nf).cores for r in self._extra_instances)
