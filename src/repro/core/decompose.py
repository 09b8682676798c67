"""Decomposed placement: per-partition ILP shards + capacity coordination.

The monolithic model of :mod:`repro.core.engine` is exact but superlinear
in model size (the LP simplex dominates), which caps it near the paper's
79-node AS-3679.  Production scale — hundreds of switches, 10⁴–10⁶
equivalence classes — needs the orchestration move Sang et al. and Bari
et al. point at: stop solving one giant model and solve coordinated
shards.  Classes couple *only* through shared host capacity (Eq. 5/6);
everything else in the ILP is per-class.  So:

1. **Partition** classes by ingress group (:func:`partition_classes`):
   all classes entering at one switch stay together (they share paths and
   host prefixes), groups are packed greedy-heaviest into shards balanced
   by *structural* weight (d-variable count), never by rate — so the
   partition is a pure function of the class structure and stays put
   across snapshots, which keeps per-shard warm templates valid.
2. **Solve shards independently** against the *full* host capacity — the
   price-0 start of a Lagrangian/price-adjustment scheme.  Unconstrained
   shards are the cheap case (no artificial tightness, so the rounding
   repair loop inside each shard terminates quickly), and at sane
   utilisation the optimistic round is usually the only one.  Shards run
   in-process (per-shard :class:`~repro.core.engine.OptimizationEngine`
   instances whose template caches give the warm-start path *per shard*)
   or fanned out via :func:`repro.parallel.parallel_map` with spec-only
   :class:`~repro.parallel.FnSpec` work units.
3. **Coordinate**: the merged usage is checked against real capacity.
   Hosts oversubscribed by the optimistic round get their cores (and
   memory) *split* among the shards using them, proportional to each
   shard's LP-derived usage — the price rises exactly where demand
   collides — and only the contributing shards re-solve.  A shard that
   goes infeasible under its share has the slack of every under-using
   shard reclaimed for it (others keep their committed plans; the failed
   shard is re-granted everything they left unused) before the instance
   falls back to the monolithic solve.  The loop is bounded by
   ``max_rounds``, so convergence is by construction: at most
   ``max_rounds`` coordination rounds, each re-solving only the
   contributing shards, then one monolithic solve worst-case.

Below ``min_classes`` the decomposed engine delegates to the monolithic
path untouched — small instances stay bit-identical to the classic
engine.  Merged plans are checked, not assumed: the capacity sweep at
step 3 enforces exactly the Eq. 6 coupling the partition removed, and a
final trim collapses the cross-shard rounding waste (shards sharing a
(switch, NF) slot each paid their own ceiling).
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.core.engine import EngineConfig, OptimizationEngine, PlacementError
from repro.core.placement import PlacementPlan
from repro.parallel import FnSpec, Jobs, parallel_map, resolve_jobs
from repro.traffic.classes import TrafficClass
from repro.vnf.types import DEFAULT_CATALOG, NFTypeCatalog

#: Shards stop paying off once they get too thin; ``"auto"`` targets this
#: many d variables per shard before capping at :data:`MAX_SHARDS`.
TARGET_DVARS_PER_SHARD = 2500

#: Upper bound for the ``"auto"`` shard count.
MAX_SHARDS = 16


def structure_weight(
    cls: TrafficClass, available_cores: Mapping[str, int]
) -> int:
    """d-variable count of one class — the LP-cost driver, rate-free."""
    hosts = sum(1 for sw in cls.path if available_cores.get(sw, 0) > 0)
    return cls.chain_length * max(1, hosts)


def auto_shard_count(
    classes: Sequence[TrafficClass],
    available_cores: Mapping[str, int],
    max_shards: int = MAX_SHARDS,
) -> int:
    """Shard count from the model size: ~constant d-vars per shard.

    Unlike a core-bound worker count (:func:`repro.parallel.resolve_jobs`),
    decomposition pays off even on one core — k shards of n/k variables
    cost ~``k·(n/k)^1.5 = n^1.5/√k`` serial — so the count scales with
    the *instance*, capped by the ingress-group count (the partition
    unit) and :data:`MAX_SHARDS`.
    """
    total = sum(structure_weight(c, available_cores) for c in classes)
    groups = len({c.src for c in classes})
    return max(
        1,
        min(max_shards, groups, math.ceil(total / TARGET_DVARS_PER_SHARD)),
    )


def partition_classes(
    classes: Sequence[TrafficClass],
    available_cores: Mapping[str, int],
    shards: int,
) -> List[List[int]]:
    """Partition class indices into at most ``shards`` ingress groups.

    Classes sharing an ingress switch stay together (one group), groups
    are packed heaviest-first onto the least-loaded shard.  Weights are
    structural (d-variable counts), so the partition depends only on the
    class/host structure — identical across snapshots of one replay.
    Empty shards are dropped; the effective count may be below
    ``shards`` when there are fewer ingress groups.
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    groups: "OrderedDict[str, List[int]]" = OrderedDict()
    for idx, cls in enumerate(classes):
        groups.setdefault(cls.src, []).append(idx)
    weights = {
        src: sum(structure_weight(classes[i], available_cores) for i in idxs)
        for src, idxs in groups.items()
    }
    order = sorted(groups, key=lambda src: (-weights[src], src))
    bins: List[List[int]] = [[] for _ in range(min(shards, len(groups)))]
    loads = [0] * len(bins)
    for src in order:
        b = min(range(len(bins)), key=lambda i: (loads[i], i))
        bins[b].extend(groups[src])
        loads[b] += weights[src]
    return [sorted(b) for b in bins if b]


def _allocate(
    weights: Sequence[Mapping[str, float]],
    available: Mapping[str, int],
) -> List[Dict[str, int]]:
    """Integer proportional split of each host's capacity across shards.

    Largest-remainder rounding with deterministic (remainder, shard
    index) tie-breaks; shards with zero weight at a host get nothing
    there.  Per host, grants sum to at most the capacity — the property
    that makes a merged plan of shard solves feasible by construction.
    """
    alloc: List[Dict[str, int]] = [{} for _ in weights]
    for sw, cap in available.items():
        cap = int(cap)
        shares = [
            (s, w.get(sw, 0.0)) for s, w in enumerate(weights)
            if w.get(sw, 0.0) > 0
        ]
        total = sum(u for _, u in shares)
        if cap <= 0 or total <= 0:
            continue
        raw = [(s, cap * u / total) for s, u in shares]
        grant = {s: int(r) for s, r in raw}
        leftover = cap - sum(grant.values())
        by_remainder = sorted(raw, key=lambda t: (-(t[1] - int(t[1])), t[0]))
        for s, _ in by_remainder[:leftover]:
            grant[s] += 1
        for s, cores in grant.items():
            if cores > 0:
                alloc[s][sw] = cores
    return alloc


def _demand_weights(
    classes: Sequence[TrafficClass],
    shard_lists: Sequence[Sequence[int]],
    available_cores: Mapping[str, int],
    catalog: NFTypeCatalog,
) -> List[Dict[str, float]]:
    """Closed-form per-(shard, host) core-demand proxy.

    Each class's expected core need (Σ over its chain of cores_n / Cap_n,
    times its rate) is spread evenly over the hosts on its path — what
    the LP would do absent capacity pressure, at zero solve cost.  Used
    as the floor under LP-usage weights so hosts idle in one round keep a
    structurally sensible share for the next.
    """
    weights: List[Dict[str, float]] = [{} for _ in shard_lists]
    for s, idxs in enumerate(shard_lists):
        for i in idxs:
            cls = classes[i]
            hosts = [sw for sw in cls.path if available_cores.get(sw, 0) > 0]
            if not hosts:
                continue
            per_mbps = sum(
                catalog.get(nf).cores / catalog.get(nf).capacity_mbps
                for nf in cls.chain
            )
            share = max(cls.rate_mbps, 1e-6) * per_mbps / len(hosts)
            for sw in hosts:
                weights[s][sw] = weights[s].get(sw, 0.0) + share
    return weights


def _repair_allocation(
    alloc: List[Dict[str, int]],
    classes: Sequence[TrafficClass],
    shard_lists: Sequence[Sequence[int]],
    available_cores: Mapping[str, int],
    catalog: NFTypeCatalog,
) -> None:
    """Guarantee every class a host big enough for its largest NF.

    Proportional rounding can zero a light shard out of every host on
    some class's path, or leave it fewer cores than one IDS instance
    needs.  This pass tops the best host up from the unallocated pool
    first, then steals single cores from the richest co-located shard
    (never below one core).  Mutates ``alloc`` in place; anything it
    cannot fix surfaces as a shard failure and is handled by the slack
    reclaim / monolithic fallback.
    """

    def pool(sw: str) -> int:
        return int(available_cores.get(sw, 0)) - sum(a.get(sw, 0) for a in alloc)

    for s, idxs in enumerate(shard_lists):
        for i in idxs:
            cls = classes[i]
            hosts = [sw for sw in cls.path if available_cores.get(sw, 0) > 0]
            if not hosts:
                continue
            need = max(catalog.get(nf).cores for nf in cls.chain)
            if max((alloc[s].get(sw, 0) for sw in hosts), default=0) >= need:
                continue
            for sw in sorted(
                hosts, key=lambda v: (-int(available_cores.get(v, 0)), v)
            ):
                deficit = need - alloc[s].get(sw, 0)
                take = min(deficit, max(0, pool(sw)))
                if take > 0:
                    alloc[s][sw] = alloc[s].get(sw, 0) + take
                    deficit -= take
                while deficit > 0:
                    donors = [
                        t for t in range(len(alloc))
                        if t != s and alloc[t].get(sw, 0) > 1
                    ]
                    if not donors:
                        break
                    donor = max(donors, key=lambda t: (alloc[t].get(sw, 0), -t))
                    alloc[donor][sw] -= 1
                    alloc[s][sw] = alloc[s].get(sw, 0) + 1
                    deficit -= 1
                if deficit <= 0:
                    break


def _raise_unexpected(results: Sequence) -> None:
    """Re-raise any non-placement failure from a shard round.

    Only :class:`PlacementError` means "this shard needs more capacity"
    and is worth a coordination round; anything else (pickling, backend
    crash) is a bug the caller must see immediately.
    """
    for r in results:
        if isinstance(r, Exception) and not isinstance(r, PlacementError):
            raise r


def _solve_shard(payload: dict) -> PlacementPlan:
    """Spec-only work unit: one shard's cold solve in a worker process.

    Module-level so :class:`repro.parallel.FnSpec` can ship a dotted
    reference instead of pickling an engine; the worker re-hydrates an
    :class:`OptimizationEngine` from the payload's config fields.
    """
    engine = OptimizationEngine(payload["catalog"], payload["config"])
    return engine.place(
        payload["classes"],
        payload["cores"],
        available_memory_gb=payload.get("memory"),
    )


@dataclass
class CapacitySplit:
    """A cached coordination state: partition + current per-shard grants.

    Grants start at the full host capacity for every shard (price 0,
    ``constrained=False``).  The first contention switches the split to
    constrained mode: every host proportionally divided, grants summing
    to at most the capacity.  Both states are stable across snapshots of
    one replay, so the structure keys — and with them the warm templates
    — stay put.
    """

    key: tuple
    shard_lists: List[List[int]]
    cores: List[Dict[str, int]]
    memory: Optional[List[Dict[str, float]]]
    #: Structural demand proxy, computed once per split and reused as the
    #: weight floor whenever the capacity is (re-)divided.
    demand: List[Dict[str, float]] = None  # type: ignore[assignment]
    #: True once grants were narrowed to a proper partition of capacity.
    constrained: bool = False
    #: Set when coordination gave up and the instance went monolithic —
    #: later snapshots of the same structure skip straight to it.
    use_monolithic: bool = False
    rounds: int = 0
    solves: int = 0


@dataclass
class DecomposeConfig:
    """Tunables of the decomposed placement path.

    Attributes:
        shards: shard count, or ``"auto"`` (scale with model size, capped
            by ingress groups and :data:`MAX_SHARDS`).
        min_classes: below this many classes the monolithic engine runs
            untouched — small instances stay bit-identical to today.
        max_rounds: price-adjustment rounds before the monolithic
            fallback (the convergence bound).
        jobs: worker processes for shard solves (``1`` = in-process,
            which is also the warm-template path; ``"auto"`` / ``N`` fan
            out cold solves via :func:`repro.parallel.parallel_map`).
    """

    shards: Jobs = "auto"
    min_classes: int = 64
    max_rounds: int = 3
    jobs: Jobs = 1

    def __post_init__(self) -> None:
        if self.shards != "auto":
            if int(self.shards) < 1:
                raise ValueError("shards must be positive or 'auto'")
        if self.min_classes < 0:
            raise ValueError("min_classes must be non-negative")
        if self.max_rounds < 0:
            raise ValueError("max_rounds must be non-negative")


class DecomposedEngine:
    """Placement at hyperscale: partition, solve, coordinate, merge.

    A drop-in alternative to :class:`OptimizationEngine.place` for large
    instances.  Holds one monolithic engine (small-instance passthrough
    and fallback) plus one engine per shard, so the warm-start template
    cache — the 672-snapshot replay hot path — works *per shard*: a
    snapshot whose structure matches re-solves every shard with a rate
    rewrite only.
    """

    def __init__(
        self,
        catalog: NFTypeCatalog = DEFAULT_CATALOG,
        config: Optional[EngineConfig] = None,
        decompose: Optional[DecomposeConfig] = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or EngineConfig()
        self.decompose = decompose or DecomposeConfig()
        #: Monolithic passthrough + fallback engine.
        self.mono = OptimizationEngine(catalog, self.config)
        self._shard_engines: Dict[int, OptimizationEngine] = {}
        self._splits: "OrderedDict[tuple, CapacitySplit]" = OrderedDict()
        #: Telemetry.
        self.decomposed_solves = 0
        self.mono_passthroughs = 0
        self.mono_fallbacks = 0
        self.reclaim_rounds_total = 0
        self.reclaimed_cores_total = 0
        self.deadline_fallbacks = 0

    # ------------------------------------------------------------------
    @property
    def warm_solves(self) -> int:
        return self.mono.warm_solves + sum(
            e.warm_solves for e in self._shard_engines.values()
        )

    @property
    def cold_builds(self) -> int:
        return self.mono.cold_builds + sum(
            e.cold_builds for e in self._shard_engines.values()
        )

    def clear_templates(self) -> None:
        """Drop all cached state (splits + every engine's templates)."""
        self.mono.clear_templates()
        for engine in self._shard_engines.values():
            engine.clear_templates()
        self._splits.clear()

    def _engine_for(self, shard: int) -> OptimizationEngine:
        engine = self._shard_engines.get(shard)
        if engine is None:
            engine = self._shard_engines[shard] = OptimizationEngine(
                self.catalog, self.config
            )
        return engine

    # ------------------------------------------------------------------
    def resolve_shards(
        self,
        classes: Sequence[TrafficClass],
        available_cores: Mapping[str, int],
    ) -> int:
        """The effective shard count for this instance.

        Explicit counts are clamped by the ingress-group count — the
        partition unit — so a single-ingress instance resolves to one
        shard and takes the bit-identical monolithic passthrough.
        """
        if self.decompose.shards == "auto":
            return auto_shard_count(classes, available_cores)
        groups = len({c.src for c in classes})
        return max(1, min(int(self.decompose.shards), groups))

    def _structure_key(
        self,
        classes: Sequence[TrafficClass],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]],
        shards: int,
    ) -> tuple:
        class_part = tuple((c.class_id, c.path, tuple(c.chain)) for c in classes)
        cores_part = tuple(sorted((s, int(v)) for s, v in available_cores.items()))
        mem_part = (
            None
            if available_memory_gb is None
            else tuple(sorted((s, float(v)) for s, v in available_memory_gb.items()))
        )
        return (class_part, cores_part, mem_part, shards, id(self.catalog))

    # ------------------------------------------------------------------
    def place(
        self,
        classes: Sequence[TrafficClass],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]] = None,
    ) -> PlacementPlan:
        """Solve ``classes`` decomposed; fall back monolithic when beaten.

        Raises:
            PlacementError: as :meth:`OptimizationEngine.place` — every
                unrecoverable shard failure falls back to the monolithic
                solve, so the verdict on a genuinely infeasible instance
                is exactly the classic engine's.
        """
        started = time.perf_counter()
        shards = self.resolve_shards(classes, available_cores)
        if len(classes) < self.decompose.min_classes or shards <= 1:
            self.mono_passthroughs += 1
            return self.mono.place(classes, available_cores, available_memory_gb)

        key = self._structure_key(
            classes, available_cores, available_memory_gb, shards
        )
        split = self._splits.get(key)
        if split is None:
            split = self._build_split(
                classes, available_cores, available_memory_gb, shards, key
            )
            self._splits[key] = split
            while len(self._splits) > 8:
                self._splits.popitem(last=False)
        else:
            self._splits.move_to_end(key)
        if split.use_monolithic:
            self.mono_fallbacks += 1
            return self.mono.place(classes, available_cores, available_memory_gb)

        n_shards = len(split.shard_lists)
        plans: List = [None] * n_shards
        need = list(range(n_shards))
        rounds = 0
        reclaim_attempted = False
        while True:
            solved = self._solve_round(classes, split, need)
            _raise_unexpected(solved)
            for s, plan in zip(need, solved):
                plans[s] = plan

            failed = [
                s for s in range(n_shards)
                if isinstance(plans[s], PlacementError)
            ]
            if failed:
                if not split.constrained:
                    # A shard failed with the *full* capacity.  Its model
                    # is a restriction of the monolithic one, but the
                    # ceiling-repair heuristic is not monotone: smaller
                    # models usually repair more easily, yet not always.
                    # The monolithic solve is the authoritative verdict.
                    split.use_monolithic = True
                    self.mono_fallbacks += 1
                    return self.mono.place(
                        classes, available_cores, available_memory_gb
                    )
                if reclaim_attempted or rounds >= self.decompose.max_rounds:
                    split.use_monolithic = True
                    self.mono_fallbacks += 1
                    return self.mono.place(
                        classes, available_cores, available_memory_gb
                    )
                reclaim_attempted = True
                need = self._reclaim_slack(
                    classes, split, plans, failed, available_cores,
                    available_memory_gb,
                )
                continue

            if not self._oversubscribed(
                plans, available_cores, available_memory_gb
            ):
                break
            if rounds >= self.decompose.max_rounds:
                split.use_monolithic = True
                self.mono_fallbacks += 1
                return self.mono.place(
                    classes, available_cores, available_memory_gb
                )
            rounds += 1
            reclaim_attempted = False
            self._split_capacity(
                classes, split, plans, available_cores, available_memory_gb
            )
            need = list(range(n_shards))

        split.rounds += rounds
        split.solves += 1
        self.decomposed_solves += 1
        self.reclaim_rounds_total += rounds

        merged = self._merge(classes, plans, started)
        if obs.REGISTRY.enabled:
            obs.metric("solver_shard_count").set(n_shards)
            obs.metric("solver_shard_rounds").set(rounds)
            for plan in plans:
                obs.metric("solver_shard_solve_seconds").observe(
                    plan.solve_seconds
                )
        return merged

    # ------------------------------------------------------------------
    def estimate_solve_seconds(
        self,
        classes: Sequence[TrafficClass],
        available_cores: Mapping[str, int],
    ) -> float:
        """Deterministic solve-cost estimate of the *decomposed* path.

        Delegates to :meth:`OptimizationEngine.estimate_solve_seconds`
        with this instance's effective shard count, so deadline decisions
        see the sum of shard-sized models instead of the monolithic size
        (which would spuriously trigger greedy fallbacks — the shards are
        superlinearly cheaper).
        """
        shards = self.resolve_shards(classes, available_cores)
        if len(classes) < self.decompose.min_classes:
            shards = 1
        return self.mono.estimate_solve_seconds(
            classes, available_cores, shards=shards
        )

    def place_with_deadline(
        self,
        classes: Sequence[TrafficClass],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[PlacementPlan, bool]:
        """Deadline-aware wrapper mirroring the monolithic engine's.

        The estimate is shard-aware, so instances the decomposition can
        finish in time run the real solver instead of degrading to the
        greedy placer.
        """
        if (
            deadline is not None
            and self.estimate_solve_seconds(classes, available_cores) > deadline
        ):
            from repro.core.greedy import greedy_placement

            clamped = [self.mono._clamped(c) for c in classes]
            OptimizationEngine._check_paths(clamped, available_cores)
            plan = greedy_placement(
                clamped,
                available_cores,
                self.catalog,
                capacity_headroom=self.config.capacity_headroom,
            )
            self.deadline_fallbacks += 1
            if obs.REGISTRY.enabled:
                obs.metric("solver_deadline_fallbacks_total").inc()
            return plan, True
        return (
            self.place(classes, available_cores, available_memory_gb),
            False,
        )

    # ------------------------------------------------------------------
    def _build_split(
        self,
        classes: Sequence[TrafficClass],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]],
        shards: int,
        key: tuple,
    ) -> CapacitySplit:
        shard_lists = partition_classes(classes, available_cores, shards)
        # Price-0 grants: every shard initially sees the full capacity.
        cores = [dict(available_cores) for _ in shard_lists]
        memory = None
        if available_memory_gb is not None:
            memory = [dict(available_memory_gb) for _ in shard_lists]
        return CapacitySplit(
            key=key, shard_lists=shard_lists, cores=cores, memory=memory
        )

    def _solve_round(
        self,
        classes: Sequence[TrafficClass],
        split: CapacitySplit,
        shard_ids: Sequence[int],
    ) -> List:
        """Solve the given shards; returns plans (or PlacementError)."""
        shard_ids = list(shard_ids)
        jobs = resolve_jobs(self.decompose.jobs)
        shard_classes = {
            s: [classes[i] for i in split.shard_lists[s]] for s in shard_ids
        }
        if jobs == "auto" or int(jobs) > 1:
            payloads = [
                {
                    "classes": shard_classes[s],
                    "cores": split.cores[s],
                    "memory": split.memory[s] if split.memory else None,
                    "config": self.config,
                    "catalog": self.catalog,
                }
                for s in shard_ids
            ]
            return parallel_map(
                FnSpec.of(_solve_shard),
                payloads,
                jobs=jobs,
                return_exceptions=True,
            )
        results = []
        for s in shard_ids:
            try:
                results.append(
                    self._engine_for(s).place(
                        shard_classes[s],
                        split.cores[s],
                        available_memory_gb=(
                            split.memory[s] if split.memory else None
                        ),
                    )
                )
            except PlacementError as exc:
                results.append(exc)
        return results

    @staticmethod
    def _oversubscribed(
        plans: List[PlacementPlan],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]],
    ) -> bool:
        """Does the merged usage of the shard plans exceed any host?"""
        totals: Dict[str, int] = {}
        for plan in plans:
            for sw, cores in plan.cores_by_switch().items():
                totals[sw] = totals.get(sw, 0) + cores
        for sw, cores in totals.items():
            if cores > int(available_cores.get(sw, 0)):
                return True
        if available_memory_gb is not None:
            mem_totals: Dict[str, float] = {}
            for plan in plans:
                for sw, mem in plan.memory_by_switch().items():
                    mem_totals[sw] = mem_totals.get(sw, 0.0) + mem
            for sw, mem in mem_totals.items():
                if mem > float(available_memory_gb.get(sw, 0.0)) + 1e-9:
                    return True
        return False

    def _split_capacity(
        self,
        classes: Sequence[TrafficClass],
        split: CapacitySplit,
        plans: List[PlacementPlan],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]],
    ) -> None:
        """Divide every host among the shards: the price-adjustment step.

        Weights are the shards' LP-derived usage from the round that
        oversubscribed — what each shard's relaxation actually asked for,
        the best seed available — floored by the structural demand proxy
        so hosts idle this round keep a sensible share for later
        snapshots.  After the proportional split, grants sum to at most
        each host's capacity, which makes the merged plan of the next
        round feasible by construction; a repair pass then guarantees
        every class one host big enough for its largest NF (an 8-core IDS
        must fit somewhere on the path).  Mutates the cached split —
        subsequent snapshots inherit the learned prices and warm-solve
        against them.
        """
        if split.demand is None:
            split.demand = _demand_weights(
                classes, split.shard_lists, available_cores, self.catalog
            )
        weights: List[Dict[str, float]] = []
        for s, plan in enumerate(plans):
            usage = plan.cores_by_switch()
            floor = split.demand[s]
            merged = {
                sw: float(usage.get(sw, 0)) + 1e-3 * floor.get(sw, 0.0)
                for sw in set(usage) | set(floor)
            }
            weights.append(merged)
        before_total = sum(sum(a.values()) for a in split.cores)
        split.cores = _allocate(weights, available_cores)
        _repair_allocation(
            split.cores, classes, split.shard_lists, available_cores,
            self.catalog,
        )
        split.constrained = True
        reclaimed = max(
            0, before_total - sum(sum(a.values()) for a in split.cores)
        )
        self.reclaimed_cores_total += reclaimed
        if obs.REGISTRY.enabled and reclaimed:
            obs.metric("solver_shard_reclaimed_cores_total").inc(reclaimed)
        if split.memory is not None and available_memory_gb is not None:
            split.memory = [
                {
                    sw: float(available_memory_gb.get(sw, 0.0))
                    * grant
                    / max(1, int(available_cores.get(sw, 1)))
                    for sw, grant in alloc.items()
                }
                for alloc in split.cores
            ]

    def _reclaim_slack(
        self,
        classes: Sequence[TrafficClass],
        split: CapacitySplit,
        plans: List,
        failed: List[int],
        available_cores: Mapping[str, int],
        available_memory_gb: Optional[Mapping[str, float]],
    ) -> List[int]:
        """Re-grant everything the committed shards left unused.

        A shard infeasible under its contention share gets, at every
        host, the capacity minus what the *other* shards' committed plans
        actually consume — the under-users' slack, reclaimed.  With
        several failed shards the slack is split among them proportional
        to their previous grants.  Only the failed shards re-solve.
        """
        core_usage = [
            plan.cores_by_switch() if isinstance(plan, PlacementPlan) else {}
            for plan in plans
        ]
        slack_avail: Dict[str, int] = {}
        for sw, cap in available_cores.items():
            committed = sum(
                core_usage[s].get(sw, 0)
                for s in range(len(plans))
                if s not in failed
            )
            slack_avail[sw] = max(0, int(cap) - committed)
        # Previous grants as weights: a shard that was starved somewhere
        # keeps its claim shape, scaled up to the reclaimed slack.
        weights: List[Dict[str, float]] = [
            (
                {
                    sw: float(max(split.cores[s].get(sw, 0), 1))
                    for sw in slack_avail
                    if slack_avail[sw] > 0
                }
                if s in failed
                else {}
            )
            for s in range(len(plans))
        ]
        grants = _allocate(weights, slack_avail)
        failed_lists = [split.shard_lists[s] for s in failed]
        failed_alloc = [grants[s] for s in failed]
        _repair_allocation(
            failed_alloc, classes, failed_lists, slack_avail, self.catalog
        )
        reclaimed = 0
        for s, alloc in zip(failed, failed_alloc):
            reclaimed += max(
                0, sum(alloc.values()) - sum(split.cores[s].values())
            )
            split.cores[s] = alloc
            if split.memory is not None and available_memory_gb is not None:
                split.memory[s] = {
                    sw: float(available_memory_gb.get(sw, 0.0))
                    * grant
                    / max(1, int(available_cores.get(sw, 1)))
                    for sw, grant in alloc.items()
                }
        self.reclaimed_cores_total += reclaimed
        if obs.REGISTRY.enabled and reclaimed:
            obs.metric("solver_shard_reclaimed_cores_total").inc(reclaimed)
        return list(failed)

    def _merge(
        self,
        classes: Sequence[TrafficClass],
        plans: List[PlacementPlan],
        started: float,
    ) -> PlacementPlan:
        """Union the shard plans into one :class:`PlacementPlan`.

        Quantities of a (switch, NF) slot sum across shards; class keys
        never collide (a class lives in exactly one shard).  A final trim
        recomputes each slot's needed instance count from the *merged*
        load — shards sharing a slot each paid their own Eq. 5 ceiling,
        and the sum of per-shard ceilings over-provisions by up to one
        instance per shard.  The reported ``lp_bound`` is the sum of
        shard bounds — valid for each shard's *relaxed or restricted*
        subproblem, an approximation (not a certified bound) of the joint
        LP optimum.
        """
        quantities: Dict[Tuple[str, str], int] = {}
        distribution: Dict[Tuple[str, int, int], float] = {}
        clamped: Dict[str, TrafficClass] = {}
        lp_bound = 0.0
        for plan in plans:
            for slot, count in plan.quantities.items():
                quantities[slot] = quantities.get(slot, 0) + count
            distribution.update(plan.distribution)
            for cls in plan.classes:
                clamped[cls.class_id] = cls
            lp_bound += plan.lp_bound
        merged_classes = [clamped[c.class_id] for c in classes]

        # Trim cross-shard rounding waste: the merged load at a slot needs
        # ceil(load / derated Cap_n) instances, never the sum of per-shard
        # ceilings.  Uses the same headroom-derated capacity the engine
        # plans with, so the trimmed plan still validates.
        load: Dict[Tuple[str, str], float] = {}
        for (cid, i, j), frac in distribution.items():
            if frac <= 0:
                continue
            cls = clamped[cid]
            slot = (cls.path[i], cls.chain[j])
            load[slot] = load.get(slot, 0.0) + cls.rate_mbps * frac
        for slot in list(quantities):
            cap = (
                self.catalog.get(slot[1]).capacity_mbps
                * self.config.capacity_headroom
            )
            needed = int(math.ceil(load.get(slot, 0.0) / cap - 1e-9))
            if needed < quantities[slot]:
                if needed > 0:
                    quantities[slot] = needed
                else:
                    del quantities[slot]

        return PlacementPlan(
            quantities=quantities,
            distribution=distribution,
            classes=merged_classes,
            catalog=self.catalog,
            objective=float(sum(quantities.values())),
            lp_bound=float(lp_bound),
            solve_seconds=time.perf_counter() - started,
            warm_start=all(p.warm_start for p in plans),
        )
