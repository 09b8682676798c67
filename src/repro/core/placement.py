"""Placement-plan result types produced by the Optimization Engine.

A plan answers two questions (Sec. IV): how many instances of each VNF sit
at each switch (the integer variables q_n^v), and what portion of each
class is processed at each (path position, chain position) pair (the
continuous variables d_{h,j}^i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.traffic.classes import TrafficClass
from repro.vnf.types import NFTypeCatalog


@dataclass(frozen=True, slots=True)
class InstanceRef:
    """A logical instance slot: the k-th instance of NF ``nf`` at ``switch``.

    ``key`` (``"nf[index]@switch"``) names the slot in rules and instance
    maps.
    """

    switch: str
    nf: str
    index: int
    key: str = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Refs key dicts and name rules once per sub-class: the key string
        # and the hash are computed once, here, not on every access.
        object.__setattr__(self, "key", f"{self.nf}[{self.index}]@{self.switch}")
        object.__setattr__(self, "_hash", hash((self.switch, self.nf, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The cached hash is per process: rebuild it on unpickling.
        return (InstanceRef, (self.switch, self.nf, self.index))

    def __repr__(self) -> str:
        return f"InstanceRef({self.key})"


@dataclass
class PlacementPlan:
    """The Optimization Engine's output.

    Attributes:
        quantities: q_n^v — instance count per (switch, nf name).
        distribution: d_{h,j}^i — keyed by (class_id, path index i, chain
            index j); omitted keys mean 0.  Path/chain indices are 0-based.
        classes: the classes the plan was computed for.
        catalog: NF datasheets (for core accounting).
        objective: total instance count (Eq. 1's value).
        lp_bound: LP-relaxation objective (optimality gap reporting).
        solve_seconds: wall time of model build + solve.
        warm_start: True when the engine re-solved a cached
            :class:`~repro.core.engine.PlacementTemplate` instead of
            assembling the LP again.
    """

    quantities: Dict[Tuple[str, str], int]
    distribution: Dict[Tuple[str, int, int], float]
    classes: List[TrafficClass]
    catalog: NFTypeCatalog
    objective: float
    lp_bound: float = 0.0
    solve_seconds: float = 0.0
    warm_start: bool = False

    # ------------------------------------------------------------------
    def quantity(self, switch: str, nf: str) -> int:
        """q_n^v for one (switch, NF) pair."""
        return self.quantities.get((switch, nf), 0)

    def portion(self, class_id: str, path_idx: int, chain_idx: int) -> float:
        """d_{h,j}^i for one (class, path position, chain position)."""
        return self.distribution.get((class_id, path_idx, chain_idx), 0.0)

    def total_instances(self) -> int:
        """The objective: total VNF instances placed."""
        return sum(self.quantities.values())

    def total_cores(self) -> int:
        """CPU cores consumed by all placed instances (Fig. 11 metric)."""
        return sum(
            self.catalog.get(nf).cores * count
            for (_, nf), count in self.quantities.items()
        )

    def cores_by_switch(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for (switch, nf), count in self.quantities.items():
            out[switch] = out.get(switch, 0) + self.catalog.get(nf).cores * count
        return out

    def instance_refs(self) -> List[InstanceRef]:
        """All logical instance slots, deterministically ordered."""
        refs = []
        for (switch, nf), count in sorted(self.quantities.items()):
            refs.extend(InstanceRef(switch, nf, k) for k in range(count))
        return refs

    # ------------------------------------------------------------------
    def load_by_slot(self) -> Dict[Tuple[str, str], float]:
        """Offered load (Mbps) per (switch, nf) under the plan's classes."""
        load: Dict[Tuple[str, str], float] = {}
        class_by_id = {
            c.class_id: (c.path, c.chain.names, c.rate_mbps) for c in self.classes
        }
        for (cid, i, j), frac in self.distribution.items():
            if frac <= 0:
                continue
            path, chain, rate = class_by_id[cid]
            key = (path[i], chain[j])
            load[key] = load.get(key, 0.0) + rate * frac
        return load

    def memory_by_switch(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (switch, nf), count in self.quantities.items():
            out[switch] = out.get(switch, 0.0) + self.catalog.get(nf).memory_gb * count
        return out

    def validate(
        self,
        available_cores: Mapping[str, int],
        tol: float = 1e-6,
        available_memory_gb: Optional[Mapping[str, float]] = None,
    ) -> List[str]:
        """Check the paper's constraints hold; returns violation messages.

        Verifies Eq. 2–8: completion, ordering, capacity, resources,
        non-negativity, and integrality of quantities.
        """
        problems: List[str] = []
        class_by_id = {c.class_id: c for c in self.classes}

        # Eq. 8 + domain checks.
        for (cid, i, j), frac in self.distribution.items():
            if frac < -tol or frac > 1 + tol:
                problems.append(f"d[{cid},{i},{j}]={frac} outside [0,1]")
            cls = class_by_id.get(cid)
            if cls is None:
                problems.append(f"distribution references unknown class {cid}")
            elif i >= cls.path_length or j >= cls.chain_length:
                problems.append(f"d[{cid},{i},{j}] indexes beyond path/chain")

        # Eq. 4 (completion) and Eq. 3 (ordering via cumulative portions).
        for cls in self.classes:
            for j in range(cls.chain_length):
                total = sum(
                    self.portion(cls.class_id, i, j) for i in range(cls.path_length)
                )
                if abs(total - 1.0) > 1e-4:
                    problems.append(
                        f"class {cls.class_id}: chain step {j} processes "
                        f"{total:.6f} of traffic, not 1"
                    )
            for j in range(1, cls.chain_length):
                cum_prev = cum_cur = 0.0
                for i in range(cls.path_length):
                    cum_prev += self.portion(cls.class_id, i, j - 1)
                    cum_cur += self.portion(cls.class_id, i, j)
                    if cum_cur > cum_prev + 1e-4:
                        problems.append(
                            f"class {cls.class_id}: order violated at switch "
                            f"{i} between chain steps {j-1}->{j}"
                        )
                        break

        # Eq. 5 (capacity).
        for (switch, nf), rate in self.load_by_slot().items():
            cap = self.catalog.get(nf).capacity_mbps * self.quantity(switch, nf)
            if rate > cap + 1e-3:
                problems.append(
                    f"capacity exceeded at ({switch}, {nf}): {rate:.3f} > {cap:.3f}"
                )

        # Eq. 6 (resources) and Eq. 7 (integrality/non-negativity).
        for (switch, nf), count in self.quantities.items():
            if count < 0 or int(count) != count:
                problems.append(f"q[{switch},{nf}]={count} not a natural number")
        for switch, cores in self.cores_by_switch().items():
            avail = available_cores.get(switch, 0)
            if cores > avail + tol:
                problems.append(
                    f"switch {switch}: {cores} cores placed, only {avail} available"
                )
        if available_memory_gb is not None:
            for switch, mem in self.memory_by_switch().items():
                avail_mem = available_memory_gb.get(switch, 0.0)
                if mem > avail_mem + tol:
                    problems.append(
                        f"switch {switch}: {mem} GB placed, only "
                        f"{avail_mem} GB available"
                    )
        return problems


@dataclass(frozen=True)
class PlanDelta:
    """The instance-slot difference between two placement plans.

    The elastic loop uses this to report what a scale action actually
    changed: ``added`` slots are materialized by the fabric's next push,
    ``retired`` slots are drained at that push's convergence.
    """

    added: Tuple[str, ...]
    retired: Tuple[str, ...]
    core_delta: int


def diff_plans(old: PlacementPlan, new: PlacementPlan) -> PlanDelta:
    """Slot-level diff ``old -> new``, keyed by :attr:`InstanceRef.key`.

    Slot keys are deterministic (sorted (switch, nf), index-packed), so
    shrinking a quantity retires the highest indices first — exactly the
    keys the southbound drain will stop referencing.
    """
    old_keys = {ref.key for ref in old.instance_refs()}
    new_keys = {ref.key for ref in new.instance_refs()}
    return PlanDelta(
        added=tuple(sorted(new_keys - old_keys)),
        retired=tuple(sorted(old_keys - new_keys)),
        core_delta=new.total_cores() - old.total_cores(),
    )
