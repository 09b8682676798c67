"""Online placement: admit new flows without re-running global optimisation.

Sec. IV: "The Optimization Engine may apply global optimization that
computes a VNF placement plan for all current flows or online placement for
any new flows ... Online algorithms are for our future research."  This
module implements that future-work path: newly arriving classes are placed
incrementally against the current deployment's residual capacity, never
moving existing assignments (so installed rules stay valid), and released
when their flows expire.

Algorithm: per class, a shortest-path DP over (chain step, path position)
pairs.  Placing step j at position i costs 0 when an existing instance of
the step's NF at that switch has spare capacity, or the instance's resource
footprint when a new instance must be launched; transitions only move
forward along the path, so chain order (Eq. 3) holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.placement import PlacementPlan
from repro.traffic.classes import TrafficClass
from repro.vnf.types import DEFAULT_CATALOG, NFTypeCatalog

_INF = float("inf")


class OnlinePlacementError(RuntimeError):
    """Raised when a new class cannot be admitted with residual capacity."""


@dataclass
class OnlineDecision:
    """The placement chosen for one admitted class.

    Attributes:
        class_id: the admitted class.
        positions: chosen path position per chain step (non-decreasing).
        new_instances: (switch, nf) slots where an instance was launched.
    """

    class_id: str
    positions: Tuple[int, ...]
    new_instances: Tuple[Tuple[str, str], ...]


class OnlinePlacer:
    """Incremental admission of classes against residual capacity.

    Args:
        available_cores: A_v per switch (total, not residual).
        catalog: NF datasheets.
        base_plan: optional existing global plan whose instances and loads
            seed the placer's state (new flows fill existing spare first).
        capacity_headroom: plannable fraction of instance capacity, matching
            the global engine's knob.
    """

    def __init__(
        self,
        available_cores: Mapping[str, int],
        catalog: NFTypeCatalog = DEFAULT_CATALOG,
        base_plan: Optional[PlacementPlan] = None,
        capacity_headroom: float = 1.0,
    ) -> None:
        if not 0 < capacity_headroom <= 1:
            raise ValueError("capacity_headroom must be in (0, 1]")
        self.catalog = catalog
        self.capacity_headroom = capacity_headroom
        self.available_cores = dict(available_cores)
        self.quantities: Dict[Tuple[str, str], int] = {}
        self.loads: Dict[Tuple[str, str], float] = {}
        self.cores_used: Dict[str, int] = {}
        self._admitted: Dict[str, Tuple[TrafficClass, OnlineDecision]] = {}

        if base_plan is not None:
            self.quantities.update(base_plan.quantities)
            for slot, load in base_plan.load_by_slot().items():
                self.loads[slot] = load
            for switch, cores in base_plan.cores_by_switch().items():
                self.cores_used[switch] = cores

    # ------------------------------------------------------------------
    def _cap(self, nf_name: str) -> float:
        return self.catalog.get(nf_name).capacity_mbps * self.capacity_headroom

    def spare(self, slot: Tuple[str, str]) -> float:
        """Unused (headroom-derated) capacity at a slot."""
        return self._cap(slot[1]) * self.quantities.get(slot, 0) - self.loads.get(
            slot, 0.0
        )

    def free_cores(self, switch: str) -> int:
        return self.available_cores.get(switch, 0) - self.cores_used.get(switch, 0)

    # ------------------------------------------------------------------
    def admit(self, cls: TrafficClass) -> OnlineDecision:
        """Place a new class; mutates state only on success.

        Raises:
            OnlinePlacementError: no feasible assignment with residual
                capacity (the caller should trigger global re-optimisation).
        """
        if cls.class_id in self._admitted:
            raise OnlinePlacementError(f"class {cls.class_id!r} already admitted")

        path_len = cls.path_length
        chain_len = cls.chain_length
        if not chain_len:
            # Nothing to place: the class rides its path untouched.
            decision = OnlineDecision(cls.class_id, (), ())
            self._admitted[cls.class_id] = (cls, decision)
            return decision
        # cost[j][i]: minimal new-instance cores to serve steps 0..j with
        # step j at position i.  parent[j][i]: best predecessor position.
        cost = [[_INF] * path_len for _ in range(chain_len)]
        parent = [[-1] * path_len for _ in range(chain_len)]

        def step_cost(j: int, i: int) -> float:
            nf_name = cls.chain[j]
            nf = self.catalog.get(nf_name)
            slot = (cls.path[i], nf_name)
            if self.spare(slot) >= cls.rate_mbps - 1e-9:
                return 0.0
            # How many new instances would this step need here?
            deficit = cls.rate_mbps - max(self.spare(slot), 0.0)
            added = math.ceil(deficit / self._cap(nf_name) - 1e-12)
            if self.free_cores(cls.path[i]) < added * nf.cores:
                return _INF
            return float(added * nf.cores)

        for i in range(path_len):
            cost[0][i] = step_cost(0, i)
        for j in range(1, chain_len):
            best_prev, best_prev_i = _INF, -1
            for i in range(path_len):
                if cost[j - 1][i] < best_prev:
                    best_prev, best_prev_i = cost[j - 1][i], i
                c = step_cost(j, i)
                if best_prev + c < cost[j][i]:
                    cost[j][i] = best_prev + c
                    parent[j][i] = best_prev_i

        end = min(range(path_len), key=lambda i: cost[chain_len - 1][i])
        if cost[chain_len - 1][end] == _INF:
            raise OnlinePlacementError(
                f"class {cls.class_id!r}: no feasible online placement; "
                "re-run global optimisation"
            )

        positions = [0] * chain_len
        positions[chain_len - 1] = end
        for j in range(chain_len - 1, 0, -1):
            positions[j - 1] = parent[j][positions[j]]

        # NOTE: the DP's per-switch core costs are additive per step; when
        # two steps share a switch the combined cost could exceed the
        # budget even though each fits alone — verify before committing.
        new_instances = self._stage_and_apply(cls, positions)
        decision = OnlineDecision(cls.class_id, tuple(positions), tuple(new_instances))
        self._admitted[cls.class_id] = (cls, decision)
        return decision

    def _stage_and_apply(
        self, cls: TrafficClass, positions: Sequence[int]
    ) -> List[Tuple[str, str]]:
        staged_q: Dict[Tuple[str, str], int] = {}
        staged_cores: Dict[str, int] = {}
        staged_load: Dict[Tuple[str, str], float] = {}
        for j, i in enumerate(positions):
            nf_name = cls.chain[j]
            nf = self.catalog.get(nf_name)
            slot = (cls.path[i], nf_name)
            pending_load = staged_load.get(slot, 0.0)
            spare = (
                self._cap(nf_name)
                * (self.quantities.get(slot, 0) + staged_q.get(slot, 0))
                - self.loads.get(slot, 0.0)
                - pending_load
            )
            deficit = cls.rate_mbps - max(spare, 0.0)
            if deficit > 1e-9:
                added = math.ceil(deficit / self._cap(nf_name) - 1e-12)
                staged_q[slot] = staged_q.get(slot, 0) + added
                staged_cores[cls.path[i]] = (
                    staged_cores.get(cls.path[i], 0) + added * nf.cores
                )
            staged_load[slot] = pending_load + cls.rate_mbps
        for switch, cores in staged_cores.items():
            if self.free_cores(switch) < cores:
                raise OnlinePlacementError(
                    f"class {cls.class_id!r}: switch {switch!r} cannot host "
                    "the combined new instances of multiple chain steps"
                )
        # Commit.
        new_instances: List[Tuple[str, str]] = []
        for slot, added in staged_q.items():
            self.quantities[slot] = self.quantities.get(slot, 0) + added
            new_instances.extend([slot] * added)
        for switch, cores in staged_cores.items():
            self.cores_used[switch] = self.cores_used.get(switch, 0) + cores
        for slot, load in staged_load.items():
            self.loads[slot] = self.loads.get(slot, 0.0) + load
        return new_instances

    # ------------------------------------------------------------------
    def release(self, class_id: str) -> None:
        """Remove an admitted class's load (instances stay warm).

        Instances are intentionally not torn down — the Optimization
        Engine's next periodic run reclaims them; online release must be
        cheap and rule-stable.
        """
        if class_id not in self._admitted:
            raise KeyError(f"class {class_id!r} was not admitted online")
        cls, decision = self._admitted.pop(class_id)
        for j, i in enumerate(decision.positions):
            slot = (cls.path[i], cls.chain[j])
            self.loads[slot] = max(0.0, self.loads.get(slot, 0.0) - cls.rate_mbps)

    def admitted_classes(self) -> List[str]:
        return sorted(self._admitted)

    def to_plan(self) -> PlacementPlan:
        """A PlacementPlan covering the online-admitted classes.

        Distribution entries are whole-class (online never splits); the
        plan can feed the standard sub-class + Rule Generator pipeline.
        """
        distribution: Dict[Tuple[str, int, int], float] = {}
        classes = []
        for cls, decision in self._admitted.values():
            classes.append(cls)
            for j, i in enumerate(decision.positions):
                distribution[(cls.class_id, i, j)] = 1.0
        return PlacementPlan(
            quantities=dict(self.quantities),
            distribution=distribution,
            classes=classes,
            catalog=self.catalog,
            objective=float(sum(self.quantities.values())),
        )
