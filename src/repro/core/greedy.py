"""First-fit greedy placement heuristic.

Places whole classes (largest first) at single path positions, reusing
instances with spare capacity before opening new ones.  Used as a solver
ablation baseline, and optionally by the Optimization Engine as a second
candidate whose objective is compared against LP-relaxation rounding
(``EngineConfig.compare_greedy``) — neither heuristic dominates the other
across load regimes.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.engine import PlacementError
from repro.core.placement import PlacementPlan
from repro.traffic.classes import TrafficClass
from repro.vnf.types import DEFAULT_CATALOG, NFTypeCatalog


def greedy_placement(
    classes: Sequence[TrafficClass],
    available_cores: Mapping[str, int],
    catalog: NFTypeCatalog = DEFAULT_CATALOG,
    capacity_headroom: float = 1.0,
    available_memory_gb: Optional[Mapping[str, float]] = None,
) -> PlacementPlan:
    """First-fit heuristic: whole classes at single path positions.

    Classes are processed in descending rate order.  For each chain step
    the heuristic picks the earliest path position (at or after the
    previous step's position, preserving order) where adding the class's
    load fits within the switch's core budget (and memory budget, when
    given), preferring slots whose already-placed instances have spare
    capacity.

    Raises:
        PlacementError: when some class cannot be placed anywhere.
    """
    if not 0 < capacity_headroom <= 1:
        raise PlacementError("capacity_headroom must be in (0, 1]")
    load: Dict[Tuple[str, str], float] = {}  # (switch, nf) -> assigned Mbps
    cores_used: Dict[str, int] = {}
    memory_used: Dict[str, float] = {}
    distribution: Dict[Tuple[str, int, int], float] = {}

    def cap_of(nf_name: str) -> float:
        return catalog.get(nf_name).capacity_mbps * capacity_headroom

    def q_for(slot: Tuple[str, str], extra: float) -> int:
        return math.ceil((load.get(slot, 0.0) + extra) / cap_of(slot[1]) - 1e-12)

    def fits(slot: Tuple[str, str], extra: float) -> bool:
        switch, nf_name = slot
        nf = catalog.get(nf_name)
        added_instances = q_for(slot, extra) - q_for(slot, 0.0)
        added_cores = added_instances * nf.cores
        budget = available_cores.get(switch, 0)
        if cores_used.get(switch, 0) + added_cores > budget:
            return False
        if available_memory_gb is None:
            return True
        added_memory = added_instances * nf.memory_gb
        memory = available_memory_gb.get(switch, 0.0)
        return memory_used.get(switch, 0.0) + added_memory <= memory + 1e-9

    for cls in sorted(classes, key=lambda c: (-c.rate_mbps, c.class_id)):
        prev_pos = 0
        for j, nf_name in enumerate(cls.chain):
            placed = False
            # First pass: reuse a slot with spare capacity (no new instance).
            for want_spare in (True, False):
                for i in range(prev_pos, cls.path_length):
                    switch = cls.path[i]
                    if available_cores.get(switch, 0) <= 0:
                        continue
                    slot = (switch, nf_name)
                    adds_instance = q_for(slot, cls.rate_mbps) > q_for(slot, 0.0)
                    if want_spare and adds_instance:
                        continue
                    if not fits(slot, cls.rate_mbps):
                        continue
                    old_q = q_for(slot, 0.0)
                    load[slot] = load.get(slot, 0.0) + cls.rate_mbps
                    new_q = q_for(slot, 0.0)
                    nf = catalog.get(nf_name)
                    cores_used[switch] = (
                        cores_used.get(switch, 0) + (new_q - old_q) * nf.cores
                    )
                    memory_used[switch] = (
                        memory_used.get(switch, 0.0)
                        + (new_q - old_q) * nf.memory_gb
                    )
                    distribution[(cls.class_id, i, j)] = 1.0
                    prev_pos = i
                    placed = True
                    break
                if placed:
                    break
            if not placed:
                raise PlacementError(
                    f"greedy: class {cls.class_id!r} step {j} ({nf_name}) "
                    "fits nowhere on its path"
                )

    quantities = {
        slot: max(1, math.ceil(rate / cap_of(slot[1]) - 1e-12))
        for slot, rate in load.items()
    }
    return PlacementPlan(
        quantities=quantities,
        distribution=distribution,
        classes=list(classes),
        catalog=catalog,
        objective=float(sum(quantities.values())),
    )
