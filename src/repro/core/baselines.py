"""Baselines and comparison frameworks.

* :data:`FRAMEWORK_COMPARISON` — Table I's qualitative property matrix.
* :func:`ingress_placement` — the *ingress* strawman of Sec. IX-D:
  "consolidates all the VNFs of the policy chain in the ingress switch and
  enforce policy there for each class".  Each class gets dedicated
  instances at its ingress — no resource multiplexing between classes,
  which is exactly the benefit APPLE's Fig. 11 quantifies.
* :func:`greedy_placement` — the first-fit heuristic of the solver
  ablation (never a path of the Optimization Engine): entire classes
  assigned to single path positions, instances shared between classes at
  the same slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from repro.core.engine import PlacementError
from repro.core.placement import PlacementPlan
from repro.traffic.classes import TrafficClass
from repro.vnf.types import DEFAULT_CATALOG, NFTypeCatalog


@dataclass(frozen=True)
class FrameworkProperties:
    """One row of Table I."""

    name: str
    policy_enforcement: bool
    interference_free: bool
    isolation: bool


#: Table I — comparison of NF orchestration frameworks.
FRAMEWORK_COMPARISON: Tuple[FrameworkProperties, ...] = (
    FrameworkProperties("StEERING", True, False, True),
    FrameworkProperties("SIMPLE", True, False, True),
    FrameworkProperties("PACE", False, True, True),
    FrameworkProperties("CoMb", True, True, False),
    FrameworkProperties("Stratos", True, False, True),
    FrameworkProperties("E2", True, False, True),
    FrameworkProperties("VNF-OP", True, False, True),
    FrameworkProperties("APPLE", True, True, True),
)


def ingress_placement(
    classes: Sequence[TrafficClass],
    catalog: NFTypeCatalog = DEFAULT_CATALOG,
) -> PlacementPlan:
    """The ingress strawman: per-class dedicated instances at the ingress.

    Every class gets ceil(T_h / Cap_n) (at least one) instances of each NF
    in its chain at its ingress switch.  No multiplexing across classes and
    no attention to available resources — the paper uses it purely as the
    hardware-usage comparison point of Fig. 11.
    """
    quantities: Dict[Tuple[str, str], int] = {}
    distribution: Dict[Tuple[str, int, int], float] = {}
    for cls in classes:
        for j, nf_name in enumerate(cls.chain):
            nf = catalog.get(nf_name)
            count = max(1, nf.instances_for(cls.rate_mbps))
            key = (cls.src, nf_name)
            quantities[key] = quantities.get(key, 0) + count
            distribution[(cls.class_id, 0, j)] = 1.0
    return PlacementPlan(
        quantities=quantities,
        distribution=distribution,
        classes=list(classes),
        catalog=catalog,
        objective=float(sum(quantities.values())),
    )


def greedy_placement(
    classes: Sequence[TrafficClass],
    available_cores: Mapping[str, int],
    catalog: NFTypeCatalog = DEFAULT_CATALOG,
) -> PlacementPlan:
    """First-fit heuristic: whole classes at single path positions.

    Classes are processed in descending rate order.  For each chain step
    the heuristic picks the earliest path position (at or after the
    previous step's position, preserving order) where adding the class's
    load fits within the switch's core budget, preferring slots whose
    already-placed instances have spare capacity.

    Raises:
        PlacementError: when some class cannot be placed anywhere.
    """
    load: Dict[Tuple[str, str], float] = {}  # (switch, nf) -> assigned Mbps
    cores_used: Dict[str, int] = {}
    distribution: Dict[Tuple[str, int, int], float] = {}

    def q_for(slot: Tuple[str, str], extra: float) -> int:
        cap = catalog.get(slot[1]).capacity_mbps
        return math.ceil((load.get(slot, 0.0) + extra) / cap - 1e-12)

    for cls in sorted(classes, key=lambda c: (-c.rate_mbps, c.class_id)):
        prev_pos = 0
        for j, nf_name in enumerate(cls.chain):
            nf = catalog.get(nf_name)
            placed = False
            # First pass: reuse a slot with spare capacity (no new instance).
            for want_spare in (True, False):
                for i in range(prev_pos, cls.path_length):
                    switch = cls.path[i]
                    budget = available_cores.get(switch, 0)
                    if budget <= 0:
                        continue
                    slot = (switch, nf_name)
                    added = q_for(slot, cls.rate_mbps) - q_for(slot, 0.0)
                    if want_spare and added:
                        continue
                    if cores_used.get(switch, 0) + added * nf.cores > budget:
                        continue
                    load[slot] = load.get(slot, 0.0) + cls.rate_mbps
                    cores_used[switch] = cores_used.get(switch, 0) + added * nf.cores
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
        slot: max(1, math.ceil(rate / catalog.get(slot[1]).capacity_mbps - 1e-12))
        for slot, rate in load.items()
    }
    return PlacementPlan(
        quantities=quantities,
        distribution=distribution,
        classes=list(classes),
        catalog=catalog,
        objective=float(sum(quantities.values())),
    )
