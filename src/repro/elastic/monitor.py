"""Pure per-NF utilization snapshots over a placement plan.

The scaling loop never inspects simulator internals: its whole view of
the world is a :class:`UtilizationSnapshot` computed from (plan, offered
load) — a pure function, so any (seed, metrics snapshot) pair replays
to the same scaling decision bit for bit.

Utilization is per NF *type*: the demand an NF sees is the summed rate
of every class whose chain contains it, and its capacity is the placed
instance count × per-instance capacity × the engine's headroom derate
(the same Eq. 5 capacity the solver planned against).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.core.placement import PlacementPlan
from repro.vnf.types import NFTypeCatalog


@dataclass(frozen=True)
class UtilizationSnapshot:
    """Per-NF utilization at one instant, plus the max across NFs.

    Attributes:
        time: sim time the snapshot was taken.
        per_nf: (nf name, demand Mbps, capacity Mbps, utilization)
            tuples sorted by NF name.
        max_utilization: the bottleneck NF's utilization (0.0 when the
            plan places nothing).
        offered_mbps: total demand across all classes in the snapshot.
    """

    time: float
    per_nf: Tuple[Tuple[str, float, float, float], ...]
    max_utilization: float
    offered_mbps: float

def utilization_snapshot(
    time: float,
    plan: PlacementPlan,
    load_mbps: Mapping[str, float],
    catalog: NFTypeCatalog,
    headroom: float,
) -> UtilizationSnapshot:
    """Compute per-NF utilization of ``plan`` under ``load_mbps``.

    Args:
        load_mbps: offered rate per class id; classes absent from the
            map (e.g. shed flows) contribute zero demand.
        headroom: the engine's capacity derate (Eq. 5's effective
            per-instance capacity is ``capacity_mbps * headroom``).
    """
    demand: Dict[str, float] = {}
    offered = 0.0
    for cls in plan.classes:
        rate = float(load_mbps.get(cls.class_id, 0.0))
        if rate <= 0:
            continue
        offered += rate
        for nf_name in cls.chain:
            demand[nf_name] = demand.get(nf_name, 0.0) + rate

    counts: Dict[str, int] = {}
    for (_, nf_name), qty in plan.quantities.items():
        counts[nf_name] = counts.get(nf_name, 0) + qty

    rows = []
    max_util = 0.0
    for nf_name in sorted(set(demand) | set(counts)):
        nf_demand = demand.get(nf_name, 0.0)
        spec = catalog.get(nf_name)
        capacity = counts.get(nf_name, 0) * spec.capacity_mbps * headroom
        if capacity > 0:
            util = nf_demand / capacity
        else:
            # Demand with zero placed capacity is an unbounded overload.
            util = float("inf") if nf_demand > 0 else 0.0
        rows.append((nf_name, round(nf_demand, 9), round(capacity, 9), util))
        max_util = max(max_util, util)

    return UtilizationSnapshot(
        time=time,
        per_nf=tuple(rows),
        max_utilization=max_util,
        offered_mbps=round(offered, 9),
    )
