"""Baselines and comparison frameworks.

* :data:`FRAMEWORK_COMPARISON` — Table I's qualitative property matrix.
* :func:`ingress_placement` — the *ingress* strawman of Sec. IX-D:
  "consolidates all the VNFs of the policy chain in the ingress switch and
  enforce policy there for each class".  Each class gets dedicated
  instances at its ingress — no resource multiplexing between classes,
  which is exactly the benefit APPLE's Fig. 11 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

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
