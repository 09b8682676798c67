"""Evaluation metrics: TCAM accounting and free-core budgets.

The TCAM accounting here is analytic (rule counting), matching how Fig. 10
is computed: the *with-tagging* scheme installs classification rules only
at each class's ingress switch plus one host-match rule per APPLE host in
use and a pass-by rule per switch; the *without-tagging* baseline must
install every sub-class's classification (prefix-expanded) on **every**
switch the class's traffic can traverse — all ECMP paths in data centers,
which is why UNIV1 shows the largest reduction.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.classify.split import range_to_cidr_count
from repro.core.placement import PlacementPlan
from repro.core.subclasses import SubclassPlan
from repro.topology.graph import Topology
from repro.topology.routing import Router
from repro.traffic.classes import TrafficClass

HASH_BITS = 16  # resolution of hash-range → prefix-rule expansion


def hash_range_entries(lo: float, hi: float, bits: int = HASH_BITS) -> int:
    """TCAM slots to match the hash interval [lo, hi) with prefix rules."""
    size = 1 << bits
    start = int(round(lo * size))
    stop = int(round(hi * size)) - 1
    if stop < start:
        return 1
    return range_to_cidr_count(start, stop, bits=bits)


def tcam_usage_with_tagging(
    topo: Topology,
    classes: Sequence[TrafficClass],
    subclass_plan: SubclassPlan,
) -> Dict[str, int]:
    """Per-switch TCAM slots under the tagging scheme (Sec. V-B).

    One host-match rule per APPLE host in use, plus each sub-class's
    classification rules at its class's ingress switch only.  (The pass-by
    fall-through to other applications' tables exists under both schemes
    and is not an APPLE policy-enforcement cost.)
    """
    usage: Dict[str, int] = {}
    hosts_in_use = {ref.switch for ref in subclass_plan.instance_load}
    for switch in hosts_in_use:
        usage[switch] = usage.get(switch, 0) + 1  # host-match rule
    for cls in classes:
        for sub in subclass_plan.subclasses(cls.class_id):
            usage[cls.src] = usage.get(cls.src, 0) + hash_range_entries(
                *sub.hash_range
            )
    return usage


def tcam_usage_without_tagging(
    topo: Topology,
    classes: Sequence[TrafficClass],
    subclass_plan: SubclassPlan,
    router: Optional[Router] = None,
) -> Dict[str, int]:
    """Per-switch TCAM slots without tagging.

    Without tags in the packet, every switch a class's traffic may
    traverse must carry the full sub-class classification to make its own
    steering decision (with ECMP, the union of all equal-cost paths — the
    reason data-center multipath makes tagging most valuable).  Switches
    whose host a sub-class visits additionally need the classification on
    the *return* leg from the host, since the untagged packet re-enters
    the pipeline there.
    """
    usage: Dict[str, int] = {}
    for cls in classes:
        if router is not None:
            switches = set()
            for path in router.paths(cls.src, cls.dst):
                switches.update(path)
        else:
            switches = set(cls.path)
        for sub in subclass_plan.subclasses(cls.class_id):
            entries = hash_range_entries(*sub.hash_range)
            for sw in switches:
                usage[sw] = usage.get(sw, 0) + entries
            for sw in set(sub.switches()):
                usage[sw] = usage.get(sw, 0) + entries  # return-leg rules
    return usage


def tcam_reduction_ratio(
    topo: Topology,
    classes: Sequence[TrafficClass],
    subclass_plan: SubclassPlan,
    router: Optional[Router] = None,
) -> float:
    """Total TCAM without tagging / with tagging (Fig. 10's metric)."""
    with_tag = sum(tcam_usage_with_tagging(topo, classes, subclass_plan).values())
    without = sum(
        tcam_usage_without_tagging(topo, classes, subclass_plan, router).values()
    )
    return without / with_tag if with_tag > 0 else float("inf")


def free_cores_after(
    plan: PlacementPlan, available_cores: Mapping[str, int]
) -> Dict[str, int]:
    """Cores still free per switch after deploying ``plan``.

    This is the budget fast failover may dip into for extra instances.
    """
    used = plan.cores_by_switch()
    return {
        sw: int(avail) - used.get(sw, 0) for sw, avail in available_cores.items()
    }
