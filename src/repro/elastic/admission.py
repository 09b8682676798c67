"""Cheapest-first admission control — the capacity-exhaustion oracle.

When a flash crowd outruns every possible scale-out, the loop must shed
load rather than violate policy.  This is the greedy form of Sallam et
al.'s SFC-constrained max-flow admission: flows are ranked by shed cost
``(SLO weight, offered rate, class id)`` ascending, and the oracle walks
that order — first rate-degrading a victim to its SLO's ``degrade_floor``,
then shedding it entirely — until the injected ``feasible`` callback
accepts the admitted rate vector.  A victim is fully shed before the
next (more expensive) victim is touched, so shedding is *strictly*
cheapest-first (pinned by the hypothesis test).

``admission_control`` is a pure function of its arguments; the
feasibility callback is the only coupling to the placement model.  The
loop passes a closed-form chain-core bound as ``feasible`` and keeps
``engine.place`` as the authoritative oracle: on a ``PlacementError``
it re-runs the oracle with ``extra_shed`` bumped, which sheds the next
victims in the same canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.elastic.slo import DEFAULT_SLO, SLOClass

ADMIT = "admit"
DEGRADE = "degrade"
SHED = "shed"


@dataclass(frozen=True)
class AdmissionDecision:
    """The oracle's verdict for one traffic class."""

    class_id: str
    action: str
    slo: str
    offered_mbps: float
    admitted_mbps: float

@dataclass(frozen=True)
class AdmissionPlan:
    """All per-class verdicts for one admission run (sorted by class id)."""

    decisions: Tuple[AdmissionDecision, ...]
    feasible: bool

    def admitted_rates(self) -> Dict[str, float]:
        """Admitted Mbps per class (shed classes excluded)."""
        return {
            d.class_id: d.admitted_mbps
            for d in self.decisions
            if d.action != SHED and d.admitted_mbps > 0
        }

    def shed_ids(self) -> Tuple[str, ...]:
        return tuple(d.class_id for d in self.decisions if d.action == SHED)

    def degraded_caps(self) -> Dict[str, float]:
        """Rate caps (admitted Mbps) for degraded classes."""
        return {
            d.class_id: d.admitted_mbps for d in self.decisions if d.action == DEGRADE
        }

    def counts(self) -> Tuple[int, int, int]:
        """(admitted, degraded, shed) class counts."""
        admitted = sum(1 for d in self.decisions if d.action == ADMIT)
        degraded = sum(1 for d in self.decisions if d.action == DEGRADE)
        shed = sum(1 for d in self.decisions if d.action == SHED)
        return admitted, degraded, shed


def shed_order(
    class_ids: Sequence[str],
    offered: Mapping[str, float],
    slo_map: Mapping[str, SLOClass],
) -> List[str]:
    """Victim order: ascending (SLO weight, offered rate, class id).

    The cheapest flow — lowest SLO weight, then smallest rate — is
    degraded/shed first; the class id tiebreak keeps the order total
    and therefore deterministic.
    """

    def cost(cid: str) -> Tuple[float, float, str]:
        slo = slo_map.get(cid, DEFAULT_SLO)
        return (slo.weight, float(offered.get(cid, 0.0)), cid)

    return sorted(class_ids, key=cost)


def admission_control(
    class_ids: Sequence[str],
    offered: Mapping[str, float],
    slo_map: Mapping[str, SLOClass],
    feasible: Callable[[Mapping[str, float]], bool],
    extra_shed: int = 0,
) -> AdmissionPlan:
    """Run the oracle: admit everything the capacity model can carry.

    Args:
        class_ids: the candidate population.
        offered: offered Mbps per class id.
        slo_map: SLO class per class id (``DEFAULT_SLO`` when absent).
        feasible: accepts an admitted-rate vector iff capacity suffices.
        extra_shed: after feasibility is reached, fully shed this many
            additional victims in canonical order — the loop's escape
            hatch when the closed-form bound said "fits" but the exact
            placement ILP disagreed.
    """
    order = shed_order(class_ids, offered, slo_map)
    admitted: Dict[str, float] = {
        cid: max(0.0, float(offered.get(cid, 0.0))) for cid in class_ids
    }
    actions: Dict[str, str] = {cid: ADMIT for cid in class_ids}

    idx = 0
    reached = feasible(admitted)
    while not reached and idx < len(order):
        cid = order[idx]
        slo = slo_map.get(cid, DEFAULT_SLO)
        if slo.degrade_floor < 1.0 and admitted[cid] > 0:
            admitted[cid] = admitted[cid] * slo.degrade_floor
            actions[cid] = DEGRADE
            if feasible(admitted):
                reached = True
                break
        admitted[cid] = 0.0
        actions[cid] = SHED
        idx += 1
        reached = feasible(admitted)

    remaining = extra_shed
    while remaining > 0 and idx < len(order):
        cid = order[idx]
        if actions[cid] != SHED:
            admitted[cid] = 0.0
            actions[cid] = SHED
            remaining -= 1
        idx += 1

    decisions = tuple(
        AdmissionDecision(
            class_id=cid,
            action=actions[cid],
            slo=slo_map.get(cid, DEFAULT_SLO).name,
            offered_mbps=max(0.0, float(offered.get(cid, 0.0))),
            admitted_mbps=admitted[cid],
        )
        for cid in sorted(class_ids)
    )
    return AdmissionPlan(decisions=decisions, feasible=reached)
