"""Cheapest-first admission control — the verdicts an overload may adopt.

When a flash crowd outruns every possible scale-out, the loop must shed
load rather than violate policy.  This is the greedy form of Sallam et
al.'s SFC-constrained max-flow admission: flows are ranked by shed cost
``(SLO weight, offered rate, class id)`` ascending (:func:`shed_order`),
and the candidate verdicts walk that order — state 0 admits everything,
then each victim in turn is first rate-degraded to its SLO's
``degrade_floor`` (when the floor is below 1) and then shed entirely.  A
victim is fully shed before the next (more expensive) victim is touched,
so shedding is *strictly* cheapest-first (pinned by the hypothesis test).

The sequence travels in compact form inside one
:class:`~repro.tenancy.intents.Replan` — the planning rates plus each
victim's id and degrade floor — and the tenant worker picks the verdict
with :func:`admit`, asking the placement model itself: ``place()`` on
state 0; when that refuses, a bisection of the rest on the model's LP
relaxation (exactly monotone along the sequence: shedding only removes
demand); then ``place()`` again from the smallest relaxation-feasible
state on, fully shedding the current victim after each refusal.  An
overload costs one intent and O(log n) relaxation solves.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.elastic.slo import DEFAULT_SLO, SLOClass


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


class Candidates:
    """The cheapest-first verdicts of one overload, indexed from 0: each
    is ``(shed class ids, planning Mbps per admitted class id)``.

    State 0 admits every class at ``rates``; then, for each victim in
    order, a degrade state (its rate × floor, when the floor is below 1)
    and a shed state.  A state that would shed every class admits nothing
    and is not a verdict, so it is left out.

    Args:
        rates: planning Mbps per class id (state 0).
        victims: ``(class id, degrade floor)`` in shed order; ids are
            distinct and among ``rates``.
    """

    def __init__(
        self, rates: Mapping[str, float], victims: Sequence[Tuple[str, float]]
    ) -> None:
        self.rates = dict(rates)
        self.victims = tuple(victims)
        #: Per state: (victims shed, whether the next victim is degraded).
        self._states: List[Tuple[int, bool]] = [(0, False)]
        for i, (_, floor) in enumerate(self.victims):
            self._states += [(i, True)] * (floor < 1.0) + [(i + 1, False)]
        if len(self.victims) == len(self.rates):
            self._states.pop()  # sheds everything

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, k: int) -> Tuple[Tuple[str, ...], Dict[str, float]]:
        shed_n, degraded = self._states[k]
        shed = tuple(cid for cid, _ in self.victims[:shed_n])
        rates = dict(self.rates)
        for cid in shed:
            del rates[cid]
        if degraded:
            cid, floor = self.victims[shed_n]
            rates[cid] = rates[cid] * floor
        return shed, rates

    def shed_next(self, k: int) -> int:
        """The state that fully sheds state ``k``'s current victim: the one
        it degrades, else the next one (``len(self)`` past the last)."""
        shed = (self._states[k][0] + 1, False)
        return next(
            (j for j in range(k + 1, len(self)) if self._states[j] == shed),
            len(self),
        )


def admit(
    candidates: Candidates,
    relaxed: Callable[[int], bool],
    fits: Callable[[int], bool],
) -> Optional[int]:
    """The index of the first candidate the placement model accepts, or
    None when only shedding everything would fit.

    ``fits(k)`` places state ``k`` for real (``place()``; it is not
    monotone along the sequence); ``relaxed(k)`` says whether state
    ``k``'s LP relaxation is feasible, which is monotone — once true, true
    for every later state — and is necessary for ``fits``.  State 0 is
    placed first; after a refusal, states ``1 … len - 1`` are bisected on
    ``relaxed`` (at most ⌈log2 len⌉ probes) and ``fits`` confirms from the
    smallest relaxation-feasible state on, each refusal fully shedding the
    current victim (:meth:`Candidates.shed_next`).
    """
    if fits(0):
        return 0
    lo, hi = 1, len(candidates)
    while lo < hi:
        mid = (lo + hi) // 2
        if relaxed(mid):
            hi = mid
        else:
            lo = mid + 1
    k = lo
    while k < len(candidates):
        if fits(k):
            return k
        k = candidates.shed_next(k)
    return None
