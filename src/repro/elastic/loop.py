"""The elastic control loop: observe → decide → admit → re-plan.

:class:`ElasticController` is the executive around the pure decision
core.  Each tick it reads offered load (a seeded pure function of sim
time), computes a :class:`~repro.elastic.monitor.UtilizationSnapshot`
against the *deployed* plan, and feeds the bottleneck utilization
through the hysteresis bands.  An action re-runs admission control over
the full offered demand and submits the verdict — shed ids, and planning
rates ``offered / target_utilization`` (so post-action utilization lands
in the dead band) — as one :class:`~repro.tenancy.intents.Replan` intent
to the tenant worker owning the deployment, which chaos recovery's
intents also reach: the failure view applies to every re-plan, the
verdict is adopted only when its epoch converges, and an action waits
behind an open recovery epoch instead of replacing it.  A verdict the
exact ILP refuses sheds the next victim and is submitted again at once.

Shed flows go through the ingress quarantine chaos recovery uses for
stranded classes: their rules are withdrawn and a DROP guards their
ingress, so probes against them black-hole instead of traversing a policy
chain partially — which is how a run that sheds under a flash crowd still
reports **zero policy-violation-seconds**.

Determinism: offered load is a pure function of (seed, time); the
decision core is pure in (:data:`HYSTERESIS`, snapshot); placement is the
seeded warm-start engine.  A loop that is never started arms no timer.
"""

from __future__ import annotations

import math

from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional

from repro.core.placement import diff_plans
from repro.core.reconfigure import Outcome
from repro.elastic.admission import admission_control
from repro.elastic.hysteresis import (
    HOLD,
    HysteresisConfig,
    HysteresisState,
    decide,
)
from repro.elastic.metrics import ElasticMetrics, ElasticTick, ScaleAction
from repro.elastic.monitor import UtilizationSnapshot, utilization_snapshot
from repro.elastic.slo import DEFAULT_SLO, SLOClass
from repro.sim.kernel import Timer
from repro.tenancy.intents import IntentRecord, Replan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.tenancy.worker import TenantWorker


#: Watermarks and dwell of the scaling decision (see
#: :mod:`repro.elastic.hysteresis` for why these values cannot flap).
HYSTERESIS = HysteresisConfig()
#: Seconds between control ticks.
TICK_INTERVAL = 0.5
#: Utilization above which a tick counts toward ``slo_violation_seconds``
#: (1.0 = demand exceeded the planned, headroom-derated capacity).
SLO_CEILING = 1.0


class ElasticController:
    """SLO-driven scale-out/in + admission control over one deployment.

    Args:
        worker: the tenant worker owning the deployment (in a played
            scenario, ``World.worker``); it places and commits each
            verdict, and its fabric drains what scale-in retires.
        offered_fn: pure function ``sim time -> offered Mbps per class
            id`` (baseline × flash-crowd multiplier).
        slo_map: SLO class per class id; absent ids get
            :data:`~repro.elastic.slo.DEFAULT_SLO`.
    """

    def __init__(
        self,
        worker: "TenantWorker",
        offered_fn: Callable[[float], Mapping[str, float]],
        slo_map: Optional[Mapping[str, SLOClass]] = None,
    ) -> None:
        self.worker = worker
        self.sim = worker.orch.sim
        self.offered_fn = offered_fn
        self.catalog = worker.engine.catalog
        self.headroom = worker.engine.config.capacity_headroom
        #: The blueprint's chains (NF names) by class id.
        self.chains = {c.class_id: tuple(c.chain.names) for c in worker.chains.values()}
        self.slo_map: Dict[str, SLOClass] = {
            cid: (slo_map or {}).get(cid, DEFAULT_SLO) for cid in self.chains
        }

        self.state = HysteresisState()
        #: Rate caps of the degraded classes in the last converged verdict.
        self.degraded_caps: Dict[str, float] = {}
        self.metrics = ElasticMetrics(TICK_INTERVAL)
        self._pending: Optional[ScaleAction] = None
        #: The action in flight: (direction, offered, snapshot, victims
        #: shed beyond the fluid bound, its admission verdict).
        self._attempt: Optional[tuple] = None
        self._drained_before = 0
        #: ``_fits`` verdicts of the action in flight, by admitted rates:
        #: its re-submissions walk the same admitted vectors again.
        self._fitted: Dict[tuple, bool] = {}
        self._timer: Optional[Timer] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic control tick."""
        if self._timer is None:
            self._timer = self.sim.every(TICK_INTERVAL, self._tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    # The control tick
    # ------------------------------------------------------------------
    def admitted_load(self, offered: Mapping[str, float]) -> Dict[str, float]:
        """Offered load after the current admission verdicts.

        Shed classes contribute nothing; degraded classes are capped at
        their admitted rate.
        """
        load: Dict[str, float] = {}
        shed = set(self.worker.shed)  # the last converged verdict
        for cid in self.chains:
            if cid in shed:
                continue
            rate = float(offered.get(cid, 0.0))
            cap = self.degraded_caps.get(cid)
            load[cid] = min(rate, cap) if cap is not None else rate
        return load

    def _tick(self) -> None:
        now = self.sim.now
        offered = self.offered_fn(now)
        load = self.admitted_load(offered)
        snap = utilization_snapshot(
            now, self.worker.deployment.plan, load, self.catalog, self.headroom
        )
        busy = self._pending is not None or self.worker.queue_depth() > 0
        action = "busy" if busy else HOLD
        if not busy:
            action, self.state = decide(
                HYSTERESIS, self.state, snap.max_utilization
            )
            if action != HOLD:
                self._act(action, offered, snap)
        self.metrics.record_tick(
            ElasticTick(
                time=round(now, 6),
                max_utilization=round(snap.max_utilization, 6),
                offered_mbps=snap.offered_mbps,
                action=action,
                in_flight=busy or action != HOLD,
                slo_violated=snap.max_utilization > SLO_CEILING,
            )
        )

    # ------------------------------------------------------------------
    # Feasibility (the closed-form bound the oracle consults)
    # ------------------------------------------------------------------
    def _fits(self, admitted: Mapping[str, float]) -> bool:
        """Fluid lower bound on the cores a re-placement would need.

        Aggregates demand per NF type and charges ``ceil(demand /
        effective capacity)`` instances — it ignores per-switch packing,
        so it under-estimates the exact ILP's need.  That is the right
        direction: admission sheds minimally, and the worker's placement
        remains the authoritative oracle (a refused verdict is submitted
        again with ``extra_shed`` bumped).
        """
        key = tuple(admitted.values())
        if key not in self._fitted:
            target = HYSTERESIS.target_utilization
            demand: Dict[str, float] = {}
            for cid, rate in admitted.items():
                if rate <= 0:
                    continue
                planning = rate / target
                for nf_name in self.chains[cid]:
                    demand[nf_name] = demand.get(nf_name, 0.0) + planning
            need = 0
            for nf_name, nf_demand in demand.items():
                spec = self.catalog.get(nf_name)
                cap = spec.capacity_mbps * self.headroom
                need += max(1, math.ceil(nf_demand / cap - 1e-9)) * spec.cores
            self._fitted[key] = need <= sum(self.worker.live_cores().values())
        return self._fitted[key]

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------
    def _act(
        self,
        direction: str,
        offered: Mapping[str, float],
        snap: UtilizationSnapshot,
        extra: int = 0,
    ) -> None:
        target = HYSTERESIS.target_utilization
        if not extra:
            self._fitted = {}
        admission = admission_control(
            sorted(self.chains),
            offered,
            self.slo_map,
            self._fits,
            extra_shed=extra,
        )
        rates = {
            cid: rate / target for cid, rate in admission.admitted_rates().items()
        }
        if not rates:
            self.metrics.placement_failures += 1
            self._pending = None
            return
        admitted_n, degraded_n, shed_n = admission.counts()
        self._pending = ScaleAction(
            time=round(self.sim.now, 6),
            direction=direction,
            trigger_utilization=round(snap.max_utilization, 6),
            admitted=admitted_n,
            degraded=degraded_n,
            shed=shed_n,
        )
        self._attempt = (direction, offered, snap, extra, admission)
        record = self.worker.orch.submit(
            Replan(
                self.worker.tenant_id,
                shed=admission.shed_ids(),
                rates=tuple(sorted(rates.items())),
            )
        )
        record.observer = self

    # ------------------------------------------------------------------
    # Worker observer
    # ------------------------------------------------------------------
    def solved(self, record: IntentRecord, view: tuple, plan, kept) -> None:
        if plan is None:
            return
        if plan.warm_start:
            self.metrics.resolves_warm += 1
        else:
            self.metrics.resolves_cold += 1
        delta = diff_plans(self.worker.deployment.plan, plan)
        action = self._pending
        action.classes = len(view[0])
        action.planned_instances = plan.total_instances()
        action.planned_cores = plan.total_cores()
        action.warm = plan.warm_start
        action.added = len(delta.added)
        action.retired = len(delta.retired)
        self._drained_before = self.worker.fabric.drained_total

    def finished(self, record: IntentRecord, outcome: Optional[Outcome]) -> None:
        direction, offered, snap, extra, admission = self._attempt
        if outcome is None:
            self.metrics.placement_failures += 1
            # The exact ILP overruled the fluid bound, or the plan cannot be
            # made before it breaks: shed the next victim (same canonical
            # order) and submit again at once.
            if extra < len(self.chains):
                self._act(direction, offered, snap, extra + 1)
            else:
                self._pending = None
            return
        action, self._pending = self._pending, None
        self.degraded_caps = admission.degraded_caps()
        action.epoch = outcome.convergence.epoch
        action.converged_at = round(outcome.convergence.converged_at, 6)
        action.drained = self.worker.fabric.drained_total - self._drained_before
        action.verify_ok = outcome.report.ok
        self.metrics.record_action(action)
