"""The elastic control loop: observe → decide → admit → re-plan.

:class:`ElasticController` is the executive around the pure decision
core.  Each tick it reads offered load (a seeded pure function of sim
time), computes a :class:`~repro.elastic.monitor.UtilizationSnapshot`
against the *deployed* plan, and feeds the bottleneck utilization
through the hysteresis bands.  An action submits the cheapest-first
candidate verdicts — planning rates ``offered / target_utilization`` (so
post-action utilization lands in the dead band), each victim's id and
degrade floor — as one :class:`~repro.tenancy.intents.Replan` intent to
the tenant worker owning the deployment, which chaos recovery's intents
also reach: it adopts the first verdict that places
(:func:`~repro.elastic.admission.admit`) when its epoch converges, under
the failure view, behind any open recovery epoch.  A refusal means only
shedding every class would fit; the loop counts it and waits.

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

from typing import TYPE_CHECKING, Callable, Dict, Mapping, Optional

from repro.core.placement import diff_plans
from repro.core.reconfigure import Outcome
from repro.elastic.admission import shed_order
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
        #: SLO class per class id of the blueprint (in chain-id order).
        self.slo_map: Dict[str, SLOClass] = {
            c.class_id: (slo_map or {}).get(c.class_id, DEFAULT_SLO)
            for c in worker.chains.values()
        }

        self.state = HysteresisState()
        #: Rate caps of the degraded classes in the last converged verdict.
        self.degraded_caps: Dict[str, float] = {}
        self.metrics = ElasticMetrics(TICK_INTERVAL)
        self._pending: Optional[ScaleAction] = None
        self._drained_before = 0
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
        for cid in self.slo_map:
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
    # Action execution
    # ------------------------------------------------------------------
    def _act(
        self, direction: str, offered: Mapping[str, float], snap: UtilizationSnapshot
    ) -> None:
        target = HYSTERESIS.target_utilization
        rates = {
            cid: offered[cid] / target
            for cid in sorted(self.slo_map)
            if offered.get(cid, 0.0) > 0
        }
        if not rates:
            self.metrics.placement_failures += 1
            return
        self._pending = ScaleAction(
            round(self.sim.now, 6), direction, round(snap.max_utilization, 6)
        )
        order = shed_order(rates, offered, self.slo_map)
        record = self.worker.orch.submit(
            Replan(
                self.worker.tenant_id,
                tuple(rates.items()),
                tuple((cid, self.slo_map[cid].degrade_floor) for cid in order),
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
        action, self._pending = self._pending, None
        if outcome is None:
            # Nothing but shedding every class fits the live pool.
            self.metrics.placement_failures += 1
            return
        # The verdict the worker adopted at convergence: a degraded class's
        # planning rate is below offered / target at the action's instant.
        rates, offered = self.worker.rates, self.offered_fn(record.submitted_at)
        target = HYSTERESIS.target_utilization
        self.degraded_caps = {
            cid: offered[cid] * slo.degrade_floor
            for cid, slo in self.slo_map.items()
            if cid in rates and rates[cid] < offered[cid] / target
        }
        action.shed = len(self.worker.shed)
        action.degraded = len(self.degraded_caps)
        action.admitted = len(self.slo_map) - action.shed - action.degraded
        action.epoch = outcome.convergence.epoch
        action.converged_at = round(outcome.convergence.converged_at, 6)
        action.drained = self.worker.fabric.drained_total - self._drained_before
        action.verify_ok = outcome.report.ok
        self.metrics.record_action(action)
