"""The elastic control loop: observe → decide → admit → re-plan.

:class:`ElasticController` is the executive around the pure decision
core.  Each tick it reads offered load (a seeded pure function of sim
time), computes a :class:`~repro.elastic.monitor.UtilizationSnapshot`
against the *deployed* plan, and feeds the bottleneck utilization
through the hysteresis bands.  An action re-runs admission control over
the full offered demand and hands the verdict — shed ids, and planning
rates ``offered / target_utilization`` (so post-action utilization lands
in the dead band) — to the controller's one re-plan step
(:meth:`~repro.core.controller.AppleController.desired_classes` →
``place_live`` → ``push``), the one chaos recovery runs: the failure view
applies to every push, and the verdict is adopted only when its epoch
converges.  If a recovery push replaces the epoch first, it re-plans
under the previous converged verdict, the action is recorded as
*superseded* and the next tick re-decides from the live utilization.

Shed flows go through the same ingress-quarantine mechanism chaos
recovery uses for stranded classes: their rules are withdrawn and a
DROP guards their ingress, so probes against them black-hole (counted
as downtime by the chaos probe loop) instead of traversing a policy
chain partially — which is how a run that sheds under a flash crowd
still reports **zero policy-violation-seconds**.

Determinism: offered load is a pure function of (seed, time); the
decision core is pure in (:data:`HYSTERESIS`, snapshot); placement is the
seeded warm-start engine.  Reruns with the same seed are bit-identical,
and a loop that is never started arms no timer, leaving existing
scenarios byte-for-byte unchanged.
"""

from __future__ import annotations

import math

from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.core.controller import AppleController
from repro.core.engine import PlacementError
from repro.core.placement import PlacementPlan, diff_plans
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
from repro.sim.kernel import Simulator, Timer
from repro.southbound.fabric import SouthboundFabric


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
        sim: the shared simulator (also driving the fabric and chaos).
        controller: the APPLE controller owning the deployment; its one
            re-plan step places and commits each verdict.
        fabric: the southbound fabric attached to ``controller``
            (constructed with ``drain_retired=True`` so scale-in
            actually retires instances at convergence).
        offered_fn: pure function ``sim time -> offered Mbps per class
            id`` (baseline × flash-crowd multiplier).
        slo_map: SLO class per class id; absent ids get
            :data:`~repro.elastic.slo.DEFAULT_SLO`.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: AppleController,
        fabric: SouthboundFabric,
        offered_fn: Callable[[float], Mapping[str, float]],
        slo_map: Optional[Mapping[str, SLOClass]] = None,
    ) -> None:
        if controller.deployment is None:
            raise ValueError("controller has no deployment to scale")
        if controller.southbound is not fabric:
            raise ValueError("attach the fabric to the controller first")
        self.sim = sim
        self.controller = controller
        self.fabric = fabric
        self.offered_fn = offered_fn
        self.catalog = controller.catalog
        self.headroom = controller.engine.config.capacity_headroom
        self.slo_map: Dict[str, SLOClass] = {
            cid: (slo_map or {}).get(cid, DEFAULT_SLO) for cid in controller.day0
        }

        self.state = HysteresisState()
        #: Rate caps of the degraded classes in the last converged verdict.
        self.degraded_caps: Dict[str, float] = {}
        self.metrics = ElasticMetrics(TICK_INTERVAL)
        self._pending: Optional[ScaleAction] = None
        self._timer: Optional[Timer] = None

    @property
    def shed_ids(self) -> Tuple[str, ...]:
        """Shed class ids of the last converged verdict (the controller's)."""
        return self.controller.shed_ids

    @property
    def plan(self) -> PlacementPlan:
        """The deployed plan — whoever committed it (this loop or recovery)."""
        return self.controller.deployment.plan

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
        shed = set(self.shed_ids)
        for cid in self.controller.day0:
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
            now, self.plan, load, self.catalog, self.headroom
        )
        busy = (
            self._pending is not None
            or self.fabric.converged_epoch < self.fabric.epoch
        )
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
        direction: admission sheds minimally, and the controller's
        ``place_live`` remains the authoritative oracle (a
        ``PlacementError`` bumps ``extra_shed`` and re-runs the oracle).
        """
        target = HYSTERESIS.target_utilization
        day0 = self.controller.day0
        demand: Dict[str, float] = {}
        for cid, rate in admitted.items():
            if rate <= 0:
                continue
            planning = rate / target
            for nf_name in day0[cid].chain:
                demand[nf_name] = demand.get(nf_name, 0.0) + planning
        need = 0
        for nf_name, nf_demand in demand.items():
            spec = self.catalog.get(nf_name)
            cap = spec.capacity_mbps * self.headroom
            need += max(1, math.ceil(nf_demand / cap - 1e-9)) * spec.cores
        return need <= sum(self.controller.available_cores().values())

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------
    def _act(
        self,
        direction: str,
        offered: Mapping[str, float],
        snap: UtilizationSnapshot,
    ) -> None:
        controller = self.controller
        target = HYSTERESIS.target_utilization
        extra = 0
        while True:
            admission = admission_control(
                sorted(controller.day0),
                offered,
                self.slo_map,
                self._fits,
                extra_shed=extra,
            )
            rates = {
                cid: rate / target
                for cid, rate in admission.admitted_rates().items()
            }
            if not rates:
                self.metrics.placement_failures += 1
                return
            shed = admission.shed_ids()
            classes, stranded, _ = controller.desired_classes(shed, rates)
            try:
                plan = controller.place_live(classes)
                break
            except PlacementError:
                # The exact ILP overruled the fluid bound: shed the next
                # victim (same canonical order) and try again.
                self.metrics.placement_failures += 1
                extra += 1
                if extra > len(controller.day0):
                    return

        if plan.warm_start:
            self.metrics.resolves_warm += 1
        else:
            self.metrics.resolves_cold += 1
        delta = diff_plans(self.plan, plan)
        admitted_n, degraded_n, shed_n = admission.counts()
        action = ScaleAction(
            time=round(self.sim.now, 6),
            direction=direction,
            trigger_utilization=round(snap.max_utilization, 6),
            classes=len(classes),
            admitted=admitted_n,
            degraded=degraded_n,
            shed=shed_n,
            planned_instances=plan.total_instances(),
            planned_cores=plan.total_cores(),
            warm=plan.warm_start,
            added=len(delta.added),
            retired=len(delta.retired),
        )
        self._pending = action
        drained_before = self.fabric.drained_total

        def done(outcome: Outcome) -> None:
            self._pending = None
            if outcome.superseded:
                self.metrics.superseded.append(action)
                return
            self.degraded_caps = admission.degraded_caps()
            action.epoch = outcome.convergence.epoch
            action.converged_at = round(outcome.convergence.converged_at, 6)
            action.drained = self.fabric.drained_total - drained_before
            action.verify_ok = outcome.report.ok
            self.metrics.record_action(action)

        controller.push(plan, stranded, done, shed, rates)
