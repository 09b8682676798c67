"""The elastic control loop: observe → decide → re-place → push → drain.

:class:`ElasticController` is the executive around the pure decision
core.  Each tick it reads offered load (a seeded pure function of sim
time), computes a :class:`~repro.elastic.monitor.UtilizationSnapshot`
against the *deployed* plan, and feeds the bottleneck utilization
through the hysteresis bands.  An action re-runs admission control over
the full offered demand, warm-start re-places the admitted classes at
``offered / target_utilization`` (so post-action utilization lands in
the hysteresis dead band), and commits the new rules through the one
commit step (:func:`repro.core.reconfigure.commit`) — a make-before-break
epoch on the southbound fabric.  At epoch convergence the fabric drains
instances the new plan no longer references, the controller's
deployment is swapped and ``verify_deployment`` has audited the result,
exactly like the chaos recovery path.  If another committer (a recovery
reconvergence) replaces the epoch first, the action is recorded as
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

from typing import Callable, Dict, Mapping, Optional, Set

from repro.core.controller import AppleController
from repro.core.engine import PlacementError
from repro.core.placement import PlacementPlan, diff_plans
from repro.core.reconfigure import Outcome, commit, realize
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
from repro.traffic.classes import TrafficClass


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
        controller: the APPLE controller owning the deployment; its
            engine provides warm-start re-placement, its rule generator
            the new rule set.
        fabric: the southbound fabric (constructed with
            ``drain_retired=True`` so scale-in actually retires
            instances at convergence).
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
        self.sim = sim
        self.controller = controller
        self.fabric = fabric
        self.offered_fn = offered_fn
        self.catalog = controller.catalog
        self.headroom = controller.engine.config.capacity_headroom
        #: The full class population at baseline rates — admission
        #: always re-decides over this set, so shed flows are
        #: re-admitted as soon as capacity allows.
        self.base: Dict[str, TrafficClass] = {
            c.class_id: c for c in controller.deployment.plan.classes
        }
        self.slo_map: Dict[str, SLOClass] = {
            cid: (slo_map or {}).get(cid, DEFAULT_SLO) for cid in self.base
        }
        self.available_cores = controller.available_cores()
        self.available_memory = controller.available_memory_gb()
        self.total_cores = sum(self.available_cores.values())

        self.state = HysteresisState()
        self.shed_ids: Set[str] = set()
        self.degraded_caps: Dict[str, float] = {}
        self.metrics = ElasticMetrics(TICK_INTERVAL)
        self._pending: Optional[ScaleAction] = None
        self._timer: Optional[Timer] = None
        #: Optional write-ahead journal (repro.resilience): every scale
        #: decision is logged before its epoch opens.
        self.journal = None

    # ------------------------------------------------------------------
    # Crash tolerance (see repro.resilience)
    # ------------------------------------------------------------------
    def attach_journal(self, journal) -> None:
        self.journal = journal

    def checkpoint_state(self) -> dict:
        """The loop's control state for a resilience checkpoint."""
        return {
            "hysteresis": {"above": self.state.above, "below": self.state.below},
            "shed_ids": sorted(self.shed_ids),
            "degraded_caps": {
                cid: self.degraded_caps[cid] for cid in sorted(self.degraded_caps)
            },
            "pending": self._pending is not None,
        }

    def restore_state(self, snap: dict) -> None:
        """Adopt a checkpointed control state after recovery.

        A pending (mid-push) action is dropped, not resumed: its epoch
        never converged, so the deployed plan — re-read from the
        controller — is still the pre-action one, and the next tick
        re-decides from the same utilization signal.
        """
        self.state = HysteresisState(
            above=int(snap["hysteresis"]["above"]),
            below=int(snap["hysteresis"]["below"]),
        )
        self.shed_ids = set(snap["shed_ids"])
        self.degraded_caps = dict(snap["degraded_caps"])
        self._pending = None

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
        for cid in self.base:
            if cid in self.shed_ids:
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
        direction: admission sheds minimally, and ``engine.place``
        remains the authoritative oracle (a ``PlacementError`` bumps
        ``extra_shed`` and re-runs the oracle).
        """
        target = HYSTERESIS.target_utilization
        demand: Dict[str, float] = {}
        for cid, rate in admitted.items():
            if rate <= 0:
                continue
            planning = rate / target
            for nf_name in self.base[cid].chain:
                demand[nf_name] = demand.get(nf_name, 0.0) + planning
        need = 0
        for nf_name, nf_demand in demand.items():
            spec = self.catalog.get(nf_name)
            cap = spec.capacity_mbps * self.headroom
            need += max(1, math.ceil(nf_demand / cap - 1e-9)) * spec.cores
        return need <= self.total_cores

    # ------------------------------------------------------------------
    # Action execution
    # ------------------------------------------------------------------
    def _act(
        self,
        direction: str,
        offered: Mapping[str, float],
        snap: UtilizationSnapshot,
    ) -> None:
        engine = self.controller.engine
        target = HYSTERESIS.target_utilization
        extra = 0
        while True:
            admission = admission_control(
                sorted(self.base),
                offered,
                self.slo_map,
                self._fits,
                extra_shed=extra,
            )
            planning = {
                cid: rate / target
                for cid, rate in admission.admitted_rates().items()
            }
            if not planning:
                self.metrics.placement_failures += 1
                return
            plan_classes = [
                self.base[cid].with_rate(planning[cid]) for cid in sorted(planning)
            ]
            warm_before = engine.warm_solves
            try:
                plan = engine.place(
                    plan_classes,
                    self.available_cores,
                    available_memory_gb=self.available_memory,
                )
                break
            except PlacementError:
                # The exact ILP overruled the fluid bound: shed the next
                # victim (same canonical order) and try again.
                self.metrics.placement_failures += 1
                extra += 1
                if extra > len(self.base):
                    return

        warm = engine.warm_solves > warm_before
        if warm:
            self.metrics.resolves_warm += 1
        else:
            self.metrics.resolves_cold += 1

        subclass_plan, rules = realize(self.controller.rule_generator, plan)
        delta = diff_plans(self.plan, plan)
        shed = admission.shed_ids()
        stranded = {cid: self.base[cid].src for cid in shed}
        admitted_n, degraded_n, shed_n = admission.counts()
        action = ScaleAction(
            time=round(self.sim.now, 6),
            direction=direction,
            trigger_utilization=round(snap.max_utilization, 6),
            classes=len(plan_classes),
            admitted=admitted_n,
            degraded=degraded_n,
            shed=shed_n,
            planned_instances=plan.total_instances(),
            planned_cores=plan.total_cores(),
            warm=warm,
            added=len(delta.added),
            retired=len(delta.retired),
        )
        if self.journal is not None:
            # Write-ahead: the decision is journaled before the epoch it
            # drives ever opens on the fabric.
            from repro.resilience.journal import SCALE

            self.journal.append(
                SCALE,
                {
                    "time": action.time,
                    "direction": action.direction,
                    "trigger_utilization": action.trigger_utilization,
                    "classes": action.classes,
                    "admitted": action.admitted,
                    "degraded": action.degraded,
                    "shed": action.shed,
                    "planned_instances": action.planned_instances,
                    "planned_cores": action.planned_cores,
                    "warm": action.warm,
                },
                time=self.sim.now,
            )
        self._pending = action
        drained_before = self.fabric.drained_total

        def done(outcome: Outcome) -> None:
            self._pending = None
            if outcome.superseded:
                self.metrics.superseded.append(action)
                return
            self.shed_ids = set(shed)
            self.degraded_caps = admission.degraded_caps()
            self.controller.deployment = outcome.deployment
            action.epoch = outcome.convergence.epoch
            action.converged_at = round(outcome.convergence.converged_at, 6)
            action.drained = self.fabric.drained_total - drained_before
            action.verify_ok = outcome.report.ok
            self.metrics.record_action(action)

        commit(
            self.fabric,
            plan,
            subclass_plan,
            rules,
            stranded=stranded,
            on_done=done,
        )
