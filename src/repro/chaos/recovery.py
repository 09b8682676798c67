"""Interference-free recovery: the controller's reaction to detections.

Pipeline (one reconvergence per detector verdict batch):

1. **reclassify** — every class whose routing path crosses a failed link
   is re-routed by the routing application over the surviving topology
   (interference freedom is *relative to routing*: APPLE follows the
   routing paths it is given, so when routing re-converges the class's
   registered path changes with it).  Classes with no surviving path, or
   no live APPLE host on it, are *stranded*.
2. **re-place** — the Optimization Engine re-solves over surviving
   resources (crashed hosts contribute zero cores).  Re-solves with an
   unchanged class/host structure hit the PR-1 ``PlacementTemplate``
   cache and warm-start.
3. **commit** — the new rules go through the one commit step
   (:func:`repro.core.reconfigure.commit`): an acked make-before-break
   epoch on the southbound fabric, which diffs per switch so untouched
   switches are neither re-read nor rewritten.  Stranded
   classes get an ingress quarantine DROP as part of the same desired
   state — their traffic must black-hole, never pass unprocessed.
4. **verify** — at convergence ``commit`` re-checks policy enforcement,
   interference freedom and isolation on the new deployment; the report
   lands in the convergence record.  An epoch replaced by a later
   reconvergence before it converged is recorded as *superseded*, so
   there is exactly one record per reconvergence.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, List, Sequence, Set, Tuple

import networkx as nx

from repro import obs
from repro.chaos.detector import Detection
from repro.chaos.metrics import ChaosMetrics, ConvergenceRecord
from repro.core.controller import AppleController
from repro.core.engine import PlacementError
from repro.core.placement import PlacementPlan
from repro.core.reconfigure import Outcome, commit, realize
from repro.dataplane.switch import (  # noqa: F401 - tests name quarantine entries
    QUARANTINE_PREFIX as _QUARANTINE_PREFIX,
)
from repro.sim.kernel import Simulator
from repro.topology.graph import Topology
from repro.topology.routing import Router
from repro.traffic.classes import TrafficClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.southbound.fabric import SouthboundFabric


class RecoveryManager:
    """Drives re-placement and rule pushes on detector verdicts.

    Args:
        sim: shared simulator.
        controller: the live controller; its ``deployment`` is swapped
            atomically when a committed epoch converges (the data-plane
            network object is reused — rules mutate in place, exactly
            like a real switch fabric).
        metrics: event-plane recorder.
        fabric: the southbound fabric that owns the deployment's network;
            every commit is an acked transactional push through it.
    """

    def __init__(
        self,
        sim: Simulator,
        controller: AppleController,
        metrics: ChaosMetrics,
        fabric: "SouthboundFabric",
    ) -> None:
        if controller.deployment is None:
            raise RuntimeError("recovery needs a deployed placement")
        self.sim = sim
        self.controller = controller
        self.metrics = metrics
        self.fabric = fabric
        #: The routing application's original input: classes at full rate
        #: on their primary paths.  Recovery always re-derives from this,
        #: so lifted faults converge back to the primary placement.
        self.base_classes: List[TrafficClass] = list(
            controller.deployment.plan.classes
        )
        #: Slot keys whose current VM is known-dead (detector verdicts).
        self.failed_instance_keys: Set[str] = set()
        self.reconvergences = 0

    # ------------------------------------------------------------------
    def on_detections(self, detections: Sequence[Detection]) -> None:
        """Detector callback: record verdicts, react, reconverge once."""
        for d in detections:
            self.metrics.detection(d.kind, d.target, d.time)
            if d.kind == "instance":
                self.failed_instance_keys.add(d.target)
            elif d.kind == "brownout":
                # Operator policy: a degraded VM is replaced, not nursed.
                inst = self.fabric.instances.get(d.target)
                if inst is not None and inst.running:
                    inst.shutdown()
                    self.fabric.network.invalidate_plans()
                self.failed_instance_keys.add(d.target)
        self._reconverge(tuple(f"{d.kind}:{d.target}" for d in detections))

    # ------------------------------------------------------------------
    def _reconverge(self, trigger: Tuple[str, ...]) -> None:
        with obs.span("chaos.recovery", cat="chaos"):
            wall0 = time.perf_counter()
            controller, fabric = self.controller, self.fabric
            topo = controller.topo
            failed_links = topo.failed_links
            router = Router(topo.surviving(), ecmp=controller.router.ecmp)
            live = {
                s: spec for s, spec in topo.hosts.items() if not topo.host_failed(s)
            }
            cores = {s: spec.cores for s, spec in live.items()}
            memory = {s: spec.memory_gb for s, spec in live.items()}

            new_classes: List[TrafficClass] = []
            stranded: List[TrafficClass] = []
            rerouted = 0
            for cls in self.base_classes:
                path = cls.path
                crossed = any(
                    Topology.link_key(a, b) in failed_links
                    for a, b in zip(path, path[1:])
                )
                if crossed:
                    try:
                        path = router.path(cls.src, cls.dst)
                    except nx.NetworkXNoPath:
                        stranded.append(cls)
                        continue
                if not any(cores.get(s, 0) > 0 for s in path):
                    stranded.append(cls)
                    continue
                if tuple(path) != cls.path:
                    rerouted += 1
                    cls = replace(cls, path=tuple(path))
                new_classes.append(cls)

            record = ConvergenceRecord(
                time=self.sim.now,
                trigger=trigger,
                classes=len(new_classes),
                rerouted=rerouted,
                stranded=len(stranded),
            )
            warm_before = controller.engine.warm_solves
            try:
                if new_classes:
                    plan = controller.engine.place(new_classes, cores, memory)
                else:
                    # Everything stranded: nothing to place, but the commit
                    # must still run so the stranded classes get quarantined.
                    plan = PlacementPlan(
                        quantities={},
                        distribution={},
                        classes=[],
                        catalog=controller.catalog,
                        objective=0.0,
                    )
            except PlacementError as exc:
                record.failed, record.failure_reason = True, str(exc)
                record.wall_seconds = time.perf_counter() - wall0
                self.metrics.convergence(record)
                return
            record.warm_start = controller.engine.warm_solves > warm_before
            subclass_plan, rules = realize(controller.rule_generator, plan)
            record.wall_seconds = time.perf_counter() - wall0
        self.reconvergences += 1

        # What is on the wire, not what a (possibly superseded) earlier
        # epoch meant to swap into ``controller.deployment``.
        surviving = {
            key: inst
            for key, inst in fabric.instances.items()
            if inst.running
            and not topo.host_failed(inst.switch)
            and key not in self.failed_instance_keys
        }
        retries_before = fabric.metrics.retries

        def done(outcome: Outcome) -> None:
            record.time = self.sim.now
            record.channel_retries = fabric.metrics.retries - retries_before
            if outcome.superseded:
                record.superseded = True
                self.metrics.convergence(record)
                return
            controller.deployment = outcome.deployment
            instances = outcome.deployment.instances
            self.failed_instance_keys = {
                key for key, inst in instances.items() if not inst.running
            }
            record.switches_updated = fabric.last_push["switches"]
            record.flow_mods = fabric.last_push["ops"]
            record.vswitch_updates = fabric.last_push["vsw_ops"]
            record.instances_created = sum(
                1 for key in instances if key not in surviving
            )
            record.convergence_latency = outcome.convergence.latency
            record.verify_summary = outcome.report.summary()
            record.verify_ok = outcome.report.ok
            self.metrics.convergence(record)

        commit(
            fabric,
            plan,
            subclass_plan,
            rules,
            stranded={c.class_id: c.src for c in stranded},
            instances=surviving,
            on_done=done,
        )
