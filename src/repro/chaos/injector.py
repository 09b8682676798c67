"""The fault injector: applies a schedule to a live simulation.

Each :class:`~repro.chaos.schedule.FaultEvent` becomes one (or, for
self-lifting faults, two) sim-kernel events.  Applying a fault mutates the
*ground truth* only — the topology failure overlay, the data-plane failed
link set, and the affected VNF instances — never the tenant worker's view;
the detector has to notice, and recovery has to react, exactly as in a
real deployment.

Invalidation contract: a link failure changes which hops are reachable,
and a VM kill or brownout changes which instances a resolved walk may
visit, so every applied or lifted fault moves the
network's rule epoch (:meth:`DataPlaneNetwork.invalidate_plans` /
``set_link_failed``).  That retires every resolved walk plan and, with
them, the columnar data plane's walker and its penalty box, so the next
inject re-resolves against the mutated ground truth.  The walkers read an
instance's ``running`` flag and admission budget live, so a fault is
visible to the very next packet even before the epoch is consulted.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence

from repro import obs
from repro.chaos.metrics import ChaosMetrics
from repro.chaos.schedule import FaultEvent, FaultKind
from repro.vnf.instance import VNFInstance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.tenancy.worker import TenantWorker


class FaultInjector:
    """Arms a :class:`FaultSchedule` on a simulator and applies its faults.

    Args:
        worker: the tenant worker owning the live deployment (its
            ``deployment`` and its orchestrator's ``topo`` are the ground
            truth being broken; ``SWITCH_DISCONNECT`` events sever a
            switch's control channel on its fabric, not its data plane).
        schedule: what to break, when — a :class:`FaultSchedule`, or any
            sequence of fault events (the scenario runner concatenates
            its data-plane and control-plane schedules).
        metrics: event-plane recorder.
    """

    def __init__(
        self,
        worker: "TenantWorker",
        schedule: Sequence[FaultEvent],
        metrics: ChaosMetrics,
    ) -> None:
        self.sim = worker.orch.sim
        self.worker = worker
        self.schedule = schedule
        self.metrics = metrics
        self.applied: List[FaultEvent] = []
        #: Brownout target objects, so a lift never restores a replacement.
        self._browned: Dict[str, VNFInstance] = {}

    # ------------------------------------------------------------------
    def arm(self) -> int:
        """Schedule every fault (and lift) on the simulator; returns count."""
        for event in self.schedule:
            self.sim.schedule_at(event.time, self._apply, args=(event,))
            if event.lift_time is not None:
                self.sim.schedule_at(event.lift_time, self._lift, args=(event,))
        return len(self.schedule)

    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        with obs.span("chaos.inject", cat="chaos"):
            deployment = self.worker.deployment
            network = deployment.network
            topo = self.worker.orch.topo
            if event.kind is FaultKind.LINK_FLAP:
                u, v = event.link_endpoints()
                topo.fail_link(u, v)
                network.set_link_failed(u, v, True)
            elif event.kind is FaultKind.HOST_CRASH:
                topo.fail_host(event.target)
                seen = set()
                for inst in network.vswitch_at(event.target).instances():
                    if id(inst) not in seen:
                        seen.add(id(inst))
                        inst.shutdown()
                network.invalidate_plans()
            elif event.kind is FaultKind.VNF_CRASH:
                inst = deployment.instances.get(event.target)
                if inst is not None and inst.running:
                    inst.shutdown()
                    network.invalidate_plans()
            elif event.kind is FaultKind.BROWNOUT:
                inst = deployment.instances.get(event.target)
                if inst is not None and inst.running:
                    inst.degrade(event.severity)
                    self._browned[event.target] = inst
                    network.invalidate_plans()
            elif event.kind is FaultKind.SWITCH_DISCONNECT:
                # Control plane only: installed rules keep forwarding, but
                # every southbound leg to/from this switch is lost until
                # the lift.  No plan invalidation — the data plane is
                # untouched by construction.
                self.worker.fabric.disconnect(event.target)
            self.applied.append(event)
            self.metrics.fault_applied(event, self.sim.now)

    def _lift(self, event: FaultEvent) -> None:
        deployment = self.worker.deployment
        network = deployment.network
        topo = self.worker.orch.topo
        if event.kind is FaultKind.LINK_FLAP:
            u, v = event.link_endpoints()
            topo.restore_link(u, v)
            network.set_link_failed(u, v, False)
        elif event.kind is FaultKind.BROWNOUT:
            target = self._browned.pop(event.target, None)
            current = deployment.instances.get(event.target)
            # Restore only if the degraded VM is still the one in service —
            # recovery may have replaced it with a fresh instance already.
            if target is not None and current is target and target.running:
                target.degrade(1.0)
                network.invalidate_plans()
        elif event.kind is FaultKind.SWITCH_DISCONNECT:
            self.worker.fabric.reconnect(event.target)
        self.metrics.fault_lifted(event, self.sim.now)
