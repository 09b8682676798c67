"""The APPLE central controller: the glue of Fig. 1.

Wires the control-plane applications together: classes are built from a
traffic matrix + routing + policies, the Optimization Engine computes a
placement, sub-classes realise it, the Rule Generator installs data-plane
rules, and the Dynamic Handler watches for overload.  Examples and
integration tests drive the system through this façade.  After day 0
the controller is also the one re-planner of its live deployment
(:meth:`AppleController.desired_classes` → :meth:`~AppleController.place_live`
→ :meth:`~AppleController.push`): chaos recovery and the elastic loop
only say when, and with which admission verdict.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.dynamic import DynamicHandler, FailoverConfig
from repro.core.engine import EngineConfig, OptimizationEngine
from repro.core.metrics import free_cores_after
from repro.core.placement import PlacementPlan
from repro.core.reconfigure import Deployment, Outcome, bootstrap, commit, realize
from repro.core.rulegen import RuleGenerator
from repro.dataplane.network import DeliveryRecord
from repro.dataplane.packet import Packet
from repro.sim.kernel import Simulator
from repro.topology.graph import Topology
from repro.topology.routing import NoPath, Router
from repro.traffic.classes import ClassBuilder, PolicyAssignment, TrafficClass
from repro.traffic.matrix import TrafficMatrix
from repro.vnf.instance import VNFInstance
from repro.vnf.types import DEFAULT_CATALOG, NFTypeCatalog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.southbound.fabric import SouthboundFabric


class UnknownClassError(KeyError):
    """A class id that is not part of the current deployment.

    Subclasses :class:`KeyError` so pre-existing ``except KeyError``
    handlers keep working; tenancy workers catch this type specifically to
    distinguish a tenant-scoped miss (a class belonging to another tenant,
    or one already deleted) from a genuine mapping bug.
    """

    def __init__(self, class_id: str) -> None:
        super().__init__(f"unknown class {class_id!r}")
        self.class_id = class_id

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class AppleController:
    """End-to-end APPLE controller over one topology.

    Args:
        topo: the network; its ``hosts`` map defines APPLE host capacity.
        assignment: policy assignment mapping (src, dst) → chains+shares.
        catalog: NF datasheets.
        ecmp: whether routing (the interference-free input) uses ECMP.
        engine_config: Optimization Engine tunables.
        min_rate_mbps: demands at or below this are ignored by class building.
    """

    def __init__(
        self,
        topo: Topology,
        assignment: PolicyAssignment,
        catalog: NFTypeCatalog = DEFAULT_CATALOG,
        ecmp: bool = False,
        engine_config: Optional[EngineConfig] = None,
        min_rate_mbps: float = 0.0,
    ) -> None:
        self.topo = topo
        self.catalog = catalog
        self.router = Router(topo, ecmp=ecmp)
        self.class_builder = ClassBuilder(
            self.router, assignment, min_rate_mbps=min_rate_mbps
        )
        self.engine = OptimizationEngine(catalog, engine_config)
        self.rule_generator = RuleGenerator(catalog)
        self.classes: List[TrafficClass] = []
        self.deployment: Optional[Deployment] = None
        #: Resilient control channel; see :meth:`attach_southbound`.
        self.southbound: Optional["SouthboundFabric"] = None
        #: Day-0 classes by id, in day-0 order: every re-plan derives from
        #: these, so lifted faults converge back to the primary placement.
        self.day0: Dict[str, TrafficClass] = {}
        #: Slot keys of instances the failure detector declared dead.
        self.failed_instances: Set[str] = set()
        #: The last converged admission verdict: shed ids (admission order)
        #: and planning Mbps of the admitted and degraded classes.
        self.shed_ids: Tuple[str, ...] = ()
        self.planning_rates: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def available_cores(self) -> Dict[str, int]:
        """A_v (core dimension) per live switch from the host specs."""
        hosts, failed = self.topo.hosts, self.topo.host_failed
        return {s: h.cores for s, h in hosts.items() if not failed(s)}

    def available_memory_gb(self) -> Dict[str, float]:
        """A_v (memory dimension) per live switch from the host specs."""
        hosts, failed = self.topo.hosts, self.topo.host_failed
        return {s: h.memory_gb for s, h in hosts.items() if not failed(s)}

    def build_classes(self, matrix: TrafficMatrix) -> List[TrafficClass]:
        """Aggregate the matrix's demands into equivalence classes."""
        self.classes = self.class_builder.build(matrix)
        return self.classes

    def compute_placement(
        self, matrix: Optional[TrafficMatrix] = None
    ) -> PlacementPlan:
        """Run the Optimization Engine (building classes first if needed)."""
        if matrix is not None:
            self.build_classes(matrix)
        if not self.classes:
            raise ValueError("no traffic classes; pass a matrix or build classes")
        return self.engine.place(
            self.classes,
            self.available_cores(),
            available_memory_gb=self.available_memory_gb(),
        )

    def deploy(
        self, plan: PlacementPlan, sim: Optional[Simulator] = None
    ) -> Deployment:
        """Realise a plan: sub-classes, rules, and a wired data plane."""
        self.deployment = bootstrap(
            self.rule_generator,
            self.topo,
            plan,
            *realize(self.rule_generator, plan),
            sim=sim,
        )
        return self.deployment

    def run(
        self, matrix: TrafficMatrix, sim: Optional[Simulator] = None
    ) -> Deployment:
        """Convenience: classes → placement → deployment in one call."""
        plan = self.compute_placement(matrix)
        return self.deploy(plan, sim=sim)

    def attach_southbound(self, fabric: "SouthboundFabric") -> None:
        """Adopt the current deployment into a southbound fabric.

        The initial install goes through the cold path (:meth:`deploy`);
        the fabric blesses the result as its desired epoch 0 — a no-op on
        the wire — and every later rule change (a re-plan pushed by recovery
        or the elastic loop, reconciler repairs) then flows through acked,
        transactional southbound pushes.  The adopted classes become the
        day-0 set every re-plan starts from.
        """
        if self.deployment is None:
            raise RuntimeError("deploy a placement before attaching southbound")
        fabric.adopt(
            self.deployment.rules,
            self.deployment.plan.classes,
            self.deployment.instances,
        )
        self.southbound = fabric
        self.day0 = {c.class_id: c for c in self.deployment.plan.classes}
        self.failed_instances = set()
        self.shed_ids, self.planning_rates = (), {}

    # ------------------------------------------------------------------
    # The one re-plan step after day 0
    # ------------------------------------------------------------------
    def desired_classes(
        self,
        shed: Optional[Sequence[str]] = None,
        rates: Optional[Dict[str, float]] = None,
    ) -> Tuple[List[TrafficClass], Dict[str, str], int]:
        """The day-0 classes as the failure view and a verdict leave them.

        ``shed`` / ``rates`` is a candidate admission verdict; left out,
        the last converged one applies.  Each day-0 class, in day-0
        order: a shed class is quarantined; any other takes its verdict
        rate (its day-0 rate without one), is re-routed over the
        surviving topology when its path crosses a failed link, and is
        quarantined when no path survives or no live APPLE host is on it.

        Returns:
            ``(classes, stranded, rerouted)``: the classes to place,
            ``class_id -> ingress`` of the quarantined ones (shed ids
            first) and how many classes took a new path.
        """
        if shed is None:
            shed, rates = self.shed_ids, self.planning_rates
        topo = self.topo
        failed_links = topo.failed_links
        cores = self.available_cores()
        stranded = {cid: self.day0[cid].src for cid in shed}
        classes: List[TrafficClass] = []
        rerouted = 0
        router = None
        for cid, cls in self.day0.items():
            if cid in stranded:
                continue
            rate = rates.get(cid)
            if rate is not None:
                cls = cls.with_rate(rate)
            path = cls.path
            if any(
                Topology.link_key(a, b) in failed_links
                for a, b in zip(path, path[1:])
            ):
                if router is None:
                    router = Router(topo.surviving(), ecmp=self.router.ecmp)
                try:
                    path = tuple(router.path(cls.src, cls.dst))
                except NoPath:
                    stranded[cid] = cls.src
                    continue
            if not any(cores.get(s, 0) > 0 for s in path):
                stranded[cid] = cls.src
                continue
            if path != cls.path:
                rerouted += 1
                cls = replace(cls, path=path)
            classes.append(cls)
        return classes, stranded, rerouted

    def place_live(self, classes: Sequence[TrafficClass]) -> PlacementPlan:
        """Place ``classes`` on the live hosts' cores and memory.

        Raises:
            PlacementError: the live hosts cannot carry them.
        """
        if not classes:
            # Everything quarantined: the push still has to install the DROPs.
            return PlacementPlan({}, {}, [], self.catalog, 0.0)
        return self.engine.place(
            classes, self.available_cores(), self.available_memory_gb()
        )

    def surviving_instances(self) -> Dict[str, VNFInstance]:
        """The fabric's instances that run on a live host and are not dead."""
        fabric, topo = self.southbound, self.topo
        if fabric is None:
            raise RuntimeError("attach a southbound fabric before re-planning")
        return {
            key: inst
            for key, inst in fabric.instances.items()
            if inst.running
            and not topo.host_failed(inst.switch)
            and key not in self.failed_instances
        }

    def push(
        self,
        plan: PlacementPlan,
        stranded: Dict[str, str],
        on_done: Callable[[Outcome], None],
        shed: Optional[Sequence[str]] = None,
        rates: Optional[Dict[str, float]] = None,
    ) -> None:
        """Realise a :meth:`place_live` plan and commit it on the fabric.

        The epoch keeps only the :meth:`surviving_instances`.  At
        convergence the deployment is swapped, the dead-instance set
        shrinks to what still does not run, and the verdict ``shed`` /
        ``rates`` (if given) becomes the converged one; ``on_done`` then
        gets the :class:`Outcome`, also when a later push superseded the
        epoch.
        """
        surviving = self.surviving_instances()

        def done(outcome: Outcome) -> None:
            if not outcome.superseded:
                self.deployment = outcome.deployment
                self.failed_instances = {
                    key
                    for key, inst in outcome.deployment.instances.items()
                    if not inst.running
                }
                if shed is not None:
                    self.shed_ids, self.planning_rates = tuple(shed), dict(rates)
            on_done(outcome)

        commit(
            self.southbound,
            plan,
            *realize(self.rule_generator, plan),
            stranded=stranded,
            instances=surviving,
            on_done=done,
        )

    # ------------------------------------------------------------------
    def send_packet(
        self,
        class_id: str,
        flow_hash: float,
        size_bytes: int = 1500,
        now: float = 0.0,
    ) -> DeliveryRecord:
        """Inject one packet of a class into the deployed data plane."""
        if self.deployment is None:
            raise RuntimeError("deploy a placement before sending packets")
        cls = next(
            (c for c in self.deployment.plan.classes if c.class_id == class_id), None
        )
        if cls is None:
            raise UnknownClassError(class_id)
        packet = Packet(
            class_id=class_id,
            flow_hash=flow_hash,
            src=cls.src,
            dst=cls.dst,
            size_bytes=size_bytes,
        )
        return self.deployment.network.inject(packet, now=now)

    def make_dynamic_handler(
        self, config: Optional[FailoverConfig] = None
    ) -> DynamicHandler:
        """A Dynamic Handler bound to the current deployment."""
        if self.deployment is None:
            raise RuntimeError("deploy a placement before creating the handler")
        return DynamicHandler(
            self.deployment.plan,
            self.deployment.subclass_plan,
            self.catalog,
            free_cores=free_cores_after(
                self.deployment.plan, self.available_cores()
            ),
            config=config,
        )
