"""The APPLE central controller: the glue of Fig. 1.

Wires the control-plane applications together: classes are built from a
traffic matrix + routing + policies, the Optimization Engine computes a
placement, sub-classes realise it, the Rule Generator installs data-plane
rules, and the Dynamic Handler watches for overload.  Examples and
integration tests drive the system through this façade.  The controller
computes and installs the day-0 deployment; after day 0 a live stack is
owned by a :class:`~repro.tenancy.worker.TenantWorker` (the scenario
runner adopts the controller's engine, rule generator and deployment into
a one-tenant orchestrator), which is the only code that re-plans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.engine import EngineConfig, OptimizationEngine
from repro.core.placement import PlacementPlan
from repro.core.reconfigure import Deployment, bootstrap, realize
from repro.core.rulegen import RuleGenerator
from repro.dataplane.network import DeliveryRecord
from repro.dataplane.packet import Packet
from repro.sim.kernel import Simulator
from repro.topology.graph import Topology
from repro.topology.routing import Router
from repro.traffic.classes import ClassBuilder, PolicyAssignment, TrafficClass
from repro.traffic.matrix import TrafficMatrix
from repro.vnf.types import DEFAULT_CATALOG, NFTypeCatalog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.dynamic import DynamicHandler, FailoverConfig
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

        Day 0 (:meth:`deploy`) wrote the rendered rules through the
        southbound applier directly, with no message; the fabric blesses
        that rendered state as its desired epoch 0 — a no-op on the wire —
        and every later rule change then flows through acked, transactional
        southbound pushes to the same applier.
        """
        if self.deployment is None:
            raise RuntimeError("deploy a placement before attaching southbound")
        fabric.adopt(
            self.deployment.rules,
            self.deployment.plan.classes,
            self.deployment.instances,
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
        from repro.core.dynamic import DynamicHandler
        from repro.core.metrics import free_cores_after

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
