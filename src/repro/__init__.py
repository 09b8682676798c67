"""APPLE: an NFV orchestration framework for interference-free policy enforcement.

A full-system Python reproduction of Li & Qian, ICDCS 2016.  APPLE places
virtual network function instances *on* the existing forwarding paths of
traffic classes — never re-routing them — so that policy chains
(firewall → IDS → proxy, ...) are enforced while routing and traffic
engineering stay untouched, and every instance is an isolated VM.

Quickstart::

    from repro import AppleController, internet2, STANDARD_CHAINS
    from repro.traffic import gravity_matrix
    from repro.traffic.classes import hashed_assignment

    topo = internet2()
    controller = AppleController(topo, hashed_assignment(STANDARD_CHAINS))
    deployment = controller.run(gravity_matrix(topo, total_mbps=20_000))
    print(deployment.plan.total_instances(), "instances placed")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import (
    AppleController,
    DynamicHandler,
    EngineConfig,
    OptimizationEngine,
    PlacementPlan,
    RuleGenerator,
    assign_subclasses,
    ingress_placement,
)
from repro.sim import Simulator
from repro.topology import as3679, geant, internet2, load_topology, Topology, univ1
from repro.traffic import gravity_matrix, synthesize_series, TrafficMatrix
from repro.vnf import DEFAULT_CATALOG, PolicyChain, STANDARD_CHAINS

__version__ = "1.0.0"

__all__ = [
    "AppleController",
    "OptimizationEngine",
    "EngineConfig",
    "PlacementPlan",
    "DynamicHandler",
    "RuleGenerator",
    "assign_subclasses",
    "ingress_placement",
    "Simulator",
    "Topology",
    "internet2",
    "geant",
    "univ1",
    "as3679",
    "load_topology",
    "TrafficMatrix",
    "gravity_matrix",
    "synthesize_series",
    "PolicyChain",
    "STANDARD_CHAINS",
    "DEFAULT_CATALOG",
    "__version__",
]
