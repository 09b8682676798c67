"""Network topologies used by the APPLE evaluation (Sec. IX-A).

Provides the topology model (switches, links, attached APPLE hosts), routing
(shortest path and ECMP), the four evaluation datasets — Internet2, GEANT,
UNIV1 and Rocketfuel AS-3679 — and parametric generators for data-center and
ISP-like graphs.
"""

from repro.topology.datasets import (
    as3679,
    geant,
    internet2,
    load_topology,
    TOPOLOGY_LOADERS,
    univ1,
)
from repro.topology.generators import isp_like, two_tier_datacenter
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.topology.routing import all_shortest_paths, NoPath, Router

__all__ = [
    "Topology",
    "Link",
    "AppleHostSpec",
    "Router",
    "NoPath",
    "all_shortest_paths",
    "internet2",
    "geant",
    "univ1",
    "as3679",
    "load_topology",
    "TOPOLOGY_LOADERS",
    "two_tier_datacenter",
    "isp_like",
]
