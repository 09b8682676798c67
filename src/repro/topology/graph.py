"""Topology model: SDN switches, links, and attached APPLE hosts.

In APPLE's network model (Sec. III) every physical node that hosts VNF
instances — an *APPLE host* — hangs off one SDN switch, and the switch
steers packets into and out of the host's vSwitch.  The topology therefore
carries, per switch, the aggregate compute available at hosts attached to
that switch (the paper assumes 64 cores per APPLE host).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx


@dataclass(frozen=True)
class Link:
    """An undirected link between two switches."""

    u: str
    v: str
    capacity_mbps: float = 10_000.0
    weight: float = 1.0


@dataclass
class AppleHostSpec:
    """Compute attached to a switch, available for VNF instances.

    Attributes:
        cores: CPU cores available across hosts at this switch (Table IV
            lists per-VNF core requirements; the paper's simulations use
            64 cores per host).
        memory_gb: memory available for VNF VMs (second dimension of A_v).
        host_count: number of physical hosts (informational).
    """

    cores: int = 64
    memory_gb: float = 256.0
    host_count: int = 1


class Topology:
    """A named network topology of SDN switches and links.

    The class wraps a :class:`networkx.Graph` and adds APPLE-specific
    state: which switches have APPLE hosts and how much compute each offers.

    Args:
        name: dataset name (``internet2``, ``geant``, ...).
        switches: iterable of switch identifiers.
        links: iterable of :class:`Link`.
        default_host_cores: cores assumed at every switch's APPLE host when
            no explicit host map is given (64 in the paper's simulations).
    """

    def __init__(
        self,
        name: str,
        switches: Iterable[str],
        links: Iterable[Link],
        default_host_cores: int = 64,
        hosts: Optional[Dict[str, AppleHostSpec]] = None,
    ) -> None:
        self.name = name
        self.graph = nx.Graph()
        for s in switches:
            self.graph.add_node(s)
        self._links: List[Link] = []
        for link in links:
            if link.u not in self.graph or link.v not in self.graph:
                raise ValueError(f"link {link} references unknown switch")
            if link.u == link.v:
                raise ValueError(f"self-loop link at {link.u}")
            if self.graph.has_edge(link.u, link.v):
                raise ValueError(f"duplicate link {link.u}-{link.v}")
            self.graph.add_edge(
                link.u, link.v, capacity_mbps=link.capacity_mbps, weight=link.weight
            )
            self._links.append(link)
        if hosts is not None:
            unknown = set(hosts) - set(self.graph.nodes)
            if unknown:
                raise ValueError(f"hosts reference unknown switches: {sorted(unknown)}")
            self.hosts: Dict[str, AppleHostSpec] = dict(hosts)
        else:
            self.hosts = {
                s: AppleHostSpec(cores=default_host_cores) for s in self.graph.nodes
            }
        # Failure overlay (chaos engine): the physical structure above stays
        # immutable; faults mark links/hosts failed and recovery routes
        # around them via :meth:`surviving`.
        self._failed_links: set = set()
        self._failed_hosts: set = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def switches(self) -> List[str]:
        """Switch identifiers in insertion order."""
        return list(self.graph.nodes)

    @property
    def links(self) -> List[Link]:
        """The link list as constructed."""
        return list(self._links)

    @property
    def num_switches(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_links(self) -> int:
        return self.graph.number_of_edges()

    def degree(self, switch: str) -> int:
        return int(self.graph.degree[switch])

    def is_connected(self) -> bool:
        return nx.is_connected(self.graph)

    def host_cores(self, switch: str) -> int:
        """Cores available at the APPLE host(s) attached to ``switch`` (0 if none)."""
        spec = self.hosts.get(switch)
        return spec.cores if spec else 0

    # ------------------------------------------------------------------
    # Failure overlay (chaos engine)
    # ------------------------------------------------------------------
    @staticmethod
    def link_key(u: str, v: str) -> Tuple[str, str]:
        """Canonical (sorted) endpoint pair identifying an undirected link."""
        return (u, v) if u <= v else (v, u)

    def fail_link(self, u: str, v: str) -> None:
        """Mark a link failed (the physical graph is left untouched)."""
        if not self.graph.has_edge(u, v):
            raise KeyError(f"no link {u}-{v} in topology {self.name!r}")
        self._failed_links.add(self.link_key(u, v))

    def restore_link(self, u: str, v: str) -> None:
        self._failed_links.discard(self.link_key(u, v))

    def link_failed(self, u: str, v: str) -> bool:
        return self.link_key(u, v) in self._failed_links

    @property
    def failed_links(self) -> set:
        """Canonical endpoint pairs of currently-failed links."""
        return set(self._failed_links)

    def fail_host(self, switch: str) -> None:
        """Mark the APPLE host(s) at ``switch`` failed (cores unusable)."""
        if switch not in self.hosts:
            raise KeyError(f"no APPLE host at switch {switch!r}")
        self._failed_hosts.add(switch)

    def host_failed(self, switch: str) -> bool:
        return switch in self._failed_hosts

    def surviving(self) -> "Topology":
        """A new :class:`Topology` of only the live links and hosts.

        Recovery routes affected classes over this view; the original
        object keeps the full physical structure (and the failure marks).
        """
        live_links = [
            l for l in self._links if self.link_key(l.u, l.v) not in self._failed_links
        ]
        live_hosts = {
            s: spec for s, spec in self.hosts.items() if s not in self._failed_hosts
        }
        return Topology(self.name, self.switches, live_links, hosts=live_hosts)

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, switches={self.num_switches}, "
            f"links={self.num_links})"
        )
