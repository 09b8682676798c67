"""Topology model: SDN switches, links, and attached APPLE hosts.

In APPLE's network model (Sec. III) every physical node that hosts VNF
instances — an *APPLE host* — hangs off one SDN switch, and the switch
steers packets into and out of the host's vSwitch.  The topology therefore
carries, per switch, the aggregate compute available at hosts attached to
that switch (the paper assumes 64 cores per APPLE host).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple


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

    The class keeps its own adjacency (switch → neighbour → link weight,
    both levels in construction order, so every walk over it is the same
    in every process) and adds APPLE-specific state: which switches have
    APPLE hosts and how much compute each offers.

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
        adj: Dict[str, Dict[str, float]] = {s: {} for s in switches}
        self._adj = adj
        self._links: List[Link] = []
        for link in links:
            if link.u not in adj or link.v not in adj:
                raise ValueError(f"link {link} references unknown switch")
            if link.u == link.v:
                raise ValueError(f"self-loop link at {link.u}")
            if link.v in adj[link.u]:
                raise ValueError(f"duplicate link {link.u}-{link.v}")
            if not link.weight > 0.0:
                raise ValueError(f"link {link.u}-{link.v} has weight {link.weight}")
            adj[link.u][link.v] = link.weight
            adj[link.v][link.u] = link.weight
            self._links.append(link)
        if hosts is not None:
            unknown = set(hosts) - set(adj)
            if unknown:
                raise ValueError(f"hosts reference unknown switches: {sorted(unknown)}")
            self.hosts: Dict[str, AppleHostSpec] = dict(hosts)
        else:
            self.hosts = {s: AppleHostSpec(cores=default_host_cores) for s in adj}
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
        return list(self._adj)

    @property
    def links(self) -> List[Link]:
        """The link list as constructed."""
        return list(self._links)

    @property
    def num_switches(self) -> int:
        return len(self._adj)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def degree(self, switch: str) -> int:
        return len(self._adj[switch])

    def neighbors(self, switch: str) -> Dict[str, float]:
        """Neighbour → link weight, in link order (read-only by contract)."""
        return self._adj[switch]

    def is_connected(self) -> bool:
        """Every switch reachable from the first (breadth-first search).

        Raises:
            ValueError: the topology has no switch.
        """
        adj = self._adj
        if not adj:
            raise ValueError(f"topology {self.name!r} has no switch")
        start = next(iter(adj))
        seen = {start}
        frontier = [start]
        while frontier:
            for u in adj[frontier.pop()]:
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return len(seen) == len(adj)

    def bridges(self) -> Set[Tuple[str, str]]:
        """Links whose removal disconnects their endpoints, as
        :meth:`link_key` pairs (Tarjan's low-link depth-first search)."""
        adj = self._adj
        order: Dict[str, int] = {}
        low: Dict[str, int] = {}
        found: Set[Tuple[str, str]] = set()
        for root in adj:
            if root in order:
                continue
            order[root] = low[root] = len(order)
            stack = [(root, None, iter(adj[root]))]
            while stack:
                v, parent, rest = stack[-1]
                for u in rest:
                    if u == parent:
                        continue  # the tree link itself (no parallel links)
                    if u in order:
                        low[v] = min(low[v], order[u])
                    else:
                        order[u] = low[u] = len(order)
                        stack.append((u, v, iter(adj[u])))
                        break
                else:
                    stack.pop()
                    if parent is not None:
                        low[parent] = min(low[parent], low[v])
                        if low[v] > order[parent]:
                            found.add(self.link_key(parent, v))
        return found

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
        if v not in self._adj.get(u, ()):
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
