"""Routing: the control-plane application whose paths APPLE must not disturb.

Interference freedom (property 2 of the paper) means APPLE takes forwarding
paths as *input* — computed here by shortest-path or ECMP routing — and
never changes them.  The :class:`Router` caches deterministic paths per
(src, dst) so the Optimization Engine, data plane, and tests all agree on
what "the path" of a class is.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.topology.graph import Topology


def shortest_path(topo: Topology, src: str, dst: str) -> Tuple[str, ...]:
    """Deterministic shortest path (ties broken lexicographically).

    Dijkstra's tie-breaking in networkx depends on insertion order; for
    reproducibility we select the lexicographically smallest among all
    shortest paths.
    """
    paths = sorted(nx.all_shortest_paths(topo.graph, src, dst, weight="weight"))
    return tuple(paths[0])


def all_shortest_paths(topo: Topology, src: str, dst: str) -> List[Tuple[str, ...]]:
    """All equal-cost shortest paths, sorted for determinism."""
    return [tuple(p) for p in sorted(nx.all_shortest_paths(topo.graph, src, dst, weight="weight"))]


def ecmp_paths(
    topo: Topology, src: str, dst: str, max_paths: Optional[int] = None
) -> List[Tuple[str, ...]]:
    """Equal-cost multipath set, optionally truncated to ``max_paths``.

    Data-center topologies (UNIV1) exploit multipath heavily — the reason
    Fig. 10 shows the biggest TCAM savings there: without tagging, sub-class
    classification rules must appear on *every* ECMP path.
    """
    paths = all_shortest_paths(topo, src, dst)
    if max_paths is not None:
        paths = paths[:max_paths]
    return paths


class Router:
    """Caching single-path or ECMP router over a topology.

    Args:
        topo: the topology to route over.
        ecmp: when True, :meth:`paths` returns the full equal-cost set and
            :meth:`path` the deterministic first one; when False both use the
            single deterministic shortest path.
        max_ecmp: cap on returned ECMP paths.
    """

    def __init__(self, topo: Topology, ecmp: bool = False, max_ecmp: int = 4) -> None:
        self.topo = topo
        self.ecmp = ecmp
        self.max_ecmp = max_ecmp
        self._cache: Dict[Tuple[str, str], List[Tuple[str, ...]]] = {}

    def paths(self, src: str, dst: str) -> List[Tuple[str, ...]]:
        """All paths routing would use for (src, dst)."""
        key = (src, dst)
        if key not in self._cache:
            if src == dst:
                self._cache[key] = [(src,)]
            elif self.ecmp:
                self._cache[key] = ecmp_paths(self.topo, src, dst, self.max_ecmp)
            else:
                self._cache[key] = [shortest_path(self.topo, src, dst)]
        return self._cache[key]

    def path(self, src: str, dst: str) -> Tuple[str, ...]:
        """The deterministic primary path for (src, dst)."""
        return self.paths(src, dst)[0]

