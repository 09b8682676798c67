"""Routing: the control-plane application whose paths APPLE must not disturb.

Interference freedom (property 2 of the paper) means APPLE takes forwarding
paths as *input* — computed here by shortest-path or ECMP routing — and
never changes them.  The :class:`Router` caches deterministic paths per
(src, dst) so the Optimization Engine, data plane, and tests all agree on
what "the path" of a class is.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.topology.graph import Topology


class NoPath(LookupError):
    """No path joins the two switches (a partitioned topology)."""


def _predecessors(topo: Topology, src: str) -> Dict[str, List[str]]:
    """Dijkstra from ``src``: every reached switch → the neighbours it is
    reached from at its least distance (the shortest-path DAG).

    A distance is the popped distance plus the link weight, and a
    candidate improves on ``<`` and ties on ``==``: the arithmetic of the
    graph library ``tests/test_topology.py`` holds this to, so weights that
    are not whole numbers tie the same way.
    """
    dist: Dict[str, float] = {}
    tentative: Dict[str, float] = {src: 0}
    pred: Dict[str, List[str]] = {src: []}
    tiebreak = count()
    fringe = [(0, next(tiebreak), src)]
    while fringe:
        d, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = d
        for u, weight in topo.neighbors(v).items():
            vu = d + weight
            if u in dist:
                if vu == dist[u]:
                    pred[u].append(v)
            elif u not in tentative or vu < tentative[u]:
                tentative[u] = vu
                heappush(fringe, (vu, next(tiebreak), u))
                pred[u] = [v]
            elif vu == tentative[u]:
                pred[u].append(v)
    return pred


def all_shortest_paths(topo: Topology, src: str, dst: str) -> List[Tuple[str, ...]]:
    """All equal-cost shortest paths, sorted for determinism.

    Raises:
        NoPath: ``dst`` is not reachable from ``src``.
    """
    pred = _predecessors(topo, src)
    if dst not in pred:
        raise NoPath(f"no path from {src!r} to {dst!r} in topology {topo.name!r}")
    paths: List[Tuple[str, ...]] = []
    suffix = [dst]

    def extend(node: str) -> None:
        if node == src:
            paths.append(tuple(reversed(suffix)))
        for prev in pred[node]:
            if prev not in suffix:  # a weight lost to rounding may tie back
                suffix.append(prev)
                extend(prev)
                suffix.pop()

    extend(dst)
    paths.sort()
    return paths


def shortest_path(topo: Topology, src: str, dst: str) -> Tuple[str, ...]:
    """Deterministic shortest path: the lexicographically smallest of
    :func:`all_shortest_paths`."""
    return all_shortest_paths(topo, src, dst)[0]


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

