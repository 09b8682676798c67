"""Routing: the control-plane application whose paths APPLE must not disturb.

Interference freedom (property 2 of the paper) means APPLE takes forwarding
paths as *input* — computed here by shortest-path or ECMP routing — and
never changes them.  The :class:`Router` caches deterministic paths per
(src, dst) — and one shortest-path DAG per source — so the Optimization
Engine, data plane, and tests all agree on what "the path" of a class is.
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


def all_shortest_paths(
    topo: Topology,
    src: str,
    dst: str,
    pred: Optional[Dict[str, List[str]]] = None,
) -> List[Tuple[str, ...]]:
    """All equal-cost shortest paths, sorted for determinism.

    ``pred`` is ``src``'s shortest-path DAG when the caller already holds
    it (:class:`Router` keeps one per source); otherwise it is computed.
    The first path is the deterministic shortest path, the first ``k`` the
    ECMP set.

    Raises:
        NoPath: ``dst`` is not reachable from ``src``.
    """
    if pred is None:
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


class Router:
    """Caching single-path or ECMP router over a topology.

    One Dijkstra per source: the first path asked from a switch keeps its
    shortest-path DAG, and every later destination from it is read off
    that DAG.

    Args:
        topo: the topology to route over.
        ecmp: when True, :meth:`paths` returns the full equal-cost set and
            :meth:`path` the deterministic first one; when False both use the
            single deterministic shortest path.  Data-center topologies
            (UNIV1) use multipath heavily, which is why Fig. 10 shows the
            biggest TCAM savings there: without tagging, sub-class
            classification rules must appear on every ECMP path.
        max_ecmp: cap on returned ECMP paths.
    """

    def __init__(self, topo: Topology, ecmp: bool = False, max_ecmp: int = 4) -> None:
        self.topo = topo
        self.ecmp = ecmp
        self.max_ecmp = max_ecmp
        self._cache: Dict[Tuple[str, str], List[Tuple[str, ...]]] = {}
        #: source → its shortest-path DAG (see :func:`_predecessors`).
        self._dags: Dict[str, Dict[str, List[str]]] = {}

    def paths(self, src: str, dst: str) -> List[Tuple[str, ...]]:
        """All paths routing would use for (src, dst)."""
        key = (src, dst)
        if key not in self._cache:
            if src == dst:
                self._cache[key] = [(src,)]
            else:
                pred = self._dags.get(src)
                if pred is None:
                    pred = self._dags[src] = _predecessors(self.topo, src)
                paths = all_shortest_paths(self.topo, src, dst, pred)
                self._cache[key] = paths[: self.max_ecmp if self.ecmp else 1]
        return self._cache[key]

    def path(self, src: str, dst: str) -> Tuple[str, ...]:
        """The deterministic primary path for (src, dst)."""
        return self.paths(src, dst)[0]
