"""Parametric topology generators.

Two families are needed by the paper's evaluation:

* :func:`two_tier_datacenter` — the UNIV1-style 2-tier campus data center
  (a small core layer fully meshed to an edge layer).
* :func:`isp_like` — a router-level ISP graph with a heavy-tailed degree
  distribution, used to realise Rocketfuel AS-3679 (79 nodes / 147 links)
  since the original Rocketfuel trace files are not redistributable.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.topology.graph import Link, Topology


def two_tier_datacenter(
    num_core: int = 2,
    num_edge: int = 21,
    core_link_mbps: float = 10_000.0,
    edge_link_mbps: float = 1_000.0,
    name: str = "two-tier-dc",
) -> Topology:
    """Build a 2-tier data center: full core↔edge bipartite mesh + core ring.

    With the UNIV1 defaults (2 core, 21 edge) this yields 23 switches and
    2·21 + 1 = 43 links, matching the paper's UNIV1 figures.

    The core-level redundancy links degenerate with the core count: three
    or more cores form a ring, exactly two share a single link (a 2-ring
    would duplicate it), and a single core needs no core-level links at
    all — the topology is still connected through the bipartite mesh.
    """
    if num_core < 1 or num_edge < 1:
        raise ValueError("need at least one core and one edge switch")
    cores = [f"core{i}" for i in range(num_core)]
    edges = [f"edge{i}" for i in range(num_edge)]
    links: List[Link] = []
    for c in cores:
        for e in edges:
            links.append(Link(c, e, capacity_mbps=edge_link_mbps))
    if num_core == 1:
        pass  # single core: the mesh alone connects everything
    elif num_core == 2:
        links.append(Link(cores[0], cores[1], capacity_mbps=core_link_mbps))
    else:
        for i in range(num_core):
            links.append(
                Link(cores[i], cores[(i + 1) % num_core], capacity_mbps=core_link_mbps)
            )
    topo = Topology(name, cores + edges, links)
    assert topo.is_connected()
    return topo


def isp_like(
    num_nodes: int,
    num_links: int,
    seed: int = 0,
    name: str = "isp-like",
    link_mbps: float = 10_000.0,
) -> Topology:
    """Generate a connected ISP-like graph with exactly ``num_links`` edges.

    Construction: random spanning tree (guarantees connectivity), then add
    the remaining edges with probability proportional to the product of
    current degrees (preferential attachment), giving the heavy-tailed
    degree profile Rocketfuel measured in real router-level ISP maps.
    """
    min_links = num_nodes - 1
    max_links = num_nodes * (num_nodes - 1) // 2
    if not min_links <= num_links <= max_links:
        raise ValueError(
            f"num_links must be in [{min_links}, {max_links}] for {num_nodes} nodes"
        )
    rng = np.random.default_rng(seed)
    nodes = [f"r{i}" for i in range(num_nodes)]
    edges: Set[Tuple[int, int]] = set()  # (lower index, higher index)
    degree = [0] * num_nodes

    def join(u: int, v: int) -> None:
        edges.add((min(u, v), max(u, v)))
        degree[u] += 1
        degree[v] += 1

    # Random spanning tree via randomized Prim.
    in_tree = [0]
    out_tree = list(range(1, num_nodes))
    rng.shuffle(out_tree)
    for nxt in out_tree:
        anchor = in_tree[int(rng.integers(0, len(in_tree)))]
        join(anchor, nxt)
        in_tree.append(nxt)

    # Preferential attachment for the remaining edges.
    while len(edges) < num_links:
        degrees = np.array([d + 1 for d in degree], dtype=float)
        probs = degrees / degrees.sum()
        u = int(rng.choice(num_nodes, p=probs))
        v = int(rng.choice(num_nodes, p=probs))
        if u == v or (min(u, v), max(u, v)) in edges:
            continue
        join(u, v)

    links = [Link(nodes[u], nodes[v], capacity_mbps=link_mbps) for u, v in sorted(edges)]
    return Topology(name, nodes, links)

