"""Tests for the topology model, routing, datasets, and generators.

networkx is the oracle of the in-tree graph code (adjacency, Dijkstra,
connectivity, bridges); it is a test dependency only.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

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
from repro.topology import routing
from repro.topology.routing import all_shortest_paths, NoPath, Router

ROOT = Path(__file__).resolve().parents[1]


def _oracle(topo):
    """The networkx graph of ``topo``, built from its switches and links."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.switches)
    for link in topo.links:
        graph.add_edge(link.u, link.v, weight=link.weight)
    return graph


def _oracle_paths(graph, src, dst):
    """networkx's sorted all-shortest-paths, or ``None`` for no path."""
    try:
        paths = nx.all_shortest_paths(graph, src, dst, weight="weight")
        return [tuple(p) for p in sorted(paths)]
    except nx.NetworkXNoPath:
        return None


def _paths_or_none(topo, src, dst):
    try:
        return all_shortest_paths(topo, src, dst)
    except NoPath:
        return None


# ---------------------------------------------------------------------------
# Topology model
# ---------------------------------------------------------------------------
def _triangle():
    return Topology(
        "tri", ["a", "b", "c"], [Link("a", "b"), Link("b", "c"), Link("a", "c")]
    )


def test_topology_counts_and_neighbors():
    topo = _triangle()
    assert topo.num_switches == 3
    assert topo.num_links == 3
    assert topo.degree("a") == 2
    assert topo.is_connected()


def test_topology_rejects_bad_links():
    with pytest.raises(ValueError):
        Topology("x", ["a"], [Link("a", "b")])  # unknown switch
    with pytest.raises(ValueError):
        Topology("x", ["a", "b"], [Link("a", "a")])  # self loop
    with pytest.raises(ValueError):
        Topology("x", ["a", "b"], [Link("a", "b"), Link("b", "a")])  # duplicate
    with pytest.raises(ValueError):
        Topology("x", ["a", "b"], [Link("a", "b", weight=0.0)])
    with pytest.raises(ValueError):
        Topology("x", ["a", "b"], [Link("a", "b", weight=float("nan"))])


def test_neighbors_in_link_order():
    topo = _triangle()
    assert topo.neighbors("a") == {"b": 1.0, "c": 1.0}
    assert list(topo.neighbors("c")) == ["b", "a"]


def test_default_hosts_everywhere():
    topo = _triangle()
    assert set(topo.hosts) == {"a", "b", "c"}
    assert topo.host_cores("a") == 64


def test_explicit_host_map_validated():
    with pytest.raises(ValueError):
        Topology(
            "x", ["a", "b"], [Link("a", "b")], hosts={"zz": AppleHostSpec()}
        )


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------
def _square():
    # a-b-d and a-c-d: two equal-cost paths a->d.
    return Topology(
        "sq",
        ["a", "b", "c", "d"],
        [Link("a", "b"), Link("b", "d"), Link("a", "c"), Link("c", "d")],
    )


def test_shortest_path_deterministic_tie_break():
    topo = _square()
    assert Router(topo).path("a", "d") == ("a", "b", "d")  # lexicographic


def test_all_shortest_paths():
    topo = _square()
    paths = all_shortest_paths(topo, "a", "d")
    assert paths == [("a", "b", "d"), ("a", "c", "d")]


def test_ecmp_paths_truncation():
    topo = _square()
    assert Router(topo, ecmp=True, max_ecmp=1).paths("a", "d") == [("a", "b", "d")]


def test_router_caching_and_modes():
    topo = _square()
    single = Router(topo, ecmp=False)
    multi = Router(topo, ecmp=True)
    assert len(single.paths("a", "d")) == 1
    assert len(multi.paths("a", "d")) == 2
    assert single.path("a", "d") == multi.path("a", "d")
    # Cache returns the same object.
    assert single.paths("a", "d") is single.paths("a", "d")


def test_router_self_pair():
    topo = _square()
    router = Router(topo)
    assert router.path("a", "a") == ("a",)


def test_weighted_shortest_path():
    topo = Topology(
        "w",
        ["a", "b", "c"],
        [Link("a", "b", weight=10.0), Link("a", "c", weight=1.0), Link("c", "b", weight=1.0)],
    )
    assert Router(topo).path("a", "b") == ("a", "c", "b")


def test_no_path_across_a_partition():
    topo = Topology("split", ["a", "b", "c"], [Link("a", "b")])
    assert not topo.is_connected()
    router = Router(topo)
    with pytest.raises(NoPath):
        router.path("a", "c")
    with pytest.raises(KeyError):
        router.path("zz", "a")


def test_bridges_of_a_barbell():
    # Two triangles joined by a two-link chain: both chain links are bridges.
    def triangle(x, y, z):
        return [Link(x, y), Link(y, z), Link(x, z)]

    topo = Topology(
        "barbell",
        list("abcmdef"),
        triangle("a", "b", "c") + [Link("c", "m"), Link("m", "d")] + triangle("d", "e", "f"),
    )
    assert topo.bridges() == {("c", "m"), ("d", "m")}


@pytest.mark.parametrize(
    "topo",
    [load_topology(name) for name in TOPOLOGY_LOADERS]
    + [isp_like(40, 80, seed=seed) for seed in range(5)],
    ids=lambda topo: f"{topo.name}-{topo.num_links}",
)
def test_every_route_equals_networkx(topo):
    """Every ordered pair routes to networkx's sorted all-shortest-paths;
    the bridges and connectivity agree too."""
    graph = _oracle(topo)
    for src in topo.switches:
        for dst in topo.switches:
            assert all_shortest_paths(topo, src, dst) == _oracle_paths(graph, src, dst)
    assert topo.bridges() == {Topology.link_key(u, v) for u, v in nx.bridges(graph)}
    assert topo.is_connected()


@pytest.mark.parametrize("ecmp", [False, True])
@pytest.mark.parametrize("name", ["geant", "as3679"])
def test_router_runs_one_dijkstra_per_source(name, ecmp):
    """Routing every ordered pair runs Dijkstra once per source, in the
    order the sources are first asked for, and reads the same sorted paths
    networkx finds (the first one, or the first ``max_ecmp``)."""
    topo = load_topology(name)
    graph = _oracle(topo)
    sources = []
    dijkstra = routing._predecessors

    def counted(topo, src):
        sources.append(src)
        return dijkstra(topo, src)

    router = Router(topo, ecmp=ecmp)
    with mock.patch.object(routing, "_predecessors", counted):
        for src in topo.switches:
            for dst in topo.switches:
                expected = _oracle_paths(graph, src, dst)
                assert router.paths(src, dst) == expected[: 4 if ecmp else 1]
        for src in topo.switches:  # all cached now
            for dst in topo.switches:
                router.paths(src, dst)
    assert sources == list(topo.switches)


#: Weights whose float sums tie or miss by an ulp (0.1 + 0.2 != 0.3), and
#: whole numbers.
_WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 0.5, 0.7, 1 / 3])


@st.composite
def _graphs(draw):
    """Up to 9 switches, some isolated, with trees hanging off cycles."""
    n = draw(st.integers(1, 9))
    names = draw(st.permutations([f"s{i}" for i in range(n)]))
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    links = [Link(a, b, weight=draw(_WEIGHTS)) for a, b in chosen]
    return Topology("h", names, links)


@settings(max_examples=200, deadline=None)
@given(topo=_graphs())
def test_random_graphs_agree_with_networkx(topo):
    graph = _oracle(topo)
    assert topo.is_connected() == nx.is_connected(graph)
    assert topo.bridges() == {Topology.link_key(u, v) for u, v in nx.bridges(graph)}
    for src in topo.switches:
        for dst in topo.switches:
            assert _paths_or_none(topo, src, dst) == _oracle_paths(graph, src, dst)


_PRINT_ROUTES = """
from repro.topology.datasets import TOPOLOGY_LOADERS, load_topology
from repro.topology.routing import all_shortest_paths
for name in TOPOLOGY_LOADERS:
    topo = load_topology(name)
    print(name, sorted(topo.bridges()))
    for src in topo.switches:
        for dst in topo.switches:
            print(src, dst, all_shortest_paths(topo, src, dst))
"""


def test_routes_are_equal_across_hash_seeds():
    """Every dataset's routes, printed by two processes with different
    string hashing, are byte-equal: no route depends on set order."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(ROOT / "src"))
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", _PRINT_ROUTES],
                env=env, capture_output=True, check=True,
            ).stdout
        )
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == sum(
        1 + load_topology(name).num_switches ** 2 for name in TOPOLOGY_LOADERS
    )


# ---------------------------------------------------------------------------
# Datasets (the paper's Sec. IX-A footprints)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "loader,nodes,links",
    [(internet2, 12, 15), (geant, 23, 37), (univ1, 23, 43), (as3679, 79, 147)],
)
def test_dataset_footprints(loader, nodes, links):
    topo = loader()
    assert topo.num_switches == nodes
    assert topo.num_links == links
    assert topo.is_connected()
    assert all(spec.cores == 64 for spec in topo.hosts.values())


def test_load_topology_by_name():
    assert load_topology("internet2").name == "internet2"
    with pytest.raises(KeyError):
        load_topology("nonexistent")


def test_univ1_two_tier_structure():
    topo = univ1()
    cores = [s for s in topo.switches if s.startswith("core")]
    edges = [s for s in topo.switches if s.startswith("edge")]
    assert len(cores) == 2 and len(edges) == 21
    for e in edges:
        assert set(topo.neighbors(e)) == set(cores)


def test_as3679_deterministic():
    a, b = as3679(), as3679()
    assert a.links == b.links


def test_as3679_heavy_tailed_degrees():
    topo = as3679()
    degrees = sorted((topo.degree(s) for s in topo.switches), reverse=True)
    assert degrees[0] >= 3 * degrees[len(degrees) // 2]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
def test_two_tier_counts():
    topo = two_tier_datacenter(num_core=3, num_edge=5)
    assert topo.num_switches == 8
    assert topo.num_links == 3 * 5 + 3  # bipartite mesh + core ring


def test_two_tier_rejects_empty_layers():
    with pytest.raises(ValueError):
        two_tier_datacenter(num_core=0, num_edge=5)


def test_isp_like_exact_counts_and_connected():
    topo = isp_like(num_nodes=30, num_links=50, seed=4)
    assert topo.num_switches == 30
    assert topo.num_links == 50
    assert topo.is_connected()
    # same seed -> identical topology; different seed -> different wiring
    again = isp_like(num_nodes=30, num_links=50, seed=4)
    assert {(l.u, l.v) for l in topo.links} == {(l.u, l.v) for l in again.links}
    other = isp_like(num_nodes=30, num_links=50, seed=5)
    assert {(l.u, l.v) for l in topo.links} != {(l.u, l.v) for l in other.links}


def test_isp_like_bounds_checked():
    with pytest.raises(ValueError):
        isp_like(num_nodes=10, num_links=8)  # below spanning tree
    with pytest.raises(ValueError):
        isp_like(num_nodes=5, num_links=11)  # above complete graph


def test_two_tier_single_core_has_no_core_links():
    topo = two_tier_datacenter(num_core=1, num_edge=6)
    assert topo.num_switches == 7
    assert topo.num_links == 6  # bipartite mesh only
    assert topo.is_connected()

