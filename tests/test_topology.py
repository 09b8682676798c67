"""Tests for the topology model, routing, datasets, and generators."""

import networkx as nx
import pytest

from repro.topology.datasets import as3679, geant, internet2, load_topology, univ1
from repro.topology.generators import isp_like, two_tier_datacenter
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.topology.routing import (
    all_shortest_paths,
    ecmp_paths,
    Router,
    shortest_path,
)


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
    assert shortest_path(topo, "a", "d") == ("a", "b", "d")  # lexicographic


def test_all_shortest_paths():
    topo = _square()
    paths = all_shortest_paths(topo, "a", "d")
    assert paths == [("a", "b", "d"), ("a", "c", "d")]


def test_ecmp_paths_truncation():
    topo = _square()
    assert len(ecmp_paths(topo, "a", "d", max_paths=1)) == 1


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
    assert shortest_path(topo, "a", "b") == ("a", "c", "b")


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
        assert set(topo.graph.neighbors(e)) == set(cores)


def test_as3679_deterministic():
    a, b = as3679(), as3679()
    assert set(a.graph.edges) == set(b.graph.edges)


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

