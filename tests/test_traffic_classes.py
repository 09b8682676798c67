"""Tests for traffic classes, policy assignment, and replay."""

import pytest

from repro.topology.datasets import internet2
from repro.topology.routing import Router
from repro.traffic.classes import (
    ClassBuilder,
    hashed_assignment,
    TrafficClass,
)
from repro.traffic.diurnal import synthesize_series
from repro.traffic.gravity import gravity_matrix
from repro.traffic.replay import replay_series
from repro.vnf.chains import PolicyChain, STANDARD_CHAINS


@pytest.fixture
def router():
    return Router(internet2())


def _chain(*names):
    return PolicyChain(list(names))


# ---------------------------------------------------------------------------
# TrafficClass
# ---------------------------------------------------------------------------
def test_class_indices_match_paper_functions():
    cls = TrafficClass(
        "c1", "a", "c", ("a", "b", "c"), _chain("firewall", "ids"), 10.0
    )
    assert cls.path_length == 3  # |P_h|
    assert cls.chain_length == 2  # |C_h|


def test_class_validation():
    with pytest.raises(ValueError):
        TrafficClass("c", "a", "c", ("b", "c"), _chain("nat"), 1.0)  # src mismatch
    for rate in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and non-negative"):
            TrafficClass("c", "a", "b", ("a", "b"), _chain("nat"), rate)
        with pytest.raises(ValueError, match="finite and non-negative"):
            TrafficClass("c", "a", "b", ("a", "b"), _chain("nat"), 1.0).with_rate(rate)
    with pytest.raises(ValueError):
        TrafficClass("c", "a", "b", ("a", "b"), _chain("nat"), 1.0, share=0.0)


def test_with_rate_preserves_structure():
    cls = TrafficClass("c", "a", "b", ("a", "b"), _chain("nat"), 1.0)
    clone = cls.with_rate(9.0)
    assert clone.rate_mbps == 9.0
    assert clone.path == cls.path and clone.chain == cls.chain


# ---------------------------------------------------------------------------
# ClassBuilder
# ---------------------------------------------------------------------------
def test_builder_one_class_per_pair_chain(router):
    tm = gravity_matrix(internet2(), 1000.0, seed=0)
    builder = ClassBuilder(router, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=0.1)
    classes = builder.build(tm)
    assert classes
    ids = [c.class_id for c in classes]
    assert len(ids) == len(set(ids))
    for c in classes:
        assert c.path == router.path(c.src, c.dst)
        assert c.chain in STANDARD_CHAINS


def test_builder_min_rate_filters(router):
    tm = gravity_matrix(internet2(), 1000.0, seed=0)
    all_classes = ClassBuilder(router, hashed_assignment(STANDARD_CHAINS)).build(tm)
    filtered = ClassBuilder(
        router, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=10.0
    ).build(tm)
    assert len(filtered) < len(all_classes)
    assert all(c.rate_mbps > 10.0 for c in filtered)


def test_bad_shares_rejected(router):
    def broken(src, dst):
        return [(STANDARD_CHAINS[0], 0.7)]  # does not sum to 1

    tm = gravity_matrix(internet2(), 1000.0, seed=0)
    with pytest.raises(ValueError):
        ClassBuilder(router, broken, min_rate_mbps=1.0).build(tm)


def test_hashed_assignment_is_deterministic():
    assign = hashed_assignment(STANDARD_CHAINS)
    first = assign("ATLA", "CHIN")
    again = assign("ATLA", "CHIN")
    assert first == again


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------
def test_replay_timeline_consistency(router):
    topo = internet2()
    series = synthesize_series(topo, 2000.0, snapshots=6, seed=0)
    builder = ClassBuilder(router, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0)
    timeline = replay_series(builder, series)
    assert len(timeline.times) == 6
    assert timeline.rates.shape == (6, len(timeline.classes))


def test_replay_iterates_in_order(router):
    topo = internet2()
    series = synthesize_series(topo, 2000.0, snapshots=4, interval=30.0, seed=0)
    builder = ClassBuilder(router, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0)
    timeline = replay_series(builder, series)
    assert timeline.times == [0.0, 30.0, 60.0, 90.0]
