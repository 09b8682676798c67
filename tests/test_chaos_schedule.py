"""Fault-schedule generation: determinism, target pools, timing bounds."""

import networkx as nx
import pytest

from repro.chaos.schedule import (
    ChaosConfig,
    ControllerCrashConfig,
    FaultKind,
    FaultSchedule,
    _flappable_links,
    generate_schedule,
)
from repro.topology.graph import Topology
from repro.topology.datasets import internet2

INSTANCE_KEYS = [
    "firewall[0]@SEAT",
    "firewall[1]@SEAT",
    "ids[0]@CHIN",
    "nat[0]@ATLA",
    "proxy[0]@NYCM",
]


def _schedule(seed=0, config=None, topo=None):
    return generate_schedule(
        topo or internet2(),
        config or ChaosConfig(),
        seed,
        instance_keys=INSTANCE_KEYS,
        hosts_in_use=["SEAT", "CHIN", "ATLA", "NYCM"],
    )


def test_same_seed_bit_identical_schedule():
    assert _schedule(7).signature() == _schedule(7).signature()


def test_different_seeds_differ():
    assert _schedule(1).signature() != _schedule(2).signature()


def test_counts_match_config():
    config = ChaosConfig(link_flaps=2, host_crashes=1, vnf_crashes=1, brownouts=1)
    schedule = _schedule(config=config)
    by_kind = {}
    for ev in schedule:
        by_kind[ev.kind] = by_kind.get(ev.kind, 0) + 1
    assert by_kind[FaultKind.LINK_FLAP] == 2
    assert by_kind[FaultKind.HOST_CRASH] == 1
    assert by_kind[FaultKind.VNF_CRASH] == 1
    assert by_kind[FaultKind.BROWNOUT] == 1
    assert len(schedule) == 2 + 1 + 1 + 1


def test_no_bridge_ever_flapped():
    topo = internet2()
    graph = nx.Graph((link.u, link.v) for link in topo.links)
    bridges = {Topology.link_key(u, v) for u, v in nx.bridges(graph)}
    for seed in range(10):
        schedule = generate_schedule(
            topo, ChaosConfig(link_flaps=3), seed, instance_keys=INSTANCE_KEYS
        )
        for ev in schedule:
            if ev.kind is FaultKind.LINK_FLAP:
                assert Topology.link_key(*ev.link_endpoints()) not in bridges


def test_flappable_links_excludes_bridges_on_a_line_graph():
    from repro.topology.graph import Link

    topo = Topology("line", ["a", "b", "c"], [Link("a", "b"), Link("b", "c")])
    assert _flappable_links(topo) == []  # every link is a bridge


def test_times_and_durations_inside_windows():
    config = ChaosConfig(window=(10.0, 20.0), flap_duration=(3.0, 4.0))
    for seed in range(5):
        for ev in _schedule(seed=seed, config=config):
            assert 10.0 <= ev.time <= 20.0
            if ev.kind is FaultKind.LINK_FLAP:
                assert 3.0 <= ev.duration <= 4.0
                assert ev.lift_time == pytest.approx(ev.time + ev.duration)
            if ev.kind is FaultKind.BROWNOUT:
                assert 0.2 <= ev.severity <= 0.6


def test_events_are_time_ordered():
    schedule = _schedule(seed=5)
    times = [ev.time for ev in schedule]
    assert times == sorted(times)


def test_vnf_and_brownout_targets_disjoint():
    config = ChaosConfig(vnf_crashes=2, brownouts=2)
    schedule = _schedule(config=config)
    crashed = {e.target for e in schedule if e.kind is FaultKind.VNF_CRASH}
    browned = {e.target for e in schedule if e.kind is FaultKind.BROWNOUT}
    assert not crashed & browned


def test_empty_pools_yield_empty_kinds():
    schedule = generate_schedule(
        internet2(), ChaosConfig(vnf_crashes=3, brownouts=2), 0, instance_keys=()
    )
    kinds = {e.kind for e in schedule}
    assert FaultKind.VNF_CRASH not in kinds
    assert FaultKind.BROWNOUT not in kinds


def test_empty_schedule():
    schedule = FaultSchedule.empty(9)
    assert len(schedule) == 0
    assert schedule.signature() == "[]"


def test_generation_does_not_touch_other_streams():
    """Chaos draws from its own substream: traffic synthesis is unaffected."""
    from repro.sim.rng import SeededRNG, derive

    rng = SeededRNG(derive(3, "traffic.mvr"))
    before = [rng.uniform() for _ in range(4)]
    _schedule(seed=3)
    rng2 = SeededRNG(derive(3, "traffic.mvr"))
    assert before == [rng2.uniform() for _ in range(4)]


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: ChaosConfig(link_flaps=-1), "link_flaps"),
        (lambda: ChaosConfig(brownouts=1.5), "brownouts"),
        (lambda: ChaosConfig(window=(float("nan"), 10.0)), "window"),
        (lambda: ChaosConfig(window=(20.0, 10.0)), "window"),
        (lambda: ChaosConfig(flap_duration=(4.0, 3.0)), "flap_duration"),
        (lambda: ChaosConfig(flap_duration=(-1.0, 3.0)), "flap_duration"),
        (lambda: ControllerCrashConfig(crashes=-1), "crashes"),
        (lambda: ControllerCrashConfig(window=(5.0, float("inf"))), "window"),
        (lambda: ControllerCrashConfig(window=(10.0, 5.0)), "window"),
    ],
)
def test_hostile_config_is_rejected_naming_the_field(make, field):
    # A negative count used to be ignored by the generator; a NaN or
    # inverted range used to surface as numpy's OverflowError or
    # "high - low < 0" from inside the draw.
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        make()
