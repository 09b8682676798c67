"""Tests for the online placement path (Sec. IV future work)."""

import pytest

from repro.core.engine import OptimizationEngine
from repro.core.online import OnlinePlacementError, OnlinePlacer
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG


def _cls(cid, rate, path=("a", "b", "c"), chain=("firewall",)):
    return TrafficClass(
        cid, path[0], path[-1], tuple(path), PolicyChain(list(chain)), rate
    )


CORES = {"a": 64, "b": 64, "c": 64}


def test_admit_launches_first_instance():
    placer = OnlinePlacer(CORES)
    decision = placer.admit(_cls("c1", 100.0))
    assert len(decision.new_instances) == 1
    assert placer.quantities[decision.new_instances[0]] == 1
    plan = placer.to_plan()
    assert not plan.validate(CORES)


def test_second_class_fills_spare_capacity():
    placer = OnlinePlacer(CORES)
    placer.admit(_cls("c1", 100.0))
    decision = placer.admit(_cls("c2", 100.0))
    assert decision.new_instances == ()  # rides the existing instance
    assert sum(placer.quantities.values()) == 1


def test_overflow_launches_additional_instance():
    placer = OnlinePlacer(CORES)
    placer.admit(_cls("c1", 800.0))
    decision = placer.admit(_cls("c2", 800.0))
    assert decision.new_instances  # 1600 > 900: second instance needed
    assert sum(placer.quantities.values()) == 2


def test_chain_order_respected():
    placer = OnlinePlacer(CORES)
    decision = placer.admit(_cls("c1", 100.0, chain=("nat", "firewall", "ids")))
    assert list(decision.positions) == sorted(decision.positions)
    plan = placer.to_plan()
    assert not plan.validate(CORES)


def test_admission_rejected_when_no_resources():
    placer = OnlinePlacer({"a": 4, "b": 4, "c": 4})
    with pytest.raises(OnlinePlacementError):
        placer.admit(_cls("c1", 10.0, chain=("ids",)))  # needs 8 cores


def test_duplicate_admission_rejected():
    placer = OnlinePlacer(CORES)
    placer.admit(_cls("c1", 10.0))
    with pytest.raises(OnlinePlacementError):
        placer.admit(_cls("c1", 10.0))


def test_release_frees_capacity_but_keeps_instances():
    placer = OnlinePlacer(CORES)
    placer.admit(_cls("c1", 800.0))
    placer.release("c1")
    assert placer.admitted_classes() == []
    assert sum(placer.quantities.values()) == 1  # instance stays warm
    # A new class reuses the warm instance.
    decision = placer.admit(_cls("c2", 800.0))
    assert decision.new_instances == ()
    with pytest.raises(KeyError):
        placer.release("ghost")


def test_seeded_from_global_plan():
    classes = [_cls("base", 500.0)]
    plan = OptimizationEngine().place(classes, CORES)
    placer = OnlinePlacer(CORES, base_plan=plan)
    # The base plan's instance has 400 Mbps spare: a 300 Mbps flow rides it.
    decision = placer.admit(_cls("new", 300.0))
    assert decision.new_instances == ()


def test_online_never_moves_existing_assignments():
    classes = [_cls("base", 500.0)]
    plan = OptimizationEngine().place(classes, CORES)
    placer = OnlinePlacer(CORES, base_plan=plan)
    before = dict(placer.quantities)
    placer.admit(_cls("new", 2000.0))
    for slot, q in before.items():
        assert placer.quantities[slot] >= q  # counts only ever grow


def test_headroom_respected():
    placer = OnlinePlacer(CORES, capacity_headroom=0.5)
    placer.admit(_cls("c1", 400.0))
    decision = placer.admit(_cls("c2", 400.0))
    # 800 total > 0.5 * 900 = 450 plannable: needs a second instance.
    assert decision.new_instances
    with pytest.raises(ValueError):
        OnlinePlacer(CORES, capacity_headroom=0.0)


def test_combined_steps_on_one_switch_checked():
    # Path of length 1: both chain steps must land on 'a'; together they
    # need 12 cores but only 8 exist.
    placer = OnlinePlacer({"a": 8})
    with pytest.raises(OnlinePlacementError):
        placer.admit(_cls("c1", 100.0, path=("a",), chain=("firewall", "ids")))


def test_chainless_class_admitted_without_instances():
    """A class with an empty chain places nothing, as in ``place()``."""
    placer = OnlinePlacer(CORES)
    decision = placer.admit(_cls("c0", 100.0, chain=()))
    assert decision.positions == () and decision.new_instances == ()
    assert placer.quantities == {} and placer.loads == {}
    assert placer.admitted_classes() == ["c0"]
    assert placer.to_plan().distribution == {}
    placer.release("c0")
    assert placer.admitted_classes() == []
    assert placer.loads == {}
