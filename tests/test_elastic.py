"""Tests for the elastic scaling loop: units + end-to-end flash crowd."""

from functools import partial

import pytest

from repro.core.engine import EngineConfig
from repro.core.placement import PlacementPlan, PlanDelta, diff_plans
from repro.elastic import (
    Candidates,
    ElasticController,
    ElasticMetrics,
    ElasticTick,
    HOLD,
    SCALE_IN,
    SCALE_OUT,
    HysteresisConfig,
    HysteresisState,
    admit,
    assign_slo_classes,
    decide,
    shed_order,
    utilization_snapshot,
)
from repro.elastic.slo import BRONZE, GOLD, SILVER, SLO_CLASSES
from repro.experiments.flash_crowd import FULL_AMPLITUDES, _flash_row
from repro.experiments.scenario import Scenario, World, replay_day0
from repro.experiments.harness import (
    REPLAY_HEADROOM,
    TOPOLOGY_DEMAND_MBPS,
    standard_setup,
)
from repro.sim.kernel import Simulator
from repro.southbound import SouthboundChaosConfig, SouthboundFabric
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG


def _cls(cid, rate, chain=("firewall",)):
    return TrafficClass(
        class_id=cid,
        src="A",
        dst="B",
        path=("A", "B"),
        chain=PolicyChain(chain, DEFAULT_CATALOG),
        rate_mbps=rate,
    )


# ----------------------------------------------------------------------
# Hysteresis
# ----------------------------------------------------------------------
def test_hysteresis_dwell_before_scale_out():
    config = HysteresisConfig(up_dwell=2)
    state = HysteresisState()
    action, state = decide(config, state, 0.9)
    assert action == HOLD  # first breach arms the counter
    action, state = decide(config, state, 0.9)
    assert action == SCALE_OUT  # second consecutive breach fires
    assert state == HysteresisState()  # counters reset after an action


def test_hysteresis_dead_band_resets_dwell():
    config = HysteresisConfig(up_dwell=2)
    state = HysteresisState()
    _, state = decide(config, state, 0.9)
    _, state = decide(config, state, 0.6)  # back in the dead band
    action, state = decide(config, state, 0.9)
    assert action == HOLD  # the counter restarted from zero


def test_hysteresis_scale_in_needs_longer_dwell():
    config = HysteresisConfig(up_dwell=2, down_dwell=3)
    state = HysteresisState()
    actions = []
    for _ in range(3):
        action, state = decide(config, state, 0.1)
        actions.append(action)
    assert actions == [HOLD, HOLD, SCALE_IN]


def test_hysteresis_config_validates_band_ordering():
    with pytest.raises(ValueError):
        HysteresisConfig(high_watermark=0.5, target_utilization=0.6)


# ----------------------------------------------------------------------
# Monitor
# ----------------------------------------------------------------------
def test_utilization_snapshot_math():
    classes = [_cls("a", 450.0), _cls("b", 450.0)]
    plan = PlacementPlan(
        quantities={("A", "firewall"): 2},
        distribution={},
        classes=classes,
        catalog=DEFAULT_CATALOG,
        objective=2,
    )
    snap = utilization_snapshot(
        1.0, plan, {"a": 450.0, "b": 450.0}, DEFAULT_CATALOG, headroom=1.0
    )
    # firewall: 900 demand over 2 * 900 capacity = 0.5
    assert snap.max_utilization == pytest.approx(0.5)
    assert dict((n, u) for n, _, _, u in snap.per_nf)["firewall"] == pytest.approx(0.5)
    assert snap.offered_mbps == pytest.approx(900.0)
    # Headroom derates capacity: same demand, 0.5 headroom => util 1.0.
    snap2 = utilization_snapshot(
        1.0, plan, {"a": 450.0, "b": 450.0}, DEFAULT_CATALOG, headroom=0.5
    )
    assert snap2.max_utilization == pytest.approx(1.0)


def test_utilization_snapshot_ignores_shed_classes():
    classes = [_cls("a", 450.0), _cls("b", 450.0)]
    plan = PlacementPlan(
        quantities={("A", "firewall"): 1},
        distribution={},
        classes=classes,
        catalog=DEFAULT_CATALOG,
        objective=1,
    )
    snap = utilization_snapshot(
        0.0, plan, {"a": 450.0}, DEFAULT_CATALOG, headroom=1.0
    )
    assert snap.max_utilization == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Admission oracle
# ----------------------------------------------------------------------
SLO = {"gold": GOLD, "cheap": BRONZE, "mid": SILVER}


def test_shed_order_is_weight_then_rate_then_id():
    offered = {"gold": 1.0, "cheap": 9.0, "mid": 5.0, "cheap2": 2.0}
    slo = {"gold": GOLD, "cheap": BRONZE, "cheap2": BRONZE, "mid": SILVER}
    order = shed_order(sorted(offered), offered, slo)
    assert order == ["cheap2", "cheap", "mid", "gold"]


def _candidates(offered, slo):
    """The loop's candidate sequence, planning at the offered rates."""
    order = shed_order(sorted(offered), offered, slo)
    return Candidates(offered, [(cid, slo[cid].degrade_floor) for cid in order])


def _adopted(offered, slo, budget):
    """The verdict :func:`admit` picks when capacity is ``budget`` Mbps,
    the relaxation and ``place()`` both being the sum rule."""
    candidates = _candidates(offered, slo)

    def fits(k):
        return sum(candidates[k][1].values()) <= budget

    k = admit(candidates, fits, fits)
    return None if k is None else candidates[k]


def test_admission_admits_everything_when_feasible():
    offered = {"a": 5.0, "b": 5.0}
    assert _adopted(offered, {"a": GOLD, "b": SILVER}, 10.0) == ((), offered)


def test_admission_degrades_before_shedding():
    # Capacity 8: bronze victim degraded to 2.5 (floor 0.25) fits.
    offered = {"keep": 5.0, "victim": 10.0}
    slo = {"keep": GOLD, "victim": BRONZE}
    assert _adopted(offered, slo, 8.0) == ((), {"keep": 5.0, "victim": 2.5})


def test_admission_sheds_cheapest_first_and_fully():
    offered = {"g": 6.0, "s": 6.0, "b": 6.0}
    slo = {"g": GOLD, "s": SILVER, "b": BRONZE}
    # Bronze is shed outright (its degrade to 1.5 still leaves 13.5);
    # silver's degrade to 3.0 lands exactly at the budget.
    assert _adopted(offered, slo, 9.0) == (("b",), {"g": 6.0, "s": 3.0})
    # Shedding every class is not a verdict.
    assert _adopted(offered, slo, 1.0) is None


def test_candidates_after_a_refusal_shed_the_current_victim():
    offered = {"g": 6.0, "s": 6.0, "b": 6.0}
    slo = {"g": GOLD, "s": SILVER, "b": BRONZE}
    candidates = _candidates(offered, slo)
    # admit-all, b degraded, b shed, s degraded, s shed (g only: not gold's
    # degrade, which its floor of 1 rules out, nor the all-shed state).
    assert len(candidates) == 5
    assert [candidates.shed_next(k) for k in range(1, 5)] == [2, 4, 4, 5]
    assert candidates[4] == (("b", "s"), {"g": 6.0})


def test_assign_slo_classes_is_order_independent():
    ids = ["c2", "c0", "c1"]
    a = assign_slo_classes(ids)
    b = assign_slo_classes(sorted(ids))
    assert a == b
    assert {v.name for v in a.values()} <= set(SLO_CLASSES)


# ----------------------------------------------------------------------
# Plan diff
# ----------------------------------------------------------------------
def test_diff_plans_reports_slot_delta():
    classes = [_cls("a", 100.0)]
    old = PlacementPlan(
        quantities={("A", "firewall"): 2},
        distribution={},
        classes=classes,
        catalog=DEFAULT_CATALOG,
        objective=2,
    )
    new = PlacementPlan(
        quantities={("A", "firewall"): 1, ("B", "nat"): 1},
        distribution={},
        classes=classes,
        catalog=DEFAULT_CATALOG,
        objective=2,
    )
    delta = diff_plans(old, new)
    assert delta.retired == ("firewall[1]@A",)
    assert delta.added == ("nat[0]@B",)
    # -1 firewall (4 cores) + 1 nat (2 cores)
    assert delta.core_delta == -2
    assert diff_plans(old, old) == PlanDelta(added=(), retired=(), core_delta=0)


# ----------------------------------------------------------------------
# Time to absorb
# ----------------------------------------------------------------------
def test_time_to_absorb_reads_each_window_only():
    # The first window never breaches the watermark; the overload at t=5
    # belongs to the second window and is charged there alone.
    metrics = ElasticMetrics(0.5)
    for time, util, in_flight in (
        (1.0, 0.5, False),
        (2.0, 0.6, False),
        (5.0, 0.95, True),
        (6.0, 0.9, True),
        (7.0, 0.5, False),
    ):
        metrics.record_tick(ElasticTick(time, util, 0.0, "hold", in_flight, False))
    assert metrics.time_to_absorb([(0.0, 3.0), (4.0, 8.0)], 0.8) == [0.0, 3.0]
    assert metrics.time_to_absorb([(4.0, 8.0)], 0.95) == [0.0]
    # Never back under the watermark: never absorbed.
    assert metrics.time_to_absorb([(0.0, 3.0)], 0.4) == [None]


# ----------------------------------------------------------------------
# End to end: the flash-crowd scenario
# ----------------------------------------------------------------------
def test_flash_crowd_quick_row_scales_and_stays_clean():
    row, sig = _flash_row(2.0, seed=0, quick=True)
    out, in_, drained = row[2], row[3], row[5]
    pv_seconds, drift, verify = row[-3], row[-2], row[-1]
    assert out >= 1 and in_ >= 1  # the spike triggered both directions
    assert drained > 0  # scale-in actually retired instances
    assert pv_seconds == 0.0
    assert drift == 0
    assert verify == "OK"
    # Bit-identical rerun.
    _, sig2 = _flash_row(2.0, seed=0, quick=True)
    assert sig == sig2


def test_flash_crowd_high_amplitude_sheds_not_violates():
    row, _ = _flash_row(8.0, seed=0, quick=True)
    shed, pv_seconds, verify = row[7], row[-3], row[-1]
    assert shed > 0  # capacity exhaustion engaged the admission oracle
    assert pv_seconds == 0.0  # shed flows are quarantined, never misrouted
    assert verify == "OK"


@pytest.mark.parametrize("amplitude", FULL_AMPLITUDES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_full_scale_flash_crowd_stays_interference_free(seed, amplitude):
    """Every cell of the 3 seeds x 3 amplitudes grid: shedding quarantines
    (zero policy-violation-seconds), every spike is absorbed, no drift,
    every epoch convergence verified."""
    row, _ = _flash_row(amplitude, seed=seed)
    absorb, pv_seconds, drift, verify = row[9], row[-3], row[-2], row[-1]
    assert pv_seconds == 0.0
    assert absorb != "unbounded"
    assert drift == 0
    assert verify == "OK"


def test_full_scale_flash_crowd_reruns_bit_identically():
    _, sig = _flash_row(FULL_AMPLITUDES[-1], seed=0)
    assert _flash_row(FULL_AMPLITUDES[-1], seed=0)[1] == sig


def _baseline_run(with_disabled_elastic: bool):
    """A plain southbound run, optionally with a disabled elastic loop."""
    world = World(
        Scenario(
            6.0, day0=partial(replay_day0, "internet2"), loss=SouthboundChaosConfig()
        )
    )
    if with_disabled_elastic:
        # Disabled = built but never started: no timer, no tick.
        elastic = ElasticController(world.worker, lambda now: {})
    result = world.play()
    if with_disabled_elastic:
        assert elastic.metrics.ticks_total == 0
    return result.signature(), world.fabric.state_signature()


def test_disabled_loop_reproduces_baseline_bit_identically():
    assert _baseline_run(False) == _baseline_run(True)


def test_fabric_drain_is_opt_in():
    # Default fabric never drains, even across shrinking pushes.
    topo, controller, series = standard_setup(
        "internet2",
        snapshots=1,
        seed=0,
        demand_mbps=TOPOLOGY_DEMAND_MBPS["internet2"],
        engine_config=EngineConfig(capacity_headroom=REPLAY_HEADROOM),
    )
    sim = Simulator()
    deployment = controller.run(series.snapshots[0], sim=sim)
    fabric = SouthboundFabric(
        sim, deployment.network, 0, controller.rule_generator
    )
    assert fabric.drain_retired is False
    assert fabric.drained_total == 0
