"""Tests for the periodic re-optimization loop (large time-scale)."""

import pytest

from repro.core.controller import AppleController
from repro.core.periodic import PeriodicReoptimizer
from repro.core.placement import diff_plans
from repro.sim.kernel import Simulator
from repro.southbound import SouthboundFabric
from repro.topology.datasets import internet2
from repro.traffic.classes import hashed_assignment
from repro.traffic.diurnal import synthesize_series
from repro.vnf.chains import STANDARD_CHAINS


@pytest.fixture
def setup():
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    series = synthesize_series(topo, 10_000.0, snapshots=6, interval=300.0, seed=2)
    return controller, series


def _provider(series):
    def provide(now: float):
        idx = min(int(now // series.interval), len(series) - 1)
        return series[idx]

    return provide


def test_periodic_runs_each_period(setup):
    controller, series = setup
    sim = Simulator()
    reopt = PeriodicReoptimizer(sim, controller, _provider(series), period=300.0)
    reopt.start(immediately=True)
    sim.run(until=4 * 300.0 - 1)
    reopt.stop()
    assert reopt.runs == 4  # t = 0, 300, 600, 900
    assert all(not r.failed for r in reopt.reports)
    assert all(r.solve_seconds > 0 for r in reopt.reports)


def test_first_run_launches_everything(setup):
    controller, series = setup
    sim = Simulator()
    reopt = PeriodicReoptimizer(sim, controller, _provider(series), period=300.0)
    reopt.start()
    sim.run(until=1.0)
    first = reopt.reports[0]
    assert first.instances_before == 0
    assert first.launched == first.instances_after
    assert not first.retired
    # No southbound fabric attached: churn is reported, nothing deployed.
    assert controller.deployment is None


def test_churn_tracks_traffic_change(setup):
    controller, series = setup
    sim = Simulator()
    reopt = PeriodicReoptimizer(sim, controller, _provider(series), period=300.0)
    reopt.start()
    sim.run(until=3 * 300.0 - 1)
    reopt.stop()
    later = reopt.reports[1:]
    # Subsequent runs adjust at the margin, far below full redeployment.
    initial = reopt.reports[0].churn
    assert all(r.churn < initial for r in later)


def test_redeploy_installs_rules(setup):
    # With a southbound fabric attached the loop commits each new plan
    # through it; the deployment swaps when the epoch converges.
    controller, series = setup
    sim = Simulator()
    day0 = controller.run(series[0], sim=sim)
    fabric = SouthboundFabric(
        sim, day0.network, 0, controller.rule_generator, drain_retired=True
    )
    controller.attach_southbound(fabric)
    reopt = PeriodicReoptimizer(sim, controller, lambda now: series[0].scaled(3.0))
    reopt.start()
    sim.run(until=5.0)
    reopt.stop()
    assert fabric.converged and fabric.epoch == 1 and fabric.drift_count() == 0
    assert controller.deployment is not day0
    assert controller.deployment.plan is reopt.current_plan
    record = controller.send_packet(
        controller.deployment.plan.classes[0].class_id, 0.5
    )
    assert record.policy_satisfied


def test_diff_plans_directions(setup):
    controller, series = setup
    plan_a = controller.compute_placement(series[0])
    plan_b = controller.compute_placement(series[0].scaled(3.0))
    forward = diff_plans(plan_a, plan_b)
    assert len(forward.added) > 0  # 3x demand needs more instances
    assert forward.core_delta > 0
    back = diff_plans(plan_b, plan_a)
    assert back.added == forward.retired and back.retired == forward.added
    assert back.core_delta == -forward.core_delta


def test_invalid_period_rejected(setup):
    controller, series = setup
    with pytest.raises(ValueError):
        PeriodicReoptimizer(Simulator(), controller, _provider(series), period=0.0)
