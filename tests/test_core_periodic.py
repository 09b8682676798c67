"""Tests for diffing two placement plans solved at different demands."""

import pytest

from repro.core.controller import AppleController
from repro.core.placement import diff_plans
from repro.topology.datasets import internet2
from repro.traffic.classes import hashed_assignment
from repro.traffic.diurnal import synthesize_series
from repro.traffic.matrix import TrafficMatrix
from repro.vnf.chains import STANDARD_CHAINS


@pytest.fixture
def setup():
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    series = synthesize_series(topo, 10_000.0, snapshots=6, interval=300.0, seed=2)
    return controller, series


def test_diff_plans_directions(setup):
    controller, series = setup
    plan_a = controller.compute_placement(series[0])
    tripled = TrafficMatrix(series[0].nodes, series[0].array * 3.0)
    plan_b = controller.compute_placement(tripled)
    forward = diff_plans(plan_a, plan_b)
    assert len(forward.added) > 0  # 3x demand needs more instances
    assert forward.core_delta > 0
    back = diff_plans(plan_b, plan_a)
    assert back.added == forward.retired and back.retired == forward.added
    assert back.core_delta == -forward.core_delta
