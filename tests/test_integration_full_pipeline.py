"""Full-pipeline integration: the whole system on one GEANT scenario.

One test module exercising every layer together, the way a downstream
user would drive the library: traffic synthesis → classes → placement →
day-0 deployment (``AppleController.deploy``) → rule verification →
replay with fast failover → re-placement for the peak — asserting the
cross-layer consistency properties at each seam.
"""

import numpy as np
import pytest

from repro.core.controller import AppleController
from repro.core.dynamic import FailoverConfig
from repro.core.engine import EngineConfig
from repro.core.verify import verify_deployment
from repro.sim.kernel import Simulator
from repro.topology.datasets import geant
from repro.traffic.classes import hashed_assignment
from repro.traffic.diurnal import synthesize_series
from repro.traffic.matrix import TrafficMatrix
from repro.traffic.replay import replay_series
from repro.vnf.chains import STANDARD_CHAINS


@pytest.fixture(scope="module")
def scenario():
    topo = geant()
    controller = AppleController(
        topo,
        hashed_assignment(STANDARD_CHAINS),
        min_rate_mbps=1.0,
        engine_config=EngineConfig(capacity_headroom=0.8),
    )
    series = synthesize_series(topo, 12_000.0, snapshots=24, interval=60.0, seed=9)
    return topo, controller, series


def test_full_pipeline(scenario):
    topo, controller, series = scenario
    sim = Simulator(seed=20)

    # 1. Plan from the mean matrix.
    plan = controller.compute_placement(series.mean())
    assert not plan.validate(
        controller.available_cores(),
        available_memory_gb=controller.available_memory_gb(),
    )

    # 2. Day-0 deployment: sub-classes, rules and a wired data plane.
    deployment = controller.deploy(plan, sim=sim)
    assert controller.deployment is deployment

    # 3. Verify the deployment end to end.
    report = verify_deployment(deployment, topo)
    assert report.ok, report.summary()

    # 4. Replay with fast failover keeps loss low with few extras.
    timeline = replay_series(controller.class_builder, series)
    handler = controller.make_dynamic_handler(FailoverConfig(enabled=True))
    loss = handler.replay(timeline)
    assert loss.mean_loss < 0.02
    assert loss.mean_extra_cores < 64

    # 5. Re-placement for the peak matrix converges to a feasible,
    #    larger plan.
    peak_plan = controller.engine.place(
        controller.class_builder.build(
            TrafficMatrix(series.nodes, np.max([s.array for s in series], axis=0))
        ),
        controller.available_cores(),
    )
    assert peak_plan.total_instances() >= plan.total_instances()
    assert not peak_plan.validate(controller.available_cores())
