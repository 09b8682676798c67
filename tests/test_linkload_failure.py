"""Tests for link-level interference freedom and instance-failure injection."""

from repro.core.controller import AppleController
from repro.core.dynamic import FailoverConfig
from repro.topology.datasets import internet2
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import STANDARD_CHAINS


# ---------------------------------------------------------------------------
# Interference freedom
# ---------------------------------------------------------------------------
def test_interference_freedom_at_link_level():
    """APPLE deployment leaves every path exactly as routing computed."""
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    matrix = gravity_matrix(topo, 8000.0, seed=0)
    pairs = [(a, b) for a in topo.switches for b in topo.switches if a != b]
    routes_before = {pair: controller.router.path(*pair) for pair in pairs}
    paths_before = {c.class_id: c.path for c in controller.class_builder.build(matrix)}
    deployment = controller.run(matrix)  # full deployment
    paths_after = {c.class_id: c.path for c in deployment.plan.classes}
    assert paths_after == paths_before  # placement touched no path
    assert {pair: controller.router.path(*pair) for pair in pairs} == routes_before


# ---------------------------------------------------------------------------
# Failure injection
# ---------------------------------------------------------------------------
def _replay_setup():
    from repro.traffic.diurnal import synthesize_series
    from repro.traffic.replay import replay_series

    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    series = synthesize_series(topo, 8000.0, snapshots=4, interval=60.0, seed=1)
    timeline = replay_series(controller.class_builder, series)
    plan = controller.compute_placement(series.mean())
    controller.deploy(plan)
    return controller, timeline, plan


def test_failed_instance_drops_all_without_failover():
    controller, timeline, plan = _replay_setup()
    handler = controller.make_dynamic_handler(FailoverConfig(enabled=False))
    victim = plan.instance_refs()[0]
    handler.fail_instance(victim)
    result = handler.replay(timeline)
    assert result.mean_loss > 0  # traffic through the victim is lost


def test_failover_routes_around_failure():
    controller, timeline, plan = _replay_setup()
    baseline = controller.make_dynamic_handler(FailoverConfig(enabled=False))
    with_fo = controller.make_dynamic_handler(FailoverConfig(enabled=True))
    victim = plan.instance_refs()[0]
    baseline.fail_instance(victim)
    with_fo.fail_instance(victim)
    loss_without = baseline.replay(timeline).mean_loss
    loss_with = with_fo.replay(timeline).mean_loss
    assert loss_with < loss_without
    # A replacement instance was created for the victim.
    assert any(e.kind == "new-instance" for e in with_fo.events)
