"""Tests for the resource monitor."""

import pytest

from repro.cloud.monitoring import ResourceMonitor
from repro.cloud.orchestrator import ResourceOrchestrator
from repro.sim.kernel import Simulator
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.vnf.types import FIREWALL, NAT


# ---------------------------------------------------------------------------
# ResourceMonitor
# ---------------------------------------------------------------------------
def _orchestrated():
    sim = Simulator(seed=3)
    topo = Topology(
        "t", ["s1", "s2"], [Link("s1", "s2")],
        hosts={"s1": AppleHostSpec(cores=32)},
    )
    return sim, ResourceOrchestrator(sim, topo)


def test_monitor_polls_on_interval():
    sim, orch = _orchestrated()
    monitor = ResourceMonitor(sim, orch, interval=1.0)
    monitor.start(immediately=True)
    sim.run(until=5.5)
    monitor.stop()
    assert len(monitor.history) == 6  # t = 0..5
    assert monitor.latest.free_cores == {"s1": 32}


def test_monitor_tracks_launches():
    sim, orch = _orchestrated()
    seen = []
    monitor = ResourceMonitor(sim, orch, interval=1.0, on_snapshot=seen.append)
    monitor.start()
    orch.launch_instance(FIREWALL, "s1")
    orch.launch_instance(NAT, "s1")
    sim.run(until=10.0)
    monitor.stop()
    assert monitor.latest.free_cores["s1"] == 32 - 4 - 2
    assert monitor.latest.instance_count == 2
    assert monitor.min_free_cores() == 26
    assert seen == monitor.history
    assert monitor.report_for_engine() == {"s1": 26}


def test_monitor_history_bounded():
    sim, orch = _orchestrated()
    monitor = ResourceMonitor(sim, orch, interval=0.1, history_limit=10)
    monitor.start()
    sim.run(until=10.0)
    assert len(monitor.history) == 10


def test_monitor_validation():
    sim, orch = _orchestrated()
    with pytest.raises(ValueError):
        ResourceMonitor(sim, orch, interval=0.0)
    with pytest.raises(ValueError):
        ResourceMonitor(sim, orch, history_limit=0)
    fresh = ResourceMonitor(sim, orch)
    with pytest.raises(ValueError):
        fresh.min_free_cores()
