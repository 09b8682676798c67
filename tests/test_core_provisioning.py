"""Tests for the orchestrated rollout (plan → cloud substrate → rules)."""

import pytest

from repro.cloud.orchestrator import ResourceOrchestrator
from repro.core.engine import OptimizationEngine
from repro.core.provisioning import OrchestratedProvisioner
from repro.core.rulegen import RuleGenerator
from repro.dataplane.packet import Packet
from repro.sim.kernel import Simulator
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG


def _topo():
    return Topology(
        "line",
        ["a", "b", "c"],
        [Link("a", "b"), Link("b", "c")],
        hosts={
            "a": AppleHostSpec(cores=64),
            "b": AppleHostSpec(cores=64),
            "c": AppleHostSpec(cores=64),
        },
    )


def _plan():
    classes = [
        TrafficClass(
            "c1", "a", "c", ("a", "b", "c"),
            PolicyChain(["nat", "firewall"]), 400.0,
        ),
        TrafficClass(
            "c2", "a", "c", ("a", "b", "c"), PolicyChain(["ids"]), 300.0
        ),
    ]
    return OptimizationEngine().place(classes, {"a": 64, "b": 64, "c": 64})


def _provision(spares=0, fast=True):
    sim = Simulator(seed=1)
    topo = _topo()
    orch = ResourceOrchestrator(sim, topo, spare_clickos=spares)
    sim.run(until=0.5)  # spares boot
    prov = OrchestratedProvisioner(
        sim, orch, RuleGenerator(DEFAULT_CATALOG), use_fast_path=fast
    )
    plan = _plan()
    completions = []
    result = prov.provision(plan, on_complete=completions.append)
    return sim, orch, plan, result, completions


def test_rollout_completes_and_rules_follow_vms():
    sim, orch, plan, result, completions = _provision()
    assert not result.complete  # async: nothing ready yet
    sim.run(until=60.0)
    assert result.complete
    assert completions == [result]
    # Rules were installed only after the last VM was running.
    assert result.rules_installed_at >= result.instances_ready_at
    # The slow path dominates: full VMs (ids) need > 10 s.
    assert result.rollout_seconds > 10.0


def test_rollout_wires_functional_data_plane():
    sim, orch, plan, result, _ = _provision()
    sim.run(until=60.0)
    for cls in plan.classes:
        p = Packet(class_id=cls.class_id, flow_hash=0.5, src="a", dst="c")
        record = result.network.inject(p, now=sim.now)
        assert record.policy_satisfied
        vnfs = [v.split("[")[0] for v in p.vnfs_visited()]
        assert vnfs == list(cls.chain.names)


def test_rollout_consumes_host_cores():
    sim, orch, plan, result, _ = _provision()
    sim.run(until=60.0)
    used = plan.cores_by_switch()
    for switch, host in orch.hosts.items():
        assert host.allocated_cores == used.get(switch, 0)


def test_fast_path_accelerates_clickos_instances():
    sim_fast, orch_fast, plan, result_fast, _ = _provision(spares=8, fast=True)
    sim_fast.run(until=60.0)
    fast_latencies = [
        req.latency
        for req in orch_fast.launches
        if req.instance is not None and req.nf_type.clickos and req.fast
    ]
    assert fast_latencies and min(fast_latencies) <= 0.05  # 30 ms reconfigure


def test_empty_plan_rolls_out_immediately():
    sim = Simulator()
    orch = ResourceOrchestrator(sim, _topo())
    prov = OrchestratedProvisioner(sim, orch, RuleGenerator(DEFAULT_CATALOG))
    from repro.core.placement import PlacementPlan

    empty = PlacementPlan(
        quantities={}, distribution={}, classes=[],
        catalog=DEFAULT_CATALOG, objective=0.0,
    )
    result = prov.provision(empty)
    sim.run(until=1.0)
    assert result.complete
    assert result.rollout_seconds <= 0.1  # just the rule install
