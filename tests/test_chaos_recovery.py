"""End-to-end chaos runs: detection, recovery, determinism, no-op identity."""

import pytest

from repro.chaos import (
    ChaosConfig,
    ChaosEngine,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    ProbeLoop,
    generate_schedule,
)
from repro.core.controller import AppleController
from repro.dataplane.switch import QUARANTINE_PREFIX
from repro.sim.kernel import Simulator
from repro.topology.datasets import internet2
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.traffic.matrix import TrafficMatrix
from repro.vnf.chains import STANDARD_CHAINS
from tests.deploy_series import chaos_deployment

SEED = 5
HORIZON = 16.0

SMOKE_CONFIG = ChaosConfig(
    link_flaps=1,
    host_crashes=0,
    vnf_crashes=1,
    brownouts=0,
    window=(2.0, 6.0),
    flap_duration=(3.0, 5.0),
)


def _deployed(seed=SEED):
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    matrix = gravity_matrix(topo, 8000.0, seed=seed)
    sim = Simulator()
    deployment = controller.run(matrix, sim=sim)
    return topo, controller, sim, deployment


def _chaos_run(seed=SEED, config=SMOKE_CONFIG, until=HORIZON, deployed=_deployed):
    topo, controller, sim, deployment = deployed(seed)
    schedule = generate_schedule(
        topo,
        config,
        seed,
        instance_keys=sorted(deployment.instances),
        hosts_in_use=deployment.rules.hosts_in_use,
    )
    engine = ChaosEngine(sim, controller, schedule)
    return engine.run(until=until)


# ----------------------------------------------------------------------
# Smoke: the acceptance criteria at test scale
# ----------------------------------------------------------------------
def test_smoke_recovery_interference_free():
    result = _chaos_run()
    m = result.metrics

    assert result.faults_injected == SMOKE_CONFIG.link_flaps + SMOKE_CONFIG.vnf_crashes
    assert result.faults_detected == result.faults_injected
    assert result.reconvergences >= result.faults_injected

    # Every fault was repaired, and repairing took nonzero simulated time.
    assert m["mean_time_to_repair"] is not None
    assert m["mean_time_to_repair"] > 0
    assert m["max_time_to_repair"] >= m["mean_time_to_repair"]
    # Detection latency follows the heartbeat model (default 0.5 s x 2).
    assert 0 < m["mean_detection_latency"] <= 2.0

    # The paper's claim under churn: delivered traffic is never
    # mis-chained or re-routed off the registered path.
    assert m["policy_violation_seconds"] == 0
    assert all(c["verify_ok"] for c in m["convergences"])
    assert result.final_policy_violations == 0
    assert result.final_interference_violations == 0
    assert result.final_verify_ok

    # Faults do black-hole traffic until recovery converges.
    assert m["probes_dropped"] > 0
    assert m["downtime_seconds"] > 0


def test_standard_setup_seed3_run_recovers_interference_free():
    """The ``failure-recovery`` experiment's deployment, seed 3: one link
    flap and one VNF crash, each detected and repaired without a policy
    violation."""
    config = ChaosConfig(
        link_flaps=1,
        host_crashes=0,
        vnf_crashes=1,
        brownouts=0,
        window=(3.0, 10.0),
        flap_duration=(4.0, 7.0),
    )
    result = _chaos_run(
        seed=3, config=config, until=22.0, deployed=chaos_deployment
    )
    m = result.metrics
    assert result.faults_detected == result.faults_injected
    assert all(c["verify_ok"] for c in m["convergences"])
    assert result.final_policy_violations == 0
    assert result.final_interference_violations == 0
    assert m["policy_violation_seconds"] == 0


def test_same_seed_bit_identical_run():
    a = _chaos_run()
    b = _chaos_run()
    assert a.signature() == b.signature()
    assert a.schedule_signature == b.schedule_signature
    assert a.metrics == b.metrics
    assert a.network_stats == b.network_stats


def test_different_seed_differs():
    a = _chaos_run(seed=SEED)
    b = _chaos_run(seed=SEED + 1)
    assert a.schedule_signature != b.schedule_signature


# ----------------------------------------------------------------------
# S1 regression: an armed-but-empty chaos engine is a perfect no-op
# ----------------------------------------------------------------------
def test_empty_schedule_bit_identical_to_plain_run():
    until = 8.0

    # Plain run: probe loop only, no chaos machinery attached.
    _topo, controller, sim, deployment = _deployed()
    loop = ProbeLoop(sim, lambda: controller.deployment)
    loop.start()
    sim.run(until=until)
    loop.stop()
    plain_ticks = list(loop.ticks)
    plain_stats = deployment.network.stats_snapshot()

    # Same setup with the full engine armed on an empty schedule.
    _topo, controller, sim, deployment = _deployed()
    engine = ChaosEngine(sim, controller, FaultSchedule.empty(SEED))
    engine.start()
    sim.run(until=until)
    chaos_ticks = list(engine.probes.ticks)
    chaos_stats = deployment.network.stats_snapshot()

    assert chaos_ticks == plain_ticks
    assert chaos_stats == plain_stats
    assert engine.metrics.faults == {}
    assert engine.metrics.convergences == []
    assert engine.detector.detections == []


# ----------------------------------------------------------------------
# Stranded classes: quarantined, never delivered unprocessed
# ----------------------------------------------------------------------
def test_all_stranded_classes_are_quarantined_not_leaked():
    # A ring whose only APPLE host dies: every class is stranded, and the
    # interference-free answer is to black-hole their traffic at ingress
    # rather than deliver it unprocessed.
    topo = Topology(
        "ring",
        ["a", "b", "c", "d"],
        [Link("a", "b"), Link("b", "c"), Link("c", "d"), Link("d", "a")],
        hosts={"b": AppleHostSpec(cores=16)},
    )
    controller = AppleController(topo, hashed_assignment(STANDARD_CHAINS))
    nodes = list(topo.switches)
    demands = [[0.0] * len(nodes) for _ in nodes]
    demands[nodes.index("a")][nodes.index("c")] = 400.0
    matrix = TrafficMatrix(nodes, demands)
    sim = Simulator()
    deployment = controller.run(matrix, sim=sim)
    assert deployment.plan.classes, "setup must place at least one class"

    schedule = FaultSchedule(
        seed=0,
        events=(FaultEvent(time=2.0, kind=FaultKind.HOST_CRASH, target="b"),),
    )
    engine = ChaosEngine(sim, controller, schedule)
    result = engine.run(until=8.0)
    m = result.metrics

    # The convergence stranded every class and placed none.
    assert any(c["stranded"] > 0 and c["classes"] == 0 for c in m["convergences"])
    # Quarantine rules hold the line: traffic drops, nothing is delivered
    # unprocessed, so not a single policy-violation second accrues.
    assert m["policy_violation_seconds"] == 0
    ingress = deployment.network.switches["a"]
    assert any(
        e.name.startswith(QUARANTINE_PREFIX) for e in ingress.table.entries()
    )
    # Post-crash probes of the stranded class black-hole.
    last_tick = m["ticks"][-1]
    assert last_tick[3] == last_tick[1]  # dropped == sent
    assert last_tick[4] == 0  # no policy violations


def test_vnf_crash_replacement_reuses_slot():
    topo, controller, sim, deployment = _deployed()
    victim_key = sorted(deployment.instances)[0]
    victim = deployment.instances[victim_key]

    schedule = FaultSchedule(
        seed=0,
        events=(FaultEvent(time=2.0, kind=FaultKind.VNF_CRASH, target=victim_key),),
    )
    engine = ChaosEngine(sim, controller, schedule)
    result = engine.run(until=8.0)

    assert not victim.running
    replacement = controller.deployment.instances[victim_key]
    assert replacement is not victim
    assert replacement.running
    assert replacement.switch == victim.switch
    assert result.final_verify_ok
    # Same structure, same surviving hosts: the re-solve warm-starts.
    assert any(c["warm_start"] for c in result.metrics["convergences"])
