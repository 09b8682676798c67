"""End-to-end chaos runs: detection, recovery, determinism, no-op identity."""

from types import SimpleNamespace

import pytest

from repro.chaos import ChaosConfig, FaultEvent, FaultKind, FaultSchedule
from repro.core.controller import AppleController
from repro.dataplane.switch import QUARANTINE_PREFIX
from repro.experiments.scenario import ProbeLoop, Scenario, World, play
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


def _day0(deployed=_deployed):
    return lambda seed: deployed(seed)[1:3]


def _chaos_run(seed=SEED, config=SMOKE_CONFIG, until=HORIZON, deployed=_deployed):
    return play(Scenario(until, day0=_day0(deployed), faults=config), seed)


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
# S1 regression: an armed-but-empty scenario is a perfect no-op
# ----------------------------------------------------------------------
def test_empty_schedule_bit_identical_to_plain_run():
    until = 8.0

    # Plain run: the controller's day 0 with the probe loop only — no
    # orchestrator, worker, fabric or arbiter adopts it.
    _topo, controller, sim, deployment = _deployed()
    plan = deployment.plan
    worker = SimpleNamespace(
        deployment=deployment,
        chains={f"{k:06d}": c for k, c in enumerate(plan.classes)},
        fabric=SimpleNamespace(active_path=lambda class_id: None),
    )
    plain = SimpleNamespace(
        sim=sim, orch=SimpleNamespace(workers={"apple": worker})
    )
    loop = ProbeLoop(plain)
    loop.start()
    sim.run(until=until)
    loop.stop()
    plain_stats = deployment.network.stats_snapshot()

    # The same day 0 adopted, with injector, detector, recovery and audit
    # armed on an empty schedule.
    armed = World(Scenario(until, day0=_day0()), SEED)
    result = armed.play()

    assert loop.ticks and armed.probes.ticks == loop.ticks
    assert result.network_stats == plain_stats
    assert armed.chaos.faults == {}
    assert armed.chaos.convergences == []
    assert armed.detector.detections == []


def test_scenario_rejects_what_it_cannot_play():
    day0, crash = _day0(), (FaultEvent(time=2.0, kind=FaultKind.CONTROLLER_CRASH,
                                       target="controller", duration=1.0),)
    intents = lambda seed: (internet2(), [])  # noqa: E731
    for kwargs in (
        {},
        {"day0": day0, "intents": intents},
        {"intents": intents, "faults": SMOKE_CONFIG},
        {"day0": day0, "crashes": crash, "checkpoint_interval": 1.0},
        {"intents": intents, "crashes": crash},
    ):
        with pytest.raises(ValueError):
            Scenario(8.0, **kwargs)


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
    scenario = Scenario(8.0, day0=lambda seed: (controller, sim), faults=schedule)
    result = play(scenario)
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
    world = World(
        Scenario(8.0, day0=lambda seed: (controller, sim), faults=schedule)
    )
    result = world.play()

    assert not victim.running
    replacement = world.worker.deployment.instances[victim_key]
    assert replacement is not victim
    assert replacement.running
    assert replacement.switch == victim.switch
    assert result.final_verify_ok
    # The re-solve is the first with an incumbent (the day-0 plan's counts),
    # so it builds the make-before-break template, and it creates no
    # instance beyond the day-0 plan's.
    assert [c["warm_start"] for c in result.metrics["convergences"]] == [False]
    day0 = deployment.plan.quantities
    assert all(
        n <= day0.get(slot, 0)
        for slot, n in world.worker.deployment.plan.quantities.items()
    )
