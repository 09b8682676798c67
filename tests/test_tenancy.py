"""Tests for the multi-tenant intent orchestrator (repro.tenancy)."""

import dataclasses
import sys
from pathlib import Path

import pytest

from repro.core.controller import AppleController, UnknownClassError
from repro.core.reconfigure import realize
from repro.experiments.harness import normalize_name
from repro.experiments.multi_tenant import generate_intents, history
from repro.experiments.scenario import World, play
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.sim.kernel import Simulator
from repro.sim.rng import derive
from repro.tenancy import (
    CapacityArbiter,
    CreateChain,
    DeleteChain,
    IntentBus,
    IntentValidationError,
    Replan,
    ScaleChain,
    TenantOrchestrator,
    UpdateRates,
)
from repro.tenancy.intents import COMPLETED, FAILED, REJECTED
from repro.topology.datasets import internet2
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import STANDARD_CHAINS
from repro.vnf.types import DEFAULT_CATALOG

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import churn_counts  # noqa: E402


# ----------------------------------------------------------------------
# Intent validation + bus
# ----------------------------------------------------------------------
def _bus():
    sim = Simulator(seed=0)
    bus = IntentBus(sim)
    seen = []
    bus.subscribe(seen.append)
    return sim, bus, seen


def test_intent_validation_rejects_malformed():
    cases = [
        CreateChain("", chain_id="c", src="a", dst="b",
                    chain=("firewall",), rate_mbps=10.0),
        CreateChain("t", chain_id="", src="a", dst="b",
                    chain=("firewall",), rate_mbps=10.0),
        CreateChain("t", chain_id="c", src="a", dst="a",
                    chain=("firewall",), rate_mbps=10.0),
        CreateChain("t", chain_id="c", src="a", dst="b",
                    chain=(), rate_mbps=10.0),
        CreateChain("t", chain_id="c", src="a", dst="b",
                    chain=("firewall",), rate_mbps=0.0),
        UpdateRates("t", rates=()),
        UpdateRates("t", rates=(("c", -5.0),)),
        *(
            intent
            for rate in (float("nan"), float("inf"))
            for intent in (
                CreateChain("t", chain_id="c", src="a", dst="b",
                            chain=("firewall",), rate_mbps=rate),
                UpdateRates("t", rates=(("c", 10.0), ("d", rate))),
            )
        ),
        ScaleChain("t", chain_id="c", factor=0.0),
        DeleteChain("t", chain_id=""),
        Replan(""),
        Replan("t", victims=(("t/c", 0.5),)),  # victims without rates
        Replan("t", rates=(("t/c", float("nan")),)),
        Replan("t", rates=(("t/c", 0.0),)),
        Replan("t", rates=(("t/c", 10.0),), victims=(("t/d", 0.5),)),
        Replan("t", rates=(("t/c", 10.0),), victims=(("t/c", 0.5),) * 2),
        *(
            Replan("t", rates=(("t/c", 10.0),), victims=(("t/c", floor),))
            for floor in (0.0, 1.5, -0.25, float("nan"))
        ),
    ]
    for intent in cases:
        with pytest.raises(IntentValidationError):
            intent.validate()


def test_bus_rejects_malformed_without_enqueuing():
    sim, bus, seen = _bus()
    with pytest.raises(IntentValidationError):
        bus.submit(ScaleChain("t", chain_id="", factor=2.0))
    sim.run()
    assert bus.records == [] and seen == []


def test_bus_delivers_in_time_then_submission_order():
    sim, bus, seen = _bus()
    a = bus.submit(DeleteChain("t1", chain_id="c"), delay=2.0)
    b = bus.submit(DeleteChain("t2", chain_id="c"), delay=1.0)
    c = bus.submit(DeleteChain("t3", chain_id="c"), delay=1.0)
    sim.run()
    assert seen == [b, c, a]
    assert [r.seq for r in bus.records] == [0, 1, 2]


def test_bus_allows_single_subscriber():
    sim = Simulator(seed=0)
    bus = IntentBus(sim)
    bus.subscribe(lambda r: None)
    with pytest.raises(RuntimeError):
        bus.subscribe(lambda r: None)


# ----------------------------------------------------------------------
# Capacity arbiter
# ----------------------------------------------------------------------
@pytest.fixture()
def arb_env():
    sim = Simulator(seed=0)
    arb = CapacityArbiter(
        sim, {"s0": 8, "s1": 8, "s2": 0}, tcam_budget=64, admission_timeout=5.0
    )
    return sim, arb


def _balanced(arb):
    """steady + inflight + free == physical on every switch."""
    for sw, cap in arb.physical.items():
        charged = sum(
            m.get(sw, 0) for ledger in (arb.steady, arb.inflight)
            for m in ledger.values()
        )
        if charged + arb.free[sw] != cap:
            return False
    return arb.charges() is not None


def test_arbiter_grant_settle_release(arb_env):
    sim, arb = arb_env
    assert arb.physical == {"s0": 8, "s1": 8}  # a 0-core switch is no host
    assert arb.request("tA", {"s0": 3, "s1": 0}, 10, resume=None) == arb.GRANTED
    # Exactly the plan is charged, TCAM entries included, at request.
    assert arb.inflight["tA"] == {"s0": 3}
    assert arb.inflight_tcam["tA"] == 10 and arb.tcam_free == 54
    assert arb.free == {"s0": 5, "s1": 8} and _balanced(arb)

    arb.settle("tA", {"s0": 3})
    assert arb.steady["tA"] == {"s0": 3} and "tA" not in arb.inflight
    assert arb.tcam_used["tA"] == 10 and arb.tcam_free == 54

    # Make-before-break: what the next op creates is charged beside the
    # live plan...
    assert arb.request("tA", {"s1": 4}, 12, resume=None) == arb.GRANTED
    assert arb.free == {"s0": 5, "s1": 4} and arb.tcam_free == 42
    assert _balanced(arb)
    # ...and settle makes the new plan the holding: it kept nothing on s0.
    arb.settle("tA", {"s1": 4})
    assert arb.steady["tA"] == {"s1": 4} and arb.free == {"s0": 8, "s1": 4}
    assert arb.tcam_free == 52 and arb.granted_total == 2

    # A delta epoch: the plan keeps its 4 cores on s1 and creates 2 on s0;
    # only the 2 are requested, and settle charges the whole new plan.
    assert arb.request("tA", {"s0": 2}, 12, resume=None) == arb.GRANTED
    assert arb.free == {"s0": 6, "s1": 4} and _balanced(arb)
    arb.settle("tA", {"s0": 2, "s1": 4})
    assert arb.steady["tA"] == {"s0": 2, "s1": 4}
    assert arb.free == {"s0": 6, "s1": 4} and _balanced(arb)
    assert arb.granted_total == 3

    arb.release("tA")
    assert arb.free == arb.physical and arb.tcam_free == arb.tcam_budget
    assert arb.steady == arb.inflight == {} and _balanced(arb)


def test_arbiter_queues_then_resumes_on_release(arb_env):
    sim, arb = arb_env
    assert arb.request("tA", {"s0": 8}, 4, resume=None) == arb.GRANTED
    arb.settle("tA", {"s0": 8})

    got = []
    assert arb.request("tB", {"s0": 2, "s1": 2}, 4, resume=got.append) == arb.QUEUED
    assert arb.queued_total == 1 and "tB" not in arb.inflight
    assert arb.free == {"s0": 0, "s1": 8}  # a parked request holds nothing

    arb.release("tA")  # frees the pool; tB resumes as a sim event
    assert got == [] and arb.inflight["tB"] == {"s0": 2, "s1": 2}
    sim.run(until=1.0)
    assert got == [True] and arb.queue == []
    assert arb.free == {"s0": 6, "s1": 6} and _balanced(arb)
    sim.run(until=10.0)  # the spent timeout changes nothing
    assert got == [True] and arb.rejected_total == 0


def test_arbiter_queue_prefers_priority_then_arrival(arb_env):
    sim, arb = arb_env
    assert arb.request("tA", {"s0": 8}, 4, resume=None) == arb.GRANTED
    got = []
    for tenant, priority in (("tB", 0), ("tC", 2), ("tD", 2)):
        status = arb.request(
            tenant, {"s0": 3}, 4, resume=lambda ok, t=tenant: got.append(t),
            priority=priority,
        )
        assert status == arb.QUEUED
    arb.release("tA")
    sim.run(until=1.0)
    assert got == ["tC", "tD"]  # tB no longer fits: it stays parked
    assert [p.tenant_id for p in arb.queue] == ["tB"]


def test_arbiter_admission_timeout_rejects(arb_env):
    sim, arb = arb_env
    assert arb.request("tA", {"s0": 8}, 4, resume=None) == arb.GRANTED
    got = []
    assert arb.request("tB", {"s0": 1}, 4, resume=got.append) == arb.QUEUED
    sim.run(until=10.0)  # nothing releases; the 5 s timeout fires
    assert got == [False]
    assert arb.queue == [] and arb.rejected_total == 1
    assert arb.free == {"s0": 0, "s1": 8} and _balanced(arb)


def test_arbiter_rejects_what_can_never_fit(arb_env):
    sim, arb = arb_env
    for need, tcam in (
        ({"s0": 9}, 4),  # above a physical host
        ({"s2": 1}, 4),  # a switch with no host
        ({"nowhere": 1}, 4),
        ({"s0": 1}, 65),  # above the whole TCAM budget
    ):
        assert arb.request("tA", need, tcam, resume=None) == arb.REJECTED
        assert arb.queue == [] and arb.inflight == {}
        assert arb.free == arb.physical and arb.tcam_free == arb.tcam_budget
    assert arb.rejected_total == 4


def test_arbiter_tcam_budget_enforced_at_commit(arb_env):
    """A plan's TCAM entries are committed at request: one entry above the
    budget is refused and charges nothing; exactly the budget is granted
    and leaves no entry for anyone else."""
    sim, arb = arb_env
    assert arb.request("tA", {"s0": 1}, 65, resume=None) == arb.REJECTED
    assert arb.inflight_tcam == {} and arb.tcam_free == arb.tcam_budget
    assert arb.free == arb.physical

    assert arb.request("tA", {"s0": 1}, 64, resume=None) == arb.GRANTED
    assert arb.inflight_tcam == {"tA": 64} and arb.tcam_free == 0
    assert _balanced(arb)
    got = []
    assert arb.request("tB", {"s1": 1}, 1, resume=got.append) == arb.QUEUED
    arb.release("tA")
    sim.run(until=1.0)
    assert got == [True] and arb.tcam_free == 63 and _balanced(arb)


def test_arbiter_tcam_above_free_parks_like_cores(arb_env):
    sim, arb = arb_env
    assert arb.request("tA", {"s0": 1}, 40, resume=None) == arb.GRANTED
    arb.settle("tA", {"s0": 1})
    got = []
    # 30 entries fit the budget of 64 but not the 24 free: park.
    assert arb.request("tB", {"s1": 1}, 30, resume=got.append) == arb.QUEUED
    # A tenant's live entries are not claimable for its own next op.
    assert arb.request("tA", {"s0": 1}, 40, resume=got.append) == arb.QUEUED
    arb.release("tA")
    sim.run(until=1.0)
    assert got == [True] and arb.inflight_tcam == {"tB": 30}
    assert [p.tenant_id for p in arb.queue] == ["tA"]


def test_recovery_replan_is_charged_only_the_instance_it_creates():
    """A re-plan that keeps every running instance but the one a host crash
    killed is charged exactly its replacement's cores; settle then holds
    the whole new plan, and the audit sees every running core charged."""
    topo = internet2(default_host_cores=64)
    sim = Simulator(seed=0)
    orch = TenantOrchestrator(topo, sim, seed=0)
    orch.start()
    for k, (src, dst) in enumerate(
        [("STTL", "ATLA"), ("LOSA", "NYCM"), ("CHIN", "HSTN")]
    ):
        orch.submit(CreateChain("t", chain_id=f"c{k}", src=src, dst=dst,
                                chain=tuple(STANDARD_CHAINS[k]), rate_mbps=300.0))
    sim.run(until=5.0)
    worker = orch.workers["t"]
    old = worker.deployment.plan
    assert sorted(worker.fabric.instances) == [
        "firewall[0]@ATLA", "firewall[0]@KSCY", "ids[0]@HSTN", "nat[0]@CHIN",
        "proxy[0]@ATLA",
    ]
    # CHIN dies with its one instance; the re-plan moves that NAT one hop
    # down t/c2's path (CHIN, IPLS, ATLA, HSTN), to IPLS, and keeps the
    # other four where they run.
    topo.fail_host("CHIN")
    worker.fabric.instances["nat[0]@CHIN"].shutdown()
    quantities = {k: v for k, v in old.quantities.items() if k[0] != "CHIN"}
    quantities[("IPLS", "nat")] = 1
    distribution = dict(old.distribution)
    distribution[("t/c2", 1, 0)] = distribution.pop(("t/c2", 0, 0))
    plan = dataclasses.replace(
        old, quantities=quantities, distribution=distribution
    )
    worker.solve = lambda classes, incumbent: (
        plan, *realize(worker.rulegen, plan)
    )
    requests = []
    request = orch.arbiter.request

    def recorded(tenant_id, need, *args, **kwargs):
        requests.append(dict(need))
        return request(tenant_id, need, *args, **kwargs)

    orch.arbiter.request = recorded
    record = orch.submit(Replan("t"))
    sim.run(until=10.0)
    nat = DEFAULT_CATALOG.get("nat").cores
    assert requests == [{"IPLS": nat}]
    assert record.status == COMPLETED
    assert orch.arbiter.steady["t"] == plan.cores_by_switch()
    assert sorted(worker.fabric.instances) == [
        "firewall[0]@ATLA", "firewall[0]@KSCY", "ids[0]@HSTN", "nat[0]@IPLS",
        "proxy[0]@ATLA",
    ]
    assert orch.cross_tenant_violation_seconds == 0
    assert orch.arbiter.charges() is not None


def test_teardown_shuts_the_tenant_vms_down():
    """The last DeleteChain returns the tenant's cores to the pool, so its
    VMs must stop too: none may keep running uncharged."""
    sim = Simulator(seed=0)
    orch = TenantOrchestrator(internet2(default_host_cores=64), sim, seed=0)
    orch.start()
    orch.submit(CreateChain("t", chain_id="c", src="STTL", dst="ATLA",
                            chain=tuple(STANDARD_CHAINS[0]), rate_mbps=300.0))
    sim.run(until=2.0)
    vms = list(orch.workers["t"].fabric.instances.values())
    assert vms and all(vm.running for vm in vms)
    orch.submit(DeleteChain("t", chain_id="c"))
    sim.run(until=4.0)
    orch.stop()
    assert orch.workers["t"].fabric is None and "t" not in orch.arbiter.steady
    assert not any(vm.running for vm in vms)


# ----------------------------------------------------------------------
# UnknownClassError (typed controller lookup failure)
# ----------------------------------------------------------------------
def test_send_packet_raises_typed_unknown_class():
    topo = internet2()
    controller = AppleController(topo, hashed_assignment(STANDARD_CHAINS))
    controller.run(gravity_matrix(topo, 4000.0, seed=0))
    with pytest.raises(UnknownClassError) as exc_info:
        controller.send_packet("ghost", 0.1)
    assert isinstance(exc_info.value, KeyError)  # stays catchable as before
    assert exc_info.value.class_id == "ghost"
    assert "ghost" in str(exc_info.value)


# ----------------------------------------------------------------------
# Orchestrator end to end
# ----------------------------------------------------------------------
def _orchestrate(intents, horizon=30.0, host_cores=64):
    topo = internet2(default_host_cores=host_cores)
    sim = Simulator(seed=0)
    orch = TenantOrchestrator(topo, sim, seed=0)
    orch.start()
    records = [orch.submit(intent, delay=delay) for delay, intent in intents]
    sim.run(until=horizon)
    orch.stop()
    return orch, records


def test_orchestrator_full_lifecycle():
    chain = tuple(STANDARD_CHAINS[0])
    orch, records = _orchestrate(
        [
            (0.0, CreateChain("tA", chain_id="web", src="STTL", dst="ATLA",
                              chain=chain, rate_mbps=200.0)),
            (0.5, CreateChain("tB", chain_id="db", src="CHIN", dst="HSTN",
                              chain=chain, rate_mbps=150.0)),
            (2.0, UpdateRates("tA", rates=(("web", 500.0),))),
            (4.0, ScaleChain("tB", chain_id="db", factor=2.0)),
            (8.0, DeleteChain("tB", chain_id="db")),
        ]
    )
    assert [r.status for r in records] == [COMPLETED] * 5
    assert orch.verify_ok == orch.convergences > 0
    assert orch.verify_failed == 0
    assert orch.cross_tenant_violation_seconds == 0
    assert orch.total_drift() == 0
    # tB tore down fully: arbiter holds nothing for it, tA still live.
    assert "tB" not in orch.arbiter.steady
    assert orch.workers["tA"].chains["web"].rate_mbps == 500.0
    assert orch.workers["tB"].chains == {}
    assert orch.active_tenants() == 1


def test_orchestrator_tenant_scoped_miss_fails_cleanly():
    chain = tuple(STANDARD_CHAINS[0])
    orch, records = _orchestrate(
        [
            (0.0, CreateChain("tA", chain_id="web", src="STTL", dst="ATLA",
                              chain=chain, rate_mbps=100.0)),
            (1.0, ScaleChain("tA", chain_id="ghost", factor=2.0)),
            (2.0, DeleteChain("tB", chain_id="web")),  # tA's chain, not tB's
        ]
    )
    create, scale, cross = records
    assert create.status == COMPLETED
    assert scale.status == FAILED
    assert "tenant-scoped miss" in scale.detail and "tA/ghost" in scale.detail
    assert cross.status == FAILED  # tenants cannot touch each other's chains
    assert "tB/web" in cross.detail
    assert orch.workers["tA"].chains["web"].rate_mbps == 100.0  # untouched


def test_orchestrator_duplicate_create_fails():
    chain = tuple(STANDARD_CHAINS[0])
    orch, records = _orchestrate(
        [
            (0.0, CreateChain("tA", chain_id="web", src="STTL", dst="ATLA",
                              chain=chain, rate_mbps=100.0)),
            (1.0, CreateChain("tA", chain_id="web", src="STTL", dst="ATLA",
                              chain=chain, rate_mbps=100.0)),
        ]
    )
    assert records[0].status == COMPLETED
    assert records[1].status == FAILED
    assert "already exists" in records[1].detail


def test_orchestrator_capacity_rejection_is_terminal():
    chain = ("firewall", "ids", "proxy")
    orch, records = _orchestrate(
        [
            (0.0, CreateChain("tA", chain_id="huge", src="STTL", dst="ATLA",
                              chain=chain, rate_mbps=1e6)),
        ],
        host_cores=4,
    )
    # No plan fits even the empty substrate: the engine's refusal is the
    # rejection, and the arbiter is never asked.
    assert records[0].status == REJECTED
    assert records[0].detail.startswith("placement infeasible: ")
    assert orch.arbiter.granted_total == orch.arbiter.rejected_total == 0
    assert orch.cross_tenant_violation_seconds == 0


# ----------------------------------------------------------------------
# Satellites: metrics cardinality cap, CLI name normalization
# ----------------------------------------------------------------------
def test_history_that_crashed_dust_consolidation_runs_clean():
    """The platform history that raised KeyError ('t0058/c1', 0, 0) in
    ``_consolidate_dust`` at simulated 26.75 s answers every intent."""
    seed = derive(1000024, "pipeline.history.0")
    topo = internet2(default_host_cores=160)
    sim = Simulator(seed=seed)
    orch = TenantOrchestrator(topo, sim, seed=seed)
    orch.start()
    for delay, intent in generate_intents(100, sorted(topo.hosts), seed):
        orch.submit(intent, delay=delay)
    sim.run(until=70.0)
    orch.stop()
    m = orch.metrics_summary()
    assert (m["intents"], m["waiting"], m["drift"]) == (339, 0, 0)
    assert m["completed"] + m["rejected"] + m["failed"] == 339
    assert m["verify_failed"] == 0


@pytest.mark.parametrize("tenants", [25, 50, 100, 200])
def test_platform_history_keeps_tenants_isolated(tenants):
    """Whole seed-0 histories up to 200 tenants: no cross-tenant policy
    violation, no probe off its chain or path, every convergence verified,
    no drift, every intent terminal."""
    result = play(history(tenants), 0)
    m = result.summary
    assert result.metrics["policy_violation_seconds"] == 0
    assert m["cross_tenant_violation_seconds"] == 0
    assert m["verify_failed"] == 0
    assert m["drift"] == 0
    assert m["waiting"] == 0


def _assert_running_is_charged(orch):
    """Each host's running-instance cores == the arbiter's steady charge
    there, and fit the host."""
    running = churn_counts.running_cores(orch)
    assert running == churn_counts.steady_cores(orch)
    assert all(c <= orch.arbiter.physical[h] for h, c in running.items())


def test_running_instances_are_what_the_arbiter_charges():
    """A re-plan's retired instances are drained once its epoch converges:
    at the horizon of the quick 16-tenant row and of three seed-1
    100-tenant churn histories, no VM runs that no charge covers."""
    world = World(history(16), 1)
    world.play()
    _assert_running_is_charged(world.orch)
    counts = churn_counts.Counts()
    for k in range(3):
        churn_counts.run_history(counts, 100, derive(1, f"pipeline.history.{k}"))
    assert counts.failed_places == 0
    assert (counts.uncharged_hosts, counts.overfull_hosts) == (0, 0)


def test_same_seed_histories_are_bit_identical():
    first = play(history(50), 0).state_signature
    assert play(history(50), 0).state_signature == first


def test_metrics_registry_configurable_series_cap():
    registry = MetricsRegistry(max_series=3)
    metric = registry.counter("tenancy_test_total", "per-tenant", ["tenant"])
    for i in range(3):
        metric.labels(tenant=f"t{i}").inc()
    with pytest.raises(MetricError, match="cardinality limit"):
        metric.labels(tenant="t3").inc()
    # The cap can also be raised after construction (hot-loop escape hatch).
    registry.max_series = 5
    metric.labels(tenant="t3").inc()

    with pytest.raises(MetricError):
        MetricsRegistry(max_series=0)
    assert MetricsRegistry().max_series == 512


def test_cli_normalizes_hyphenated_experiment_names():
    assert normalize_name("multi-tenant") == "multi_tenant"
    assert normalize_name("multi_tenant") == "multi_tenant"
    from repro.experiments.cli import EXPERIMENTS

    assert "multi_tenant" in EXPERIMENTS
