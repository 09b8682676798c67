"""Tests for the multi-tenant intent orchestrator (repro.tenancy)."""

import pytest

from repro.core.controller import AppleController, UnknownClassError
from repro.experiments.harness import normalize_name
from repro.experiments.multi_tenant import _build_and_run, generate_intents
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.sim.kernel import Simulator
from repro.sim.rng import derive
from repro.tenancy import (
    CapacityArbiter,
    CreateChain,
    DeleteChain,
    IntentBus,
    IntentValidationError,
    ScaleChain,
    TenantOrchestrator,
    UpdateRates,
)
from repro.tenancy.arbiter import repair_grant
from repro.tenancy.intents import COMPLETED, FAILED, REJECTED
from repro.topology.datasets import internet2
from repro.topology.routing import Router
from repro.traffic.classes import TrafficClass, hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import STANDARD_CHAINS, PolicyChain
from repro.vnf.types import DEFAULT_CATALOG


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
def _make_class(topo, router, class_id, rate, chain=("firewall",)):
    pops = sorted(topo.hosts)
    return TrafficClass(
        class_id=class_id,
        src=pops[0],
        dst=pops[-1],
        path=router.path(pops[0], pops[-1]),
        chain=PolicyChain(chain, DEFAULT_CATALOG),
        rate_mbps=rate,
    )


@pytest.fixture()
def arb_env():
    topo = internet2(default_host_cores=8)
    sim = Simulator(seed=0)
    arb = CapacityArbiter(
        sim,
        {s: spec.cores for s, spec in topo.hosts.items()},
        tcam_budget=64,
        catalog=DEFAULT_CATALOG,
        admission_timeout=5.0,
    )
    return sim, arb, topo, Router(topo)


def test_arbiter_grant_commit_settle_release(arb_env):
    sim, arb, topo, router = arb_env
    cls = _make_class(topo, router, "tA/c0", 100.0)
    status, grant = arb.request("tA", [cls], resume=lambda g: None)
    assert status == arb.GRANTED and sum(grant.cores.values()) > 0
    assert not arb.oversubscribed()

    # Commit trims the reservation to actual usage...
    host = max(grant.cores, key=grant.cores.get)
    assert arb.commit("tA", {host: 1}, tcam_entries=4)
    assert arb.inflight["tA"] == {host: 1}
    # ...and settle promotes it to the steady holding.
    arb.settle("tA")
    assert arb.steady["tA"] == {host: 1}
    assert "tA" not in arb.inflight
    assert arb.tcam_used["tA"] == 4
    assert not arb.oversubscribed()

    arb.release("tA")
    assert arb.free == arb.physical
    assert arb.tcam_free == arb.tcam_budget


def test_arbiter_queues_then_resumes_on_release(arb_env):
    sim, arb, topo, router = arb_env
    big = _make_class(topo, router, "tA/c0", 1500.0)  # fills the path head
    status, grant = arb.request("tA", [big], resume=lambda g: None)
    assert status == arb.GRANTED

    got = []
    small = _make_class(topo, router, "tB/c0", 200.0)
    status, _ = arb.request("tB", [small], resume=got.append)
    assert status == arb.QUEUED
    assert arb.queued_total == 1

    arb.release("tA")  # frees the pool; tB resumes as a sim event
    sim.run(until=1.0)
    assert len(got) == 1 and got[0] is not None
    assert got[0].tenant_id == "tB"


def test_arbiter_admission_timeout_rejects(arb_env):
    sim, arb, topo, router = arb_env
    big = _make_class(topo, router, "tA/c0", 1500.0)  # fills the path head
    assert arb.request("tA", [big], resume=lambda g: None)[0] == arb.GRANTED

    got = []
    small = _make_class(topo, router, "tB/c0", 200.0)
    assert arb.request("tB", [small], resume=got.append)[0] == arb.QUEUED
    sim.run(until=10.0)  # nothing releases; the 5 s timeout fires
    assert got == [None]
    assert arb.queue == []


def test_arbiter_rejects_what_can_never_fit(arb_env):
    sim, arb, topo, router = arb_env
    monster = _make_class(
        topo, router, "tA/c0", 100_000.0, chain=("firewall", "ids", "proxy")
    )
    status, grant = arb.request("tA", [monster], resume=lambda g: None)
    assert status == arb.REJECTED and grant is None


def test_arbiter_tcam_budget_enforced_at_commit(arb_env):
    sim, arb, topo, router = arb_env
    cls = _make_class(topo, router, "tA/c0", 100.0)
    status, grant = arb.request("tA", [cls], resume=lambda g: None)
    assert status == arb.GRANTED
    host = max(grant.cores, key=grant.cores.get)
    assert not arb.commit("tA", {host: 1}, tcam_entries=65)  # budget is 64
    arb.restore("tA")
    assert arb.free == arb.physical


def test_arbiter_need_is_independent_of_other_tenants(arb_env):
    """The reservation is a pure function of (classes, physical topology):
    what other tenants hold delays admission but never reshapes a grant."""
    sim, arb, topo, router = arb_env
    cls = _make_class(topo, router, "tB/c0", 150.0)
    baseline = arb._compute_need([cls])

    other = _make_class(topo, router, "tA/c0", 400.0)
    assert arb.request("tA", [other], resume=lambda g: None)[0] == arb.GRANTED
    assert arb._compute_need([cls]) == baseline


def test_repair_grant_tops_up_starved_host():
    path = ("s0", "s1")
    classes = [
        TrafficClass("big", "s0", "s1", path, PolicyChain(["ids"]), 100.0),
        TrafficClass("small", "s0", "s1", path, PolicyChain(["firewall"]), 100.0),
    ]
    cores = {"s0": 0, "s1": 16}
    # rounding the demand proxy left 2 cores at the only host
    grant = {"s1": 2}
    repair_grant(grant, classes, cores, DEFAULT_CATALOG)
    assert grant == {"s1": DEFAULT_CATALOG.get("ids").cores}
    # never past the host's capacity
    grant = {"s1": 2}
    repair_grant(grant, classes, {"s0": 0, "s1": 6}, DEFAULT_CATALOG)
    assert grant == {"s1": 6}


#: (cores per PoP, capacity headroom, classes as (src, dst, chain, Mbps))
#: → the reservation ``_compute_need`` returns for them, as literals.  Any
#: change to the sizing arithmetic or its iteration order moves one of these.
_MIXED = [
    ("ATLA-M5", "DNVR", ("firewall", "ids"), 700.0),
    ("LOSA", "NYCM", ("nat", "firewall", "ids"), 250.0),
    ("STTL", "HSTN", ("firewall", "proxy"), 1200.0),
    ("SNVA", "WASH", ("firewall",), 5.0),
]
_HEAVY = [
    ("LOSA", "NYCM", ("firewall", "ids", "proxy"), 900.0),
    ("LOSA", "NYCM", ("nat", "firewall"), 1800.0),
    ("CHIN", "HSTN", ("ids",), 40.0),
]
_PINNED_NEEDS = [
    (8, 1.0, [("ATLA", "WASH", ("firewall",), 150.0)], {"ATLA": 4, "WASH": 1}),
    (8, 1.0, [("ATLA-M5", "DNVR", ("ids",), 100.0)],
     {"ATLA": 8, "ATLA-M5": 8, "DNVR": 1, "HSTN": 1, "KSCY": 1}),
    (8, 1.0, _MIXED, None),
    (24, 1.0, _MIXED,
     {"ATLA": 8, "ATLA-M5": 20, "DNVR": 6, "HSTN": 7, "KSCY": 6, "LOSA": 14,
      "NYCM": 1, "SNVA": 4, "STTL": 16, "WASH": 2}),
    (24, 1.0, _HEAVY,
     {"ATLA": 8, "CHIN": 8, "HSTN": 12, "IPLS": 1, "LOSA": 24, "NYCM": 7,
      "WASH": 7}),
    (64, 0.8, _HEAVY,
     {"ATLA": 8, "CHIN": 8, "HSTN": 18, "IPLS": 1, "LOSA": 32, "NYCM": 7,
      "WASH": 7}),
]


@pytest.mark.parametrize("cores, headroom, spec, expected", _PINNED_NEEDS)
def test_arbiter_need_is_pinned(cores, headroom, spec, expected):
    topo = internet2(default_host_cores=cores)
    router = Router(topo)
    arb = CapacityArbiter(
        Simulator(seed=0),
        {s: h.cores for s, h in topo.hosts.items()},
        tcam_budget=64,
        catalog=DEFAULT_CATALOG,
        capacity_headroom=headroom,
    )
    classes = [
        TrafficClass(f"t/c{k}", src, dst, router.path(src, dst),
                     PolicyChain(chain, DEFAULT_CATALOG), rate)
        for k, (src, dst, chain, rate) in enumerate(spec)
    ]
    assert arb._compute_need(classes) == expected


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
    assert records[0].status == REJECTED
    assert orch.arbiter.rejected_total >= 1
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
    violation, every convergence verified, no drift, every intent
    terminal."""
    m = _build_and_run(tenants, 0).metrics_summary()
    assert m["cross_tenant_violation_seconds"] == 0
    assert m["verify_failed"] == 0
    assert m["drift"] == 0
    assert m["waiting"] == 0


def test_same_seed_histories_are_bit_identical():
    first = _build_and_run(50, 0).state_signature()
    assert _build_and_run(50, 0).state_signature() == first


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
