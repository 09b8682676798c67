"""Property tests: tenant isolation under arbitrary intent interleavings.

Four properties the tenancy subsystem is built around:

* **Interleaving independence** — with ample capacity, each tenant's
  final deployment (blueprint, southbound state signature, placement
  quantities) is a function of *its own* intent sequence only.  Hypothesis
  draws cross-tenant interleavings (per-tenant FIFO order preserved — the
  bus guarantees that much) and every interleaving must end in the same
  per-tenant signatures as the canonical order.  This holds because each
  tenant's plan is a pure function of (classes, physical topology,
  catalog): contention can delay the arbiter's charge but never reshape
  the plan.

* **Same-seed bit-identity** — one seed is one platform history; two
  full runs produce identical platform state signatures.

* **A plan that fits the substrate is admitted** — any class set the
  engine places on the physical pool is granted at once by an empty
  arbiter.

* **The ledgers balance** — after any sequence of delta requests (what an
  epoch creates beyond the cores it keeps of the tenant's holding),
  settlements of the whole new plan, releases and admission timeouts,
  ``steady + inflight + free == physical`` on every switch and
  ``charges()`` is not None.
"""

from functools import lru_cache

from hypothesis import event, given, settings, strategies as st

from repro.core.engine import OptimizationEngine, PlacementError
from repro.core.reconfigure import realize
from repro.core.rulegen import RuleGenerator
from repro.sim.kernel import Simulator
from repro.tenancy import (
    CapacityArbiter,
    CreateChain,
    DeleteChain,
    ScaleChain,
    TenantOrchestrator,
    UpdateRates,
)
from repro.tenancy.orchestrator import DEFAULT_TCAM_BUDGET
from repro.topology.datasets import internet2
from repro.topology.routing import Router
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import STANDARD_CHAINS
from repro.vnf.types import DEFAULT_CATALOG

HORIZON = 40.0

#: Three independent tenants, two ops each (per-tenant order is fixed;
#: only the cross-tenant interleaving varies).
TENANT_OPS = {
    "tA": [
        CreateChain("tA", chain_id="c0", src="STTL", dst="ATLA",
                    chain=tuple(STANDARD_CHAINS[0]), rate_mbps=220.0),
        UpdateRates("tA", rates=(("c0", 540.0),)),
    ],
    "tB": [
        CreateChain("tB", chain_id="c0", src="CHIN", dst="HSTN",
                    chain=tuple(STANDARD_CHAINS[1 % len(STANDARD_CHAINS)]),
                    rate_mbps=150.0),
        ScaleChain("tB", chain_id="c0", factor=2.0),
    ],
    "tC": [
        CreateChain("tC", chain_id="c0", src="LOSA", dst="NYCM",
                    chain=tuple(STANDARD_CHAINS[0]), rate_mbps=300.0),
        DeleteChain("tC", chain_id="c0"),
    ],
}


def _run_interleaving(order):
    """One platform history submitting ops in the given tenant order."""
    topo = internet2(default_host_cores=64)  # ample: no admission queueing
    sim = Simulator(seed=0)
    orch = TenantOrchestrator(topo, sim, seed=0)
    orch.start()
    cursors = {t: 0 for t in TENANT_OPS}
    for slot, tenant in enumerate(order):
        intent = TENANT_OPS[tenant][cursors[tenant]]
        cursors[tenant] += 1
        orch.submit(intent, delay=0.5 * slot)
    sim.run(until=HORIZON)
    orch.stop()
    assert orch.cross_tenant_violation_seconds == 0
    assert orch.verify_failed == 0
    return {t: orch.workers[t].signature() for t in TENANT_OPS}


@lru_cache(maxsize=1)
def _canonical():
    return _run_interleaving(("tA", "tA", "tB", "tB", "tC", "tC"))


#: All interleavings of [tA, tA, tB, tB, tC, tC]: permutations of the
#: multiset; per-tenant order is restored by the cursor in
#: ``_run_interleaving`` (a tenant's first drawn slot is its first op).
interleavings = st.permutations(["tA", "tA", "tB", "tB", "tC", "tC"])


@given(order=interleavings)
@settings(max_examples=12, deadline=None)
def test_final_deployments_independent_of_interleaving(order):
    assert _run_interleaving(tuple(order)) == _canonical()


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=6, deadline=None)
def test_same_seed_platform_history_bit_identical(seed):
    def run():
        topo = internet2(default_host_cores=64)
        sim = Simulator(seed=seed)
        orch = TenantOrchestrator(topo, sim, seed=seed)
        orch.start()
        for slot, (tenant, ops) in enumerate(sorted(TENANT_OPS.items())):
            for i, intent in enumerate(ops):
                orch.submit(intent, delay=0.3 * slot + 1.7 * i)
        sim.run(until=HORIZON)
        orch.stop()
        return orch.state_signature()

    assert run() == run()


# ----------------------------------------------------------------------
# The arbiter admits every plan that fits, and its ledgers balance
# ----------------------------------------------------------------------
_TOPO = internet2(default_host_cores=16)  # tight: some class sets do not fit
_ROUTER = Router(_TOPO)
_POPS = sorted(_TOPO.hosts)
_ENGINE = OptimizationEngine()
_RULEGEN = RuleGenerator(DEFAULT_CATALOG)

class_specs = st.lists(
    st.tuples(
        st.sampled_from(_POPS),
        st.sampled_from(_POPS),
        st.integers(0, len(STANDARD_CHAINS) - 1),
        st.sampled_from([5.0, 80.0, 300.0, 900.0, 2500.0]),
    ).filter(lambda spec: spec[0] != spec[1]),
    min_size=1,
    max_size=4,
)


@given(specs=class_specs)
@settings(max_examples=40, deadline=None)
def test_every_plan_that_fits_the_substrate_is_granted(specs):
    classes = [
        TrafficClass(
            f"t/c{k}", src, dst, _ROUTER.path(src, dst), STANDARD_CHAINS[chain], rate
        )
        for k, (src, dst, chain, rate) in enumerate(specs)
    ]
    arbiter = CapacityArbiter(
        Simulator(seed=0),
        {s: h.cores for s, h in _TOPO.hosts.items()},
        DEFAULT_TCAM_BUDGET,
    )
    try:
        plan = _ENGINE.place(classes, arbiter.physical)
    except PlacementError:
        event("refused by the engine")  # the arbiter is never asked
        return
    event("placed")
    _subclasses, rules = realize(_RULEGEN, plan)
    status = arbiter.request(
        "t", plan.cores_by_switch(), rules.classification_rule_count(), resume=None
    )
    assert status == arbiter.GRANTED
    assert arbiter.charges() is not None


_PHYSICAL = {"s0": 8, "s1": 6, "s2": 4}
_TENANTS = ("tA", "tB", "tC")

arbiter_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("request"),
            st.sampled_from(_TENANTS),
            st.dictionaries(st.sampled_from(sorted(_PHYSICAL)), st.integers(0, 9)),
            st.integers(0, 70),
            st.integers(0, 2),
            # Cores of the holding the epoch keeps, per switch (capped at
            # what the tenant holds there).
            st.dictionaries(st.sampled_from(sorted(_PHYSICAL)), st.integers(0, 9)),
        ),
        st.tuples(st.sampled_from(["settle", "release"]), st.sampled_from(_TENANTS)),
        st.tuples(st.just("advance"), st.floats(0.0, 6.0)),
    ),
    max_size=40,
)


@given(ops=arbiter_ops)
@settings(max_examples=60, deadline=None)
def test_ledgers_balance_after_any_sequence(ops):
    """Ops follow the worker's protocol: a tenant requests only when it has
    no op charged or parked, asking for what its new plan creates beyond
    the cores it keeps of its holding; it settles only a charged op, with
    that whole plan, and tears down only when nothing of it is parked."""
    sim = Simulator(seed=0)
    arbiter = CapacityArbiter(sim, _PHYSICAL, tcam_budget=64, admission_timeout=5.0)
    state = {t: "idle" for t in _TENANTS}
    plans = {}

    def resume(tenant, granted):
        state[tenant] = "charged" if granted else "idle"

    for op in ops:
        kind = op[0]
        if kind == "request" and state[op[1]] == "idle":
            _, tenant, need, tcam, priority, keep = op
            held = arbiter.steady.get(tenant, {})
            plan = {
                sw: need.get(sw, 0) + min(keep.get(sw, 0), held.get(sw, 0))
                for sw in _PHYSICAL
            }
            plans[tenant] = plan
            status = arbiter.request(
                tenant, need, tcam, resume=lambda ok, t=tenant: resume(t, ok),
                priority=priority,
            )
            state[tenant] = {
                arbiter.GRANTED: "charged", arbiter.QUEUED: "parked",
                arbiter.REJECTED: "idle",
            }[status]
        elif kind == "settle" and state[op[1]] == "charged":
            arbiter.settle(op[1], plans[op[1]])
            state[op[1]] = "idle"
        elif kind == "release" and state[op[1]] != "parked":
            arbiter.release(op[1])
            state[op[1]] = "idle"
        elif kind == "advance":
            sim.run(until=sim.now + op[1])
        assert arbiter.charges() is not None
        for sw, cap in _PHYSICAL.items():
            charged = sum(
                m.get(sw, 0)
                for ledger in (arbiter.steady, arbiter.inflight)
                for m in ledger.values()
            )
            assert charged + arbiter.free[sw] == cap
        assert 0 <= arbiter.tcam_free <= arbiter.tcam_budget
