"""Placement's post-solve passes against the ones they replaced, bit for bit.

``tests/placement_reference.py`` keeps distribution extraction and dust
consolidation as first written, in :class:`ReferenceEngine`.  Here the
program's engine and the reference engine place the same inputs and must
return the same plan: the same ``distribution`` items in the same order
with the same float bits, the same ``quantities`` in the same order, the
same objective and LP bound — or raise the same error:

* the 24-snapshot GEANT series of seeds 0 and 7, each snapshot placed from
  a cold engine, then the series on one engine re-solving its template;
* the Internet2 and AS-3679 series means;
* every placement one 16-tenant churn history asks for;
* random instances: consolidation alone on dust-heavy slots and on moves
  into a slot that already holds the class's portion (revisited switches,
  zero fractions and interleaved classes included), and whole ``place()``
  calls on small random topologies.
"""

import math
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import OptimizationEngine, PlacementError
from repro.experiments.harness import standard_setup
from repro.sim.rng import derive
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG
from tests.placement_reference import ReferenceEngine

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import churn_counts  # noqa: E402


def _bits(distribution, quantities):
    return (
        [(key, value.hex()) for key, value in distribution.items()],
        list(quantities.items()),
    )


def _outcome(engine, classes, cores, memory, incumbent=None):
    try:
        plan = engine.place(classes, cores, memory, incumbent)
    except PlacementError as exc:
        return "PlacementError", str(exc)
    return (
        _bits(plan.distribution, plan.quantities),
        plan.objective.hex(),
        plan.lp_bound.hex(),
        plan.warm_start,
    )


def _same_plans(calls, cold=True):
    """Place every ``(classes, cores, memory[, incumbent])`` with both
    engines."""
    program, reference = OptimizationEngine(), ReferenceEngine()
    for call in calls:
        if cold:
            program.clear_templates()
            reference.clear_templates()
        assert _outcome(program, *call) == _outcome(reference, *call)


@pytest.mark.parametrize("seed", [0, 7])
def test_geant_series_cold_then_warm(seed):
    _topo, controller, series = standard_setup("geant", snapshots=24, seed=seed)
    cores = controller.available_cores()
    memory = controller.available_memory_gb()
    calls = [
        (controller.build_classes(m), cores, memory) for m in series.snapshots
    ]
    _same_plans(calls, cold=True)
    _same_plans(calls, cold=False)  # the first builds, the others re-solve


@pytest.mark.parametrize("topology", ["internet2", "as3679"])
def test_series_mean(topology):
    _topo, controller, series = standard_setup(topology, snapshots=4, seed=0)
    classes = controller.build_classes(series.mean())
    _same_plans(
        [(classes, controller.available_cores(), controller.available_memory_gb())]
    )


def test_every_placement_of_a_churn_history():
    calls = []
    place = OptimizationEngine.place

    def record(engine, classes, cores, memory=None, incumbent=None):
        calls.append(
            (
                list(classes),
                dict(cores),
                None if memory is None else dict(memory),
                dict(incumbent or {}),
            )
        )
        return place(engine, classes, cores, memory, incumbent)

    with mock.patch.object(OptimizationEngine, "place", record):
        churn_counts.run_history(
            churn_counts.Counts(), 16, derive(0, "pipeline.history.0")
        )
    assert len(calls) == 55
    _same_plans(calls)


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

SWITCHES = ("s0", "s1", "s2", "s3", "s4")
NFS = ("firewall", "proxy", "nat", "ids")


def _cap(nf):
    return DEFAULT_CATALOG.get(nf).capacity_mbps


@st.composite
def dusty_plans(draw):
    """Classes, a distribution and counts the consolidation pass can chew on.

    Steps are spread over one to three path positions, so portions sit in
    slots that other portions of the same class may move into; most slots
    get one instance whatever their load (dust), some an extra instance
    (spare to move into), some none (nowhere to go).
    """
    classes, distribution = [], {}
    for k in range(draw(st.integers(1, 6))):
        path = draw(st.lists(st.sampled_from(SWITCHES), min_size=1, max_size=5))
        chain = draw(st.lists(st.sampled_from(NFS), min_size=1, max_size=3, unique=True))
        rate = draw(st.sampled_from([0.5, 10.0, 120.0, 400.0, 900.0, 2500.0]))
        cls = TrafficClass(
            f"c{k}", path[0], path[-1], tuple(path), PolicyChain(chain), rate
        )
        classes.append(cls)
        for j in range(len(chain)):
            spots = draw(
                st.lists(
                    st.integers(0, len(path) - 1), min_size=1, max_size=3, unique=True
                )
            )
            weights = [draw(st.sampled_from([0.0, 1e-7, 0.05, 0.3, 1.0])) for _ in spots]
            total = sum(weights) or 1.0
            for i, w in zip(sorted(spots), weights):
                distribution[(cls.class_id, i, j)] = w / total if sum(weights) else 1.0 / len(spots)
    if draw(st.booleans()):
        # Interleave the classes' entries (extraction emits class by class).
        items = list(distribution.items())
        order = draw(st.permutations(range(len(items))))
        distribution = dict(items[k] for k in order)
    by_id = {c.class_id: c for c in classes}
    loads = {}
    for (cid, i, j), frac in distribution.items():
        cls = by_id[cid]
        slot = (cls.path[i], cls.chain[j])
        loads[slot] = loads.get(slot, 0.0) + frac * cls.rate_mbps
    quantities = {}
    for slot in sorted(loads):
        kind = draw(st.sampled_from(["ceil", "one", "one", "extra", "none"]))
        if kind == "none":
            continue
        need = max(1, math.ceil(loads[slot] / _cap(slot[1]) - 1e-9))
        quantities[slot] = {"ceil": need, "one": 1, "extra": need + 1}[kind]
    # Instances no portion loads: empty dust, and spare for moves.
    for sw in draw(st.lists(st.sampled_from(SWITCHES), max_size=3, unique=True)):
        quantities.setdefault((sw, draw(st.sampled_from(NFS))), 1)
    return classes, distribution, quantities


def _consolidated(engine, classes, distribution, quantities):
    distribution, quantities = dict(distribution), dict(quantities)
    try:
        engine._consolidate_dust(classes, distribution, quantities)
    except (KeyError, IndexError) as exc:
        return type(exc).__name__, str(exc)
    return _bits(distribution, quantities)


@given(dusty_plans())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_consolidation_on_random_plans(plan):
    classes, distribution, quantities = plan
    assert _consolidated(
        OptimizationEngine(), classes, distribution, quantities
    ) == _consolidated(ReferenceEngine(), classes, distribution, quantities)


def test_random_plans_reach_every_branch():
    """The strategy makes plans where a slot is emptied into one holding
    the moved portion already, and where an attempt fails and is retried."""
    merged = retried = 0

    @given(dusty_plans())
    @settings(max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    def probe(plan):
        nonlocal merged, retried
        classes, distribution, quantities = plan
        engine = ReferenceEngine()
        attempts = []
        inner = ReferenceEngine._find_target

        def find(self, cls, i, j, slot, *rest):
            attempts.append(slot)
            return inner(self, cls, i, j, slot, *rest)

        after = dict(distribution)
        with mock.patch.object(ReferenceEngine, "_find_target", find):
            engine._consolidate_dust(classes, after, dict(quantities))
        merged += any(
            key in distribution and after.get(key, 0.0) > distribution[key]
            for key in after
        )
        retried += len(attempts) > len(set(attempts))

    probe()
    assert merged and retried


@st.composite
def small_instances(draw):
    hosts = draw(st.lists(st.sampled_from(SWITCHES), min_size=1, unique=True))
    cores = {sw: draw(st.sampled_from([4, 8, 16, 64])) for sw in hosts}
    memory = None
    if draw(st.booleans()):
        memory = {sw: float(draw(st.sampled_from([4, 16, 64]))) for sw in hosts}
    classes = []
    for k in range(draw(st.integers(1, 6))):
        path = draw(st.lists(st.sampled_from(SWITCHES), min_size=1, max_size=5, unique=True))
        if not set(path) & set(hosts):
            path.insert(draw(st.integers(0, len(path))), hosts[0])
        chain = draw(st.lists(st.sampled_from(NFS), max_size=3, unique=True))
        rate = draw(st.sampled_from([0.0, 5.0, 80.0, 450.0, 1300.0]))
        classes.append(
            TrafficClass(f"c{k}", path[0], path[-1], tuple(path), PolicyChain(chain), rate)
        )
    return classes, cores, memory


@given(small_instances())
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_place_on_random_instances(instance):
    classes, cores, memory = instance
    _same_plans([(classes, cores, memory)])


def test_failed_slot_is_retried_after_a_slot_it_staged_into_fills():
    """A failed evacuation depends on where its earlier portions were
    staged: here X's portion first takes spare at b that Y's then lacks.
    G's evacuation later fills b so far that X goes to c instead, which
    leaves Y room at b — a retry the program must not skip."""
    fw = PolicyChain(["firewall"])

    def cls(cid, path, rate):
        return TrafficClass(cid, path[0], path[-1], tuple(path), fw, rate)

    classes = [
        cls("X", "abc", 300.0), cls("Y", "ab", 200.0),    # slot a: 500, dust
        cls("W", "b", 1400.0), cls("V", "c", 100.0),      # two instances each
        cls("Z1", "eb", 150.0), cls("Z2", "ef", 370.0),   # slot e: 520, dust
        cls("U", "f", 100.0),
    ]
    distribution = {(c.class_id, 0, 0): 1.0 for c in classes}
    quantities = {
        ("a", "firewall"): 1, ("b", "firewall"): 2, ("c", "firewall"): 2,
        ("e", "firewall"): 1, ("f", "firewall"): 2,
    }
    got = _consolidated(OptimizationEngine(), classes, distribution, quantities)
    assert got == _consolidated(ReferenceEngine(), classes, distribution, quantities)
    portions, counts = got
    assert [slot for slot, _ in counts] == [
        ("b", "firewall"), ("c", "firewall"), ("f", "firewall")
    ]
    assert ("X", 2, 0) in dict(portions) and ("Y", 1, 0) in dict(portions)
