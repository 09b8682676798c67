"""Sub-class assignment against the construction it replaced, bit for bit.

``tests/subclass_reference.py`` keeps the original construction (one
``plan.portion`` lookup per path position and chain step, the cut-set
overlay for every class).  Here both realise the same plans and must agree
exactly — ``by_class`` and ``instance_load`` compared with ``==`` on every
float, in the same order — or fail with the same error:

* random plans: multi-instance slots, chain steps split across path
  positions, float-dust fractions and huge rates that drive the slot
  allocator into its skip-an-empty-instance and dump-the-residue rules,
  zero-rate classes, missing instances and out-of-order distributions;
* the 24 seed-0 GEANT snapshots the benchmark deploys, and Internet2.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import EngineConfig, OptimizationEngine
from repro.core.placement import InstanceRef, PlacementPlan
from repro.core.subclasses import SubclassAssignmentError, assign_subclasses
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG
from tests.deploy_series import geant_cold_plans, internet2_plan
from tests.subclass_reference import RULES, reference_assign

SWITCHES = ("s0", "s1", "s2", "s3", "s4", "s5")
NFS = ("firewall", "proxy", "nat", "ids")


def _outcome(assign, plan):
    try:
        result = assign(plan)
    except (SubclassAssignmentError, KeyError) as exc:
        return type(exc), str(exc)
    return (
        list(result.by_class.items()),
        list(result.instance_load.items()),
    )


def _assert_same(plan):
    assert _outcome(assign_subclasses, plan) == _outcome(reference_assign, plan)


# ----------------------------------------------------------------------
# Random plans
# ----------------------------------------------------------------------
#: Fractions a step's cumulative split is cut at: plain values, float dust
#: around the 1e-9 threshold, and values one ulp off a round number.
_CUTS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([1e-10, 1e-9, 2e-9, 1e-8, 1 / 3, 2 / 3, 0.5]),
    st.sampled_from([0.25, 0.5, 0.75]).map(lambda x: math.nextafter(x, 1.0)),
)
_RATES = st.one_of(
    st.floats(1.0, 2000.0),
    st.sampled_from([0.0, 1e-3, 3e9, 1.7e10, 123456789.123]),
)


@st.composite
def _plans(draw):
    classes = []
    distribution = {}
    used = set()
    for k in range(draw(st.integers(1, 6))):
        start = draw(st.integers(0, len(SWITCHES) - 1))
        stop = draw(st.integers(start + 1, len(SWITCHES)))
        path = SWITCHES[start:stop]
        chain = draw(st.permutations(NFS))[: draw(st.integers(1, 3))]
        cls = TrafficClass(
            f"c{k}", path[0], path[-1], path, PolicyChain(list(chain)), draw(_RATES)
        )
        classes.append(cls)
        # Each step's cumulative share by path position, never ahead of the
        # previous step's (Eq. 3), ending at 1.
        previous = [1.0] * len(path)
        for j, nf in enumerate(chain):
            inner = len(path) - 1
            cuts = sorted(draw(st.lists(_CUTS, min_size=inner, max_size=inner)))
            cdf = [min(p, c) for p, c in zip(previous, cuts + [1.0])]
            if draw(st.integers(0, 19)) == 0:
                cdf = cuts + [1.0]  # may run ahead: an ordering fault
            below = 0.0
            for i, level in enumerate(cdf):
                if level - below > 0.0:
                    distribution[cls.class_id, i, j] = level - below
                    used.add((path[i], nf))
                below = level
            previous = cdf
    quantities = {slot: draw(st.integers(1, 3)) for slot in sorted(used)}
    if quantities and draw(st.integers(0, 19)) == 0:
        del quantities[draw(st.sampled_from(sorted(quantities)))]
    extra = draw(
        st.lists(st.tuples(st.sampled_from(SWITCHES), st.sampled_from(NFS)), max_size=2)
    )
    for slot in extra:
        quantities.setdefault(slot, 1)
    order = draw(st.permutations(sorted(distribution)))
    return PlacementPlan(
        quantities=quantities,
        distribution={key: distribution[key] for key in order},
        classes=draw(st.permutations(classes)),
        catalog=DEFAULT_CATALOG,
        objective=float(sum(quantities.values())),
    )


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plan=_plans())
def test_random_plans_match_the_reference(plan):
    _assert_same(plan)


def _two_position_plan(rates, fractions, quantities):
    """Classes c0, c1, ... on the path s0 -> s1, firewall at both switches:
    class k puts ``fractions[k]`` of its traffic at s0, the rest at s1.
    The distribution lists the classes in reverse, so each slot's load is
    summed in the opposite order to the one its instances are filled in."""
    path = ("s0", "s1")
    chain = PolicyChain(["firewall"])
    classes = [
        TrafficClass(f"c{k}", "s0", "s1", path, chain, rate)
        for k, rate in enumerate(rates)
    ]
    distribution = {}
    for k in reversed(range(len(rates))):
        distribution[f"c{k}", 0, 0] = fractions[k]
        distribution[f"c{k}", 1, 0] = 1.0 - fractions[k]
    return PlacementPlan(
        quantities=quantities,
        distribution=distribution,
        classes=classes,
        catalog=DEFAULT_CATALOG,
        objective=float(sum(quantities.values())),
    )


@pytest.mark.parametrize(
    "rule, plan",
    [
        # (x + y) - x falls 2.4e-7 short of y at this magnitude: the second
        # class's mass overruns its slot's target by more than the 1e-9
        # threshold, and the overrun lands on the last instance.
        (
            "residue",
            _two_position_plan(
                [1.7e10, 3e9],
                [0.2550690257394217, 0.49543508709194095],
                {("s0", "firewall"): 1, ("s1", "firewall"): 1},
            ),
        ),
        (
            "split across instances",
            _two_position_plan(
                [900.0, 700.0, 500.0],
                [0.5, 0.25, 1 / 3],
                {("s0", "firewall"): 3, ("s1", "firewall"): 2},
            ),
        ),
        (
            "skip a full instance",
            _two_position_plan(
                [400.0, 400.0, 400.0],
                [0.5, 0.5, 0.5],
                {("s0", "firewall"): 3, ("s1", "firewall"): 3},
            ),
        ),
        (
            "zero mass",
            _two_position_plan(
                [0.0, 50.0],
                [0.5, 0.5],
                {("s0", "firewall"): 2, ("s1", "firewall"): 1},
            ),
        ),
        (
            "sliver",
            _two_position_plan(
                [1e-3, 50.0],
                [1e-7, 0.5],
                {("s0", "firewall"): 2, ("s1", "firewall"): 1},
            ),
        ),
    ],
)
def test_each_allocator_rule_is_reached_and_matches(rule, plan):
    """The random plans draw inputs of these shapes; each one here is
    known to fire one of the slot allocator's special rules."""
    before = RULES[rule]
    _assert_same(plan)
    assert RULES[rule] > before


def test_a_sliver_next_to_a_larger_portion_keeps_its_width():
    """A portion of 0 < mass ≤ 1e-9 Mbps (here 1e-7 of a 1e-3 Mbps class)
    sharing its chain step with a larger one used to get no piece: the
    allocator cannot cut it, and the tail snap handed its width to the
    step's last piece.  It now keeps its width on its slot's current
    instance, so the sub-classes' widths equal the plan's distribution."""
    plan = _two_position_plan(
        [1e-3], [1e-7], {("s0", "firewall"): 1, ("s1", "firewall"): 1}
    )
    subs = assign_subclasses(plan).subclasses("c0")
    assert [(s.hash_range, s.instance_seq) for s in subs] == [
        ((0.0, 1e-7), (InstanceRef("s0", "firewall", 0),)),
        ((1e-7, 1.0), (InstanceRef("s1", "firewall", 0),)),
    ]
    _assert_same(plan)


# ----------------------------------------------------------------------
# The plans the benchmark deploys
# ----------------------------------------------------------------------
def test_geant_cold_series_matches_the_reference():
    _topo, _controller, plans = geant_cold_plans()
    assert len(plans) == 24
    for plan in plans:
        _assert_same(plan)


def test_internet2_matches_the_reference():
    _topo, _controller, plan = internet2_plan()
    _assert_same(plan)


# ----------------------------------------------------------------------
# A zero-rate class
# ----------------------------------------------------------------------
def test_zero_rate_class_gets_its_whole_hash_domain():
    """A class the engine places at rate 0 (``min_class_rate_mbps=0``)
    used to fail with "chain step 0 has no portions": the slot allocator
    handed a zero mass no piece.  It now spans [0, 1) on the slot's first
    instance and adds nothing to any instance's load."""
    engine = OptimizationEngine(config=EngineConfig(min_class_rate_mbps=0.0))
    classes = [
        TrafficClass("idle", "a", "b", ("a", "b"), PolicyChain(["firewall"]), 0.0),
        TrafficClass("busy", "a", "b", ("a", "b"), PolicyChain(["firewall"]), 50.0),
    ]
    plan = engine.place(classes, {"a": 8, "b": 8})
    assert plan.quantities == {("b", "firewall"): 1}
    assert plan.portion("idle", 1, 0) == 1.0
    sub_plan = assign_subclasses(plan)
    (idle,) = sub_plan.subclasses("idle")
    assert idle.hash_range == (0.0, 1.0)
    assert idle.instance_seq == (InstanceRef("b", "firewall", 0),)
    assert sub_plan.instance_load == {InstanceRef("b", "firewall", 0): 50.0}
    _assert_same(plan)
