"""Make-before-break is a row of the placement model.

A tenant's installed instances keep their cores until the new epoch
converges, so a re-plan must fit each host beside them: held + created ≤
physical, where held is the cores of the incumbent (the installed plan's
per-slot counts, q_old) and created is Σ cores · max(0, q − q_old).
``OptimizationEngine.place(..., incumbent=q_old)`` writes that check into
the LP (one u ≥ q column per slot, lower-bounded by q_old, in each host's
Eq. 6 core row); the worker makes one solve per op and no check after it.
The check is restated here, on tenant-sized Internet2 models with random
incumbents, and a call without an incumbent must build the day-0 model.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.constraints import assemble_placement_lp
from repro.core.engine import OptimizationEngine, PlacementError
from repro.vnf.types import DEFAULT_CATALOG
from tests.lp_reference import solve_milp
from tests.test_placement_lp import tenant_instances

NF_NAMES = sorted(t.name for t in DEFAULT_CATALOG)


def _cores(nf):
    return DEFAULT_CATALOG.get(nf).cores


@st.composite
def incumbents(draw, cores):
    """Per-slot counts on the hosts (and on slots no class can use), never
    holding more than a host has."""
    incumbent = {}
    for switch in sorted(s for s, c in cores.items() if c > 0):
        room = cores[switch]
        for nf in draw(st.lists(st.sampled_from(NF_NAMES), max_size=3, unique=True)):
            count = min(draw(st.integers(1, 3)), room // _cores(nf))
            if count:
                incumbent[(switch, nf)] = count
                room -= count * _cores(nf)
    return incumbent


@st.composite
def re_plans(draw):
    classes, cores, memory = draw(tenant_instances())
    return classes, cores, memory, draw(incumbents(cores)), draw(incumbents(cores))


def _held_plus_created(plan, incumbent):
    """The deleted post-solve check's left side, per switch: the cores the
    incumbent holds plus the cores of the instances the plan creates."""
    total = {}
    for (switch, nf), count in incumbent.items():
        total[switch] = total.get(switch, 0) + count * _cores(nf)
    for (switch, nf), count in plan.quantities.items():
        created = max(0, count - incumbent.get((switch, nf), 0))
        total[switch] = total.get(switch, 0) + created * _cores(nf)
    return total


@given(re_plans())
@settings(max_examples=150, deadline=None)
def test_every_re_plan_is_made_before_it_breaks(instance):
    """Two re-plans through one engine (the second re-solves the cached
    template with another incumbent): each plan ``place()`` returns fits
    every host beside what the tenant holds, and so does the model's own
    integer optimum (no rounding or repair between it and the rows)."""
    classes, cores, memory, *incumbents_ = instance
    engine = OptimizationEngine()
    for incumbent in incumbents_:
        try:
            plans = [engine.place(classes, cores, memory, incumbent)]
        except PlacementError:
            plans = []
        template = assemble_placement_lp(
            engine._clamped(classes), cores, memory, engine._cap,
            DEFAULT_CATALOG, incumbent=incumbent,
        )
        exact = solve_milp(template.lp)
        if exact is not None:
            plans.append(SimpleNamespace(quantities=template.quantities(exact[1])))
        for plan in plans:
            for switch, used in _held_plus_created(plan, incumbent).items():
                assert used <= cores[switch], (switch, used, cores[switch])


@given(tenant_instances())
@settings(max_examples=60, deadline=None)
def test_no_incumbent_is_the_day0_model(instance):
    """Without an incumbent (None or empty) the engine builds today's LP —
    no u column, no link row — and returns the same plan either way."""
    classes, cores, memory = instance
    engine = OptimizationEngine()
    plans = []
    for incumbent in (None, {}):
        engine.clear_templates()
        try:
            plan = engine.place(classes, cores, memory, incumbent)
        except PlacementError as exc:
            plans.append(str(exc))
            continue
        plans.append(
            (list(plan.distribution.items()), list(plan.quantities.items()),
             plan.objective, plan.lp_bound)
        )
    assert plans[0] == plans[1]
    clamped = engine._clamped(classes)
    day0 = assemble_placement_lp(clamped, cores, memory, engine._cap, DEFAULT_CATALOG)
    empty = assemble_placement_lp(
        clamped, cores, memory, engine._cap, DEFAULT_CATALOG, incumbent={}
    )
    for name in ("c", "indptr", "indices", "data", "lhs", "rhs", "lb", "ub"):
        assert np.array_equal(getattr(day0.lp, name), getattr(empty.lp, name))
    assert day0._held is None and empty._held is None
