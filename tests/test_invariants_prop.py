"""System-level property tests: dynamic-handler invariants.

These drive the fluid Dynamic Handler with random classes and rate
sequences and assert the invariants the rest of the system depends on:
it conserves cores, keeps every class's sub-class weights a partition of
unity no matter how rates fluctuate, and failover never adds loss.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.dynamic import DynamicHandler, FailoverConfig
from repro.core.engine import OptimizationEngine
from repro.core.subclasses import assign_subclasses
from repro.traffic.classes import TrafficClass
from repro.traffic.replay import ClassRateTimeline
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG

SWITCHES = ("s0", "s1", "s2", "s3")
NFS = [t.name for t in DEFAULT_CATALOG]
CORES = {s: 64 for s in SWITCHES}


@st.composite
def random_classes(draw, prefix="c", max_classes=5):
    n = draw(st.integers(1, max_classes))
    out = []
    for k in range(n):
        start = draw(st.integers(0, 2))
        end = draw(st.integers(start + 1, 3))
        path = SWITCHES[start : end + 1]
        chain_len = draw(st.integers(1, 2))
        chain = draw(st.permutations(NFS).map(lambda p: list(p[:chain_len])))
        rate = draw(st.floats(5.0, 1200.0))
        out.append(
            TrafficClass(
                f"{prefix}{k}", path[0], path[-1], tuple(path),
                PolicyChain(chain), rate,
            )
        )
    return out


# ---------------------------------------------------------------------------
# Dynamic handler
# ---------------------------------------------------------------------------
def _handler_for(classes, enabled=True):
    plan = OptimizationEngine().place(classes, CORES)
    sub_plan = assign_subclasses(plan)
    used = plan.cores_by_switch()
    free = {s: CORES[s] - used.get(s, 0) for s in SWITCHES}
    return DynamicHandler(
        plan, sub_plan, DEFAULT_CATALOG, free,
        config=FailoverConfig(enabled=enabled),
    ), plan


@given(
    random_classes(max_classes=3),
    st.lists(st.floats(0.1, 4.0), min_size=2, max_size=6),
)
@settings(max_examples=25, deadline=None)
def test_handler_conserves_cores_and_weights(classes, multipliers):
    from repro.core.engine import PlacementError

    try:
        handler, plan = _handler_for(classes)
    except PlacementError:
        return
    free0 = sum(handler.free_cores.values())
    base_rates = {c.class_id: c.rate_mbps for c in plan.classes}
    times = [60.0 * k for k in range(len(multipliers))]
    rates = np.array(
        [[base_rates[c.class_id] * m for c in plan.classes] for m in multipliers]
    )
    timeline = ClassRateTimeline(list(plan.classes), times, rates)
    result = handler.replay(timeline)

    # Core conservation: free + held-by-extras is constant.
    assert sum(handler.free_cores.values()) + handler._extra_core_count() == free0
    assert all(v >= 0 for v in handler.free_cores.values())
    # Weight partition: every class's sub-class weights sum to 1.
    for cid, subs in handler._state.items():
        total = sum(st_.weight for st_ in subs)
        assert abs(total - 1.0) < 1e-6, f"{cid}: weights sum to {total}"
    # Loss is a ratio.
    assert all(0.0 <= l <= 1.0 for l in result.loss)


@given(random_classes(max_classes=2))
@settings(max_examples=20, deadline=None)
def test_failover_never_hurts(classes):
    from repro.core.engine import PlacementError

    try:
        handler_on, plan = _handler_for(classes, enabled=True)
        handler_off, _ = _handler_for(classes, enabled=False)
    except PlacementError:
        return
    base_rates = {c.class_id: c.rate_mbps for c in plan.classes}
    times = [60.0 * k for k in range(4)]
    rates = np.array(
        [[base_rates[c.class_id] * m for c in plan.classes]
         for m in (1.0, 2.5, 2.5, 0.8)]
    )
    timeline = ClassRateTimeline(list(plan.classes), times, rates)
    loss_on = handler_on.replay(timeline).mean_loss
    loss_off = handler_off.replay(timeline).mean_loss
    assert loss_on <= loss_off + 1e-9
