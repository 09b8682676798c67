"""Property tests for the elastic loop (hypothesis).

Two invariants the paper's operators care about:

1. **No flapping.** If every scale action re-plans capacity so that the
   post-action utilization sits at the hysteresis target (which is inside
   the dead band by construction), then a scale-out can never be followed
   by a scale-in while the offered load is unchanged — and vice versa.
2. **Strict cheapest-first shedding.** The set of shed classes is always
   a prefix of ``shed_order``: if a class was shed, every cheaper class
   (lower SLO weight, then lower offered rate, then class id) was shed
   too, and at most one class — the next one in order — is degraded.
   The bisection that picks the verdict adopts what a linear walk over
   the same monotone relaxation would, in O(log n) relaxation probes.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.elastic.admission import Candidates, admit, shed_order
from repro.elastic.hysteresis import (
    HOLD,
    SCALE_IN,
    SCALE_OUT,
    HysteresisConfig,
    HysteresisState,
    decide,
)
from repro.elastic.slo import SLO_CLASSES


@st.composite
def configs(draw):
    low = draw(st.floats(min_value=0.05, max_value=0.5))
    target = draw(st.floats(min_value=low + 0.05, max_value=0.8))
    high = draw(st.floats(min_value=target + 0.05, max_value=0.99))
    return HysteresisConfig(
        high_watermark=high,
        low_watermark=low,
        target_utilization=target,
        up_dwell=draw(st.integers(min_value=1, max_value=4)),
        down_dwell=draw(st.integers(min_value=1, max_value=6)),
    )


@settings(max_examples=200, deadline=None)
@given(
    config=configs(),
    loads=st.lists(
        st.floats(min_value=1.0, max_value=10_000.0), min_size=1, max_size=40
    ),
)
def test_no_flap_under_target_replanning(config, loads):
    """Model the closed loop: each action re-sizes capacity so that the
    current load lands exactly at the target utilization.  With the
    target strictly inside the dead band, the very next tick on the SAME
    load must HOLD — an out can never be chased by an in (or repeat)."""
    capacity = loads[0] / config.target_utilization
    state = HysteresisState()
    last_action = None
    for load in loads:
        action, state = decide(config, state, load / capacity)
        if action != HOLD:
            # Flap check: an action immediately after another action can
            # only happen if the load moved; we verify the stronger form
            # below by re-ticking on the unchanged load.
            capacity = load / config.target_utilization
            after, _ = decide(config, state, load / capacity)
            assert after == HOLD, (
                f"{action} at load {load} was immediately followed by "
                f"{after} with no load change"
            )
            last_action = action
    assert last_action in (None, SCALE_OUT, SCALE_IN)


def linear_admit(candidates, relaxed, fits):
    """Reference for :func:`admit`: the smallest relaxation-feasible state
    found by a linear scan instead of a bisection."""
    if fits(0):
        return 0
    k = next(
        (k for k in range(1, len(candidates)) if relaxed(k)), len(candidates)
    )
    while k < len(candidates):
        if fits(k):
            return k
        k = candidates.shed_next(k)
    return None


def _assert_cheapest_first(candidates, offered, slo, k):
    """State ``k``'s shed set is a prefix of the canonical victim order,
    with at most one degraded class: the next victim."""
    order = shed_order(sorted(offered), offered, slo)
    shed, rates = candidates[k]
    degraded = [cid for cid in order if cid in rates and rates[cid] < offered[cid]]
    assert list(shed) == order[: len(shed)]
    assert len(degraded) <= 1
    if degraded:
        assert order.index(degraded[0]) == len(shed)
    assert rates  # shedding every class is never a verdict


_RATES = st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=1, max_size=8)
_SLOS = st.lists(st.sampled_from(sorted(SLO_CLASSES)), min_size=8, max_size=8)


def _candidates(rates, slo_names):
    offered = {f"c{i}": r for i, r in enumerate(rates)}
    slo = {cid: SLO_CLASSES[slo_names[i]] for i, cid in enumerate(offered)}
    order = shed_order(sorted(offered), offered, slo)
    victims = [(cid, slo[cid].degrade_floor) for cid in order]
    return offered, slo, Candidates(offered, victims)


@settings(max_examples=200, deadline=None)
@given(rates=_RATES, slo_names=_SLOS, budget_fraction=st.floats(0.0, 1.2))
def test_shedding_is_strictly_cheapest_first(rates, slo_names, budget_fraction):
    offered, slo, candidates = _candidates(rates, slo_names)
    budget = budget_fraction * sum(offered.values())

    def feasible(k):
        return sum(candidates[k][1].values()) <= budget

    k = admit(candidates, feasible, feasible)
    if k is None:
        # Nothing but shedding every class fits.
        assert not any(map(feasible, range(len(candidates))))
        return
    _assert_cheapest_first(candidates, offered, slo, k)
    # The adopted verdict really is feasible, and the first one that is.
    assert feasible(k)
    assert not any(map(feasible, range(k)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rates=_RATES, slo_names=_SLOS)
def test_admit_bisects_the_relaxation_like_a_linear_walk(data, rates, slo_names):
    """A monotone relaxation (infeasible below a threshold state) and a
    ``fits`` that accepts any subset of the relaxation-feasible states:
    the bisection adopts what a linear walk does, probing the relaxation
    at most ⌈log2 n⌉ + 1 times, cheapest-first."""
    offered, slo, candidates = _candidates(rates, slo_names)
    n = len(candidates)
    threshold = data.draw(st.integers(0, n), label="threshold")
    placeable = data.draw(
        st.sets(st.integers(threshold, max(threshold, n - 1))), label="placeable"
    )
    probes = []

    def relaxed(k):
        probes.append(k)
        return k >= threshold

    def fits(k):
        assert k == 0 or k >= threshold  # confirms are relaxation-feasible
        return k in placeable

    k = admit(candidates, relaxed, fits)
    assert k == linear_admit(candidates, lambda k: k >= threshold, fits)
    assert len(probes) <= math.ceil(math.log2(n)) + 1 if n > 1 else not probes
    if k is not None:
        _assert_cheapest_first(candidates, offered, slo, k)
