"""The columnar kernel against the formulations it replaced.

``_ColumnWalker`` groups a packet column with one radix sort by class (cut
classes regroup their own segment by interval), clears instances by a bound
on their groups' timestamp runs, and decides the rest with one shifted
comparison over the stable merge of those runs.  The per-class
``searchsorted`` + mask grouping, the sorted-positions-then-gather arrival
column and the ``old_live + within + 1 > budget`` admission count it replaced
live on here as oracles, next to ``VNFInstance.consume`` itself; every
instance the bound clears must pass the exact check; and two
back-to-back ``inject_columns`` calls are held to scalar ``inject`` on
outcomes, every counter and every sliding window.  The entry validation of
``inject_columns`` has its regressions at the end.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane.network import DataPlaneNetwork, _admit, _WalkPlan
from repro.dataplane.packet import FIN, Packet
from repro.dataplane.sharded import (
    ShardedDataPlane,
    _ColumnWalker,
    _merge_runs,
    _narrow_uint,
)
from repro.dataplane.switch import SwitchRuleSet
from repro.dataplane.tcam import Action, ActionKind, TcamEntry
from repro.dataplane.vswitch import VSwitchRule
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.vnf.instance import VNFInstance
from repro.vnf.types import NFType
from tests.rule_tables import classify_entry, write_rule_sets
from tests.test_dataplane_sharded import _network, _state

BUDGETS = [0.5, 1.0, 4.0, 4.5, 1e8]


# ----------------------------------------------------------------------
# (a) admission: shifted comparison == parent's count == consume()
# ----------------------------------------------------------------------
def _instance(window, budget, recent):
    nf = NFType("m", cores=1, capacity_mbps=1e9, clickos=True, capacity_pps=1.0)
    inst = VNFInstance("m@s", nf, "s", window=window)
    inst._budget = budget
    inst._recent[:] = recent
    return inst


def _count_refuses(recent, sub, window, budget):
    """The parent commit's ``_check_bulk`` body: two binary searches."""
    cut = sub - window
    old = np.asarray(recent, dtype=np.float64)
    old_live = len(old) - np.searchsorted(old, cut, side="right")
    within = np.arange(len(sub)) - np.searchsorted(sub, cut, side="right")
    return bool(np.any(old_live + within + 1 > budget))


def _consume_refuses(recent, sub, window, budget):
    inst = _instance(window, budget, recent)
    return not all(inst.consume(1500, now=t) for t in sub.tolist())


def _kernel_refuses(recent, sub, window, budget):
    inst = _instance(window, budget, recent)
    col = (7, (inst, inst._recent, inst.window), sub)
    culprits = _ColumnWalker(None)._check_bulk([col])
    assert inst._recent == list(recent), "the check must not touch the window"
    return culprits == [7]


@st.composite
def arrivals(draw):
    # Times sit on a grid of window / 4, so ties, bursts and an entry at
    # exactly t - window all occur; with window 0.125 the grid arithmetic is
    # exact in binary, with 0.1 it is not.
    window = draw(st.sampled_from([0.125, 0.1]))
    unit = window / 4
    start = draw(st.integers(0, 40))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 1, 2, 5, 9]), min_size=1, max_size=40))
    sub = (start + np.cumsum(gaps)) * unit
    # Pre-slice window: sorted, not after the first arrival, possibly stale
    # (a lazy trim leaves entries older than the window in place) and
    # possibly longer than the budget (a brownout shrank it).
    back = draw(st.lists(st.integers(0, 12), max_size=8))
    recent = sorted(float(sub[0]) - b * unit for b in back)
    if draw(st.booleans()):
        recent = sorted(recent + [float(sub[0] - window)])
    return window, recent, sub, draw(st.sampled_from(BUDGETS))


_ADMIT_EVENT = st.one_of(
    st.tuples(st.just("packet"), st.sampled_from([0.0, 0.0, 0.001, 0.02, 0.05, 0.1, 0.3])),
    st.tuples(st.just("stop"), st.integers(0, 3)),
    st.tuples(st.just("start"), st.integers(0, 3)),
    st.tuples(st.just("degrade"), st.integers(0, 3), st.sampled_from([0.1, 0.25, 0.5, 1.0])),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), max_size=3), min_size=1, max_size=3),
    st.lists(st.tuples(st.sampled_from([10.0, 40.0, 75.0]),
                       st.sampled_from([0.05, 0.1, 0.125])), min_size=4, max_size=4),
    st.lists(_ADMIT_EVENT, max_size=80),
)
def test_admit_agrees_with_consume(visits, specs, events):
    # The plan step every plan walker shares against VNFInstance.consume
    # itself, at each instance in walk order up to the first refusal, under
    # stops, restarts and brownouts that no epoch move announces.
    def make():
        return [
            VNFInstance(f"i{k}", NFType("m", cores=1, capacity_mbps=1e9, clickos=True,
                                        capacity_pps=cap), "s", window=window)
            for k, (cap, window) in enumerate(specs)
        ]

    ours, theirs = make(), make()
    plan = _WalkPlan()
    plan.vsteps = [
        (v, k, (ours[i], ours[i]._recent, ours[i].window))
        for v, step in enumerate(visits)
        for k, i in enumerate(step)
    ]
    plan.drops = [0] * len(visits)
    drops = [0] * len(visits)
    t, sent = 0.0, 0
    for event in events:
        if event[0] == "packet":
            t += event[1]
            sent += 1
            want = next(
                ((v, k) for v, step in enumerate(visits) for k, i in enumerate(step)
                 if not theirs[i].consume(1500, t)),
                None,
            )
            assert _admit(plan, t, 1500) == want
            if want is not None:
                drops[want[0]] += 1
        else:
            for side in (ours, theirs):
                inst = side[event[1]]
                if event[0] == "stop":
                    inst.shutdown()
                elif event[0] == "start":
                    inst.running = True
                else:
                    inst.degrade(event[2])
        assert [(i.stats, i._recent) for i in ours] == [(i.stats, i._recent) for i in theirs]
    assert (plan.n, plan.drops) == (sent, drops)


@settings(max_examples=400, deadline=None)
@given(arrivals())
def test_shifted_check_equals_parent_count_and_consume(case):
    window, recent, sub, budget = case
    expected = _consume_refuses(recent, sub, window, budget)
    assert _count_refuses(recent, sub, window, budget) == expected
    assert _kernel_refuses(recent, sub, window, budget) == expected


def test_entry_exactly_at_the_window_edge_is_trimmed_not_live():
    # budget 4, arrivals every window / 4: each arrival's 4th predecessor
    # sits exactly at t - window, which consume() trims (<=) before counting.
    sub = np.arange(1, 41) * 0.03125
    assert not _consume_refuses([], sub, 0.125, 4.0)
    assert not _kernel_refuses([], sub, 0.125, 4.0)
    # One more packet per window and the 5th is refused.
    assert _consume_refuses([], sub, 0.125 + 1e-9, 4.0)
    assert _kernel_refuses([], sub, 0.125 + 1e-9, 4.0)


# ----------------------------------------------------------------------
# (b) grouping: radix group-by on the key == per-class searchsorted + mask
# ----------------------------------------------------------------------
class _StubNetwork:
    """What ``_group`` / ``run`` read of a network, with plans that
    carry their own ``(class, interval)`` as the bulk outcome."""

    def __init__(self, cuts_by_class, visits=None):
        self._cp = {
            cid: SimpleNamespace(class_id=cid, cuts=list(cuts))
            for cid, cuts in cuts_by_class.items()
        }
        #: ``(class, interval)`` → the instances its plan visits, one hop each
        #: (an instance listed twice is visited twice).
        self._visits = visits or {}
        self._plans = {}
        self._dirty_plans = []

    def class_intervals(self, class_id):
        return self._cp[class_id]

    def interval_plan(self, cp, g):
        key = (cp.class_id, g)
        if key not in self._plans:
            vsteps = [
                (v, 0, (i, i._recent, i.window))
                for v, i in enumerate(self._visits.get(key, ()))
            ]
            self._plans[key] = SimpleNamespace(vsteps=vsteps, n=0, final_outcome=key)
        return self._plans[key]


def _group_by_masks(net, classes, cls_idx, hashes):
    """The parent's grouping: one ``searchsorted`` and one mask per class."""
    expected = [None] * len(cls_idx)
    for ci, cid in enumerate(classes):
        where = np.flatnonzero(cls_idx == ci)
        ivals = np.searchsorted(net.class_intervals(cid).cuts, hashes[where], side="right")
        for p, g in zip(where.tolist(), ivals.tolist()):
            expected[p] = (cid, g)
    return expected


def _check_grouping(cuts_by_class, cls_idx, hashes, key_dtype):
    net = _StubNetwork(cuts_by_class)
    classes = list(cuts_by_class)
    walker = _ColumnWalker(net)
    # The sorts run on the narrowest dtype that holds the classes (the class
    # sort) or one class's intervals (its regrouping); ``key_dtype`` is that
    # dtype for this case's total group count.
    assert _narrow_uint(sum(len(c) + 1 for c in cuts_by_class.values())) == key_dtype
    ts = np.arange(len(cls_idx), dtype=np.float64)
    got = walker.run(classes, cls_idx, hashes, ts, 1500, True)
    assert got == _group_by_masks(net, classes, cls_idx, hashes)
    assert walker.bulk_packets == len(cls_idx)
    sizes = {}
    for outcome in got:
        sizes[outcome] = sizes.get(outcome, 0) + 1
    assert {k: p.n for k, p in net._plans.items()} == sizes


def _hashes(rng, n, cuts):
    """Uniform hashes salted with every cut, 0.0 and the last float below 1."""
    special = np.asarray(sorted(cuts) + [0.0, np.nextafter(1.0, 0.0)])
    hashes = rng.random(n)
    salted = rng.random(n) < 0.4
    hashes[salted] = rng.choice(special, size=int(salted.sum()))
    return hashes


@pytest.mark.parametrize(
    "n_classes, cut_classes, key_dtype",
    [
        (1, 0, np.uint8),
        (1, 1, np.uint8),
        (255, 0, np.uint8),
        (256, 0, np.uint8),  # keys 0..255: the last column that fits a byte
        (256, 1, np.uint16),  # one class cut in two: 257 keys
        (300, 0, np.uint16),
        (300, 40, np.uint16),
    ],
)
def test_grouping_matches_per_class_search(n_classes, cut_classes, key_dtype):
    rng = np.random.default_rng(n_classes * 1000 + cut_classes)
    pool = [0.25, 0.5, 0.69, 0.9]
    cuts_by_class = {f"c{k}": [] for k in range(n_classes)}
    for k in rng.choice(n_classes, size=cut_classes, replace=False).tolist():
        cuts_by_class[f"c{k}"] = sorted(
            rng.choice(pool, size=int(rng.integers(1, 4)), replace=False).tolist()
        )
    if cut_classes == 1:  # exactly one extra key, so 256 classes make 257
        cuts_by_class[next(c for c, cuts in cuts_by_class.items() if cuts)] = [0.5]
    n = 4000
    cls_idx = rng.integers(0, n_classes, size=n)
    _check_grouping(cuts_by_class, cls_idx, _hashes(rng, n, pool), key_dtype)


def test_grouping_skips_absent_classes_and_unknown_names():
    # Only classes with packets are looked up: a name the network does not
    # know is harmless as long as no packet carries it.
    rng = np.random.default_rng(5)
    net = _StubNetwork({"a": [0.5], "b": []})
    cls_idx = rng.choice([0, 2], size=500)
    hashes = _hashes(rng, 500, [0.5])
    order, plans, bounds = _ColumnWalker(net)._group(["a", "ghost", "b"], cls_idx, hashes)
    assert [plan.final_outcome for plan in plans] == [("a", 0), ("a", 1), ("b", 0)]
    key = np.where(cls_idx == 2, 2, (hashes >= 0.5).astype(int))
    ends = np.cumsum(np.bincount(key)).tolist()
    assert bounds == list(zip([0] + ends, ends))
    assert order.tolist() == np.argsort(key, kind="stable").tolist()


def test_wide_key_branch_at_small_n():
    # More than 65,536 keys: the column falls through to the wide sort.
    rng = np.random.default_rng(9)
    fine = np.linspace(0.0, 1.0, 70_002)[1:-1].tolist()
    cuts_by_class = {"wide": fine, "plain": [], "split": [0.5]}
    n = 3000
    cls_idx = rng.integers(0, 3, size=n)
    hashes = _hashes(rng, n, fine[::7000] + [0.5])
    _check_grouping(cuts_by_class, cls_idx, hashes, np.int64)


# ----------------------------------------------------------------------
# (b') arrival columns: merged timestamp runs == sorted positions, gathered
# ----------------------------------------------------------------------
@st.composite
def visited_columns(draw):
    """A small column, a network of cut and uncut classes over it, and for
    every group the instances its plan visits (some of them twice)."""
    pool = [0.25, 0.5, 0.9]
    cuts_by_class = {
        f"c{k}": sorted(draw(st.sets(st.sampled_from(pool), max_size=2)))
        for k in range(draw(st.integers(1, 4)))
    }
    n = draw(st.integers(1, 60))
    cls_idx = np.asarray(
        draw(st.lists(st.integers(0, len(cuts_by_class) - 1), min_size=n, max_size=n))
    )
    hashes = np.asarray(
        draw(st.lists(st.sampled_from(pool + [0.0, 0.1, 0.7]), min_size=n, max_size=n))
    )
    # Ties (gap 0), a start below, at or above zero, and zeros of either sign:
    # the int64 view orders none of the first, and -0.0 before +0.0.
    start = draw(st.sampled_from([-40, -3, 0, 0, 5]))
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 1, 3]), min_size=n, max_size=n))
    ts = (start + np.cumsum(gaps)) * 0.03125
    zeros = np.flatnonzero(ts == 0.0)
    signs = draw(st.lists(st.booleans(), min_size=len(zeros), max_size=len(zeros)))
    ts[zeros[np.asarray(signs, dtype=bool)]] = -0.0
    instances = [_instance(0.125, 1e8, []) for _ in range(draw(st.integers(1, 4)))]
    visits = {
        (cid, g): [
            inst
            for inst in instances
            for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2])))
        ]
        for cid, cuts in cuts_by_class.items()
        for g in range(len(cuts) + 1)
    }
    return cuts_by_class, visits, instances, cls_idx, hashes, ts


@settings(max_examples=300, deadline=None)
@given(visited_columns(), st.booleans())
def test_arrival_column_is_the_sorted_positions_gathered(case, merged):
    # What an instance's arrival column is for — its counters and the window
    # it leaves — equals the sorted-positions formulation, whether the
    # run-peak certificate clears the instance (no merged column at all) or
    # every instance is forced through the merge and the exact check.
    cuts_by_class, visits, instances, cls_idx, hashes, ts = case
    net = _StubNetwork(cuts_by_class, visits)
    classes = list(cuts_by_class)
    walker = _ColumnWalker(net)
    if merged:
        walker._certify = lambda entries, runs: entries
    walker.run(classes, cls_idx, hashes, ts, 1500, False)

    # The parent's formulation: every visit's positions, sorted, then one
    # gather per instance.
    group_of = _group_by_masks(net, classes, cls_idx, hashes)
    for inst in instances:
        positions = [
            p for p, key in enumerate(group_of) for i in visits[key] if i is inst
        ]
        expected = ts[np.sort(np.asarray(positions, dtype=np.int64))]
        assert inst.stats.packets_in == len(expected)
        if len(expected) == 0:
            assert inst._recent == []
            continue
        live = expected[expected > expected[-1] - inst.window]
        assert inst._recent == live.tolist()


# ----------------------------------------------------------------------
# (b'') the run-peak certificate: it clears only what the exact check passes
# ----------------------------------------------------------------------
@st.composite
def certified_cases(draw):
    """Runs on a dyadic grid of window / 4 (window edges hit exactly, ties
    within a run), visits per packet, and a ``recent`` with stale entries."""
    window = 0.125
    unit = window / 4
    start = draw(st.integers(0, 40))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        gaps = draw(st.lists(st.sampled_from([0, 1, 1, 2, 4, 9]), min_size=1, max_size=30))
        runs.append((start + draw(st.integers(0, 8)) + np.cumsum(gaps)) * unit)
    parts = [(g, draw(st.sampled_from([1, 1, 2, 3]))) for g in range(len(runs))]
    first = min(float(r[0]) for r in runs)
    back = draw(st.lists(st.integers(0, 12), max_size=8))
    recent = sorted(first - b * unit for b in back)
    budget = draw(st.sampled_from([1.0, 4.0, 6.5, 9.0, 12.0, 20.0, 40.0]))
    return window, runs, parts, recent, budget


@settings(max_examples=500, deadline=None)
@given(certified_cases())
def test_certified_instance_passes_the_exact_check(case):
    window, runs, parts, recent, budget = case
    inst = _instance(window, budget, recent)
    entry = (7, (inst, inst._recent, inst.window), parts)
    walker = _ColumnWalker(None)
    if walker._certify([entry], runs):
        return  # not cleared: the exact check decides, as before
    col = _merge_runs(runs, parts, True)
    assert walker._check_bulk([(7, entry[1], col)]) == []
    assert not _consume_refuses(recent, col, window, budget)


def test_certificate_fails_near_budget_but_the_column_is_bulk_applied():
    # Two classes burst four packets each, one second apart, into one
    # instance of budget 4: each run's peak is 4, so the bound reads 8 > 4,
    # yet no window ever holds more than 4 arrivals, so the exact check on
    # the merged column passes and nothing goes down the sequential path.
    inst = _instance(0.125, 4.0, [])
    net = _StubNetwork({"a": [], "b": []}, {("a", 0): [inst], ("b", 0): [inst]})
    burst = np.arange(4) * 0.03125
    ts = np.concatenate([burst, 1.0 + burst])
    cls_idx = np.asarray([0] * 4 + [1] * 4)
    walker = _ColumnWalker(net)
    merged = []
    check = walker._check_bulk
    walker._check_bulk = lambda cols: merged.extend(cols) or check(cols)
    walker.run(["a", "b"], cls_idx, np.zeros(8), ts, 1500, False)
    assert [iid for iid, _, _ in merged] == [id(inst)]
    assert walker.bulk_packets == 8 and walker.seq_packets == 0
    assert inst.stats.packets_in == 8 and inst.stats.packets_dropped == 0
    assert inst._recent == (1.0 + burst).tolist()


# ----------------------------------------------------------------------
# (c) two columns back to back, no reset == scalar inject
# ----------------------------------------------------------------------
def _shared_network():
    """s1 — s2(host) — s3; ``tight`` is c0's alone, ``shared`` is visited by
    c0 (after ``tight``) and by c1, c2 is split over two instances of its own.

    Windows are 0.125 s and arrivals below sit on a 1/64 s grid, so window
    edges are hit exactly.
    """
    topo = Topology(
        "line",
        ["s1", "s2", "s3"],
        [Link("s1", "s2"), Link("s2", "s3")],
        hosts={"s2": AppleHostSpec(cores=64)},
    )
    net = DataPlaneNetwork(topo)
    vsw = net.vswitch_at("s2")

    def instance(name, capacity_pps):
        nf = NFType(name, cores=1, capacity_mbps=1e9, clickos=True, capacity_pps=capacity_pps)
        inst = VNFInstance(f"{name}@s2", nf, "s2", window=0.125)
        vsw.register_instance(inst)
        return inst

    tight = instance("tight", 32.0)  # budget 4.0
    shared = instance("shared", 100.0)  # budget 12.5
    lo_half = instance("lo", 60.0)  # budget 7.5
    hi_half = instance("hi", 60.0)
    chains = [
        ("c0", (0.0, 1.0), 0, (tight, shared)),
        ("c1", (0.0, 1.0), 0, (shared,)),
        ("c2", (0.0, 0.5), 0, (lo_half,)),
        ("c2", (0.5, 1.0), 1, (hi_half,)),
    ]
    for cid in ("c0", "c1", "c2"):
        net.register_class_path(cid, ("s1", "s2", "s3"))
    classifications = []
    for cid, rng, tag, chain in chains:
        vsw.install_rule(
            cid, tag, VSwitchRule(tuple(i.instance_id for i in chain), exit_host_tag=FIN)
        )
        classifications.append((cid, rng, tag, "s2"))
    write_rule_sets(net, [
        SwitchRuleSet("s1", classifications=classifications),
        SwitchRuleSet("s2", host_match=True),
        SwitchRuleSet("s3"),
    ])
    return net, [tight, shared, lo_half, hi_half]


def _column(start, seconds, per_second):
    """``(cls_idx, hashes, ts)`` of CBR streams on a 1/64 s grid from ``start``.

    ``per_second[k]`` must divide 64; hashes cycle through both halves.
    """
    rows = []
    for k, rate in enumerate(per_second):
        step = 64 // rate
        for j in range(int(seconds * rate)):
            rows.append((start + j * step / 64.0, k, (j * 0.137) % 1.0))
    rows.sort(key=lambda r: (r[0], r[1]))
    ts = np.asarray([r[0] for r in rows])
    cls_idx = np.asarray([r[1] for r in rows], dtype=np.int64)
    hashes = np.asarray([r[2] for r in rows])
    return cls_idx, hashes, ts


CLASSES = ["c0", "c1", "c2"]
#: c0 at 32 pps fills ``tight`` to exactly its budget (the 4th predecessor
#: of every arrival sits on the window edge); c0 + c1 put 96 pps = 12 per
#: window on ``shared`` (budget 12.5); c2's 64 pps split unevenly over its
#: halves, at most 7 per window on one (budget 7.5).
CALM = (32, 64, 64)
#: c0 at 64 pps overloads ``tight``: its group turns dirty while c1 keeps
#: feeding ``shared`` from the clean side (a mixed window).
HOT = (64, 32, 64)


def _scalar_outcomes(net, column, classes=CLASSES):
    """``column`` through scalar ``inject``, packet by packet."""
    cls_idx, hashes, ts = column
    return [
        (r.delivered, r.dropped_at)
        for r in (
            net.inject(Packet(class_id=classes[ci], flow_hash=h, src="s1", dst="s3"), now=t)
            for ci, h, t in zip(cls_idx.tolist(), hashes.tolist(), ts.tolist())
        )
    ]


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("second", ["calm", "tie", "hot"])
def test_back_to_back_columns_equal_scalar_inject(shards, second):
    # ``shards`` / ``processes`` are accepted and ignored (the frozen pipeline
    # benchmark still passes them): any value is the one in-process walk.
    first = _column(1.0, 2.0, CALM)
    # The second column starts one grid step after the first ends: every
    # window still holds the first column's tail.
    then = _column(float(first[2][-1]) + 1 / 64, 2.0, HOT if second == "hot" else CALM)
    if second == "tie":
        # One c0 packet sent twice: a single arrival over ``tight``'s budget.
        k = int(np.flatnonzero(then[0] == 0)[40])
        then = tuple(np.insert(col, k, col[k]) for col in then)

    ref, ref_instances = _shared_network()
    expected = _scalar_outcomes(ref, first) + _scalar_outcomes(ref, then)
    expected_state = _state(ref, ref_instances)
    dropped = expected_state["stats"][1]
    assert {"calm": dropped == 0, "tie": dropped == 1, "hot": dropped > 50}[second]

    net, instances = _shared_network()
    sh = ShardedDataPlane(net, shards=shards, processes=False)
    assert sh.nshards == 1
    got = sh.inject_columns(CLASSES, *first, collect=True)
    walker = sh._walker
    # Exactly-full windows must still take the bulk path.
    assert (walker.bulk_packets, walker.seq_packets) == (len(first[2]), 0)
    got += sh.inject_columns(CLASSES, *then, collect=True)
    if second == "calm":
        assert (walker.bulk_packets, walker.seq_packets) == (len(got), 0)
    else:
        assert walker.seq_packets > 0 and walker.bulk_packets > len(first[2])
    assert got == expected
    assert _state(net, instances) == expected_state


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("start", ["negative", "minus-zero"])
def test_columns_from_below_time_zero_equal_scalar_inject(start, collect):
    # Timestamp runs merge through their int64 view only from zero up: below
    # it the view orders backwards, and -0.0 (equal to +0.0) sorts first.
    if start == "negative":
        first = _column(-3.0, 2.0, CALM)  # [-3, -1); the second crosses zero
    else:
        first = _column(0.0, 2.0, CALM)
        assert first[2][:3].tolist() == [0.0, 0.0, 0.0]
        first[2][[0, 2]] = -0.0  # c0 and c2 at -0.0, c1 between them at +0.0
    then = _column(float(first[2][-1]) + 1 / 64, 2.0, HOT)

    ref, ref_instances = _shared_network()
    expected = _scalar_outcomes(ref, first) + _scalar_outcomes(ref, then)
    expected_state = _state(ref, ref_instances)
    assert expected_state["stats"][1] > 50

    net, instances = _shared_network()
    sh = ShardedDataPlane(net)
    got = sh.inject_columns(CLASSES, *first, collect=collect)
    assert (sh._walker.bulk_packets, sh._walker.seq_packets) == (len(first[2]), 0)
    then_got = sh.inject_columns(CLASSES, *then, collect=collect)
    if collect:
        assert got + then_got == expected
    else:
        assert got is None and then_got is None
    assert _state(net, instances) == expected_state


def _nat_network():
    """``_shared_network`` plus c3, whose chain is a NAT (``modifies_headers``)
    at s2; s3 then drops the upper half of c3's hashes with a hash-ranged
    entry that matches what the NAT emits, packets tagged FIN."""
    net, instances = _shared_network()
    nf = NFType("nat", cores=1, capacity_mbps=1e9, clickos=True, capacity_pps=100.0,
                modifies_headers=True)
    nat = VNFInstance("nat@s2", nf, "s2", window=0.125)
    vsw = net.vswitch_at("s2")
    vsw.register_instance(nat)
    vsw.install_rule("c3", 0, VSwitchRule(("nat@s2",), exit_host_tag=FIN))
    net.register_class_path("c3", ("s1", "s2", "s3"))
    net.switches["s1"].table.install(classify_entry("s1", "c3", (0.0, 1.0), 0, "s2"))
    net.switches["s3"].table.install(TcamEntry(
        priority=999, action=Action(ActionKind.DROP), host_tag_is=FIN,
        class_id="c3", hash_range=(0.5, 1.0), name="s3/drop/c3",
    ))
    return net, instances + [nat]


@pytest.mark.parametrize("collect", [True, False])
def test_hash_ranged_match_after_a_nat_is_applied_in_bulk(collect):
    # Nothing rewrites flow_hash in flight, so c3's plans are ordinary ones:
    # a calm column goes through in bulk, and a hot one walks per packet only
    # the groups that visit an overloaded instance (c0's, maybe c1's).
    classes = CLASSES + ["c3"]
    first = _column(1.0, 2.0, CALM + (32,))
    then = _column(float(first[2][-1]) + 1 / 64, 2.0, HOT + (32,))

    ref, ref_instances = _nat_network()
    expected = _scalar_outcomes(ref, first, classes) + _scalar_outcomes(ref, then, classes)
    expected_state = _state(ref, ref_instances)
    assert (False, "s3") in expected and expected_state["stats"][1] > 50

    net, instances = _nat_network()
    sh = ShardedDataPlane(net)
    got = sh.inject_columns(classes, *first, collect=collect)
    walker = sh._walker
    assert (walker.bulk_packets, walker.seq_packets) == (len(first[2]), 0)
    then_got = sh.inject_columns(classes, *then, collect=collect)
    assert 0 < walker.seq_packets <= int(np.sum(then[0] <= 1))
    if collect:
        assert got + then_got == expected
    assert _state(net, instances) == expected_state


def test_moved_rule_epoch_renews_the_walker_between_columns():
    # An empty column, then a moved rule epoch between two hot ones: the
    # next column walks the new epoch's plans, and outcomes and state still
    # equal scalar inject's.
    first = _column(1.0, 2.0, HOT)
    then = _column(float(first[2][-1]) + 1 / 64, 2.0, HOT)

    ref, ref_instances = _shared_network()
    expected = _scalar_outcomes(ref, first)
    ref.invalidate_plans()
    expected += _scalar_outcomes(ref, then)

    net, instances = _shared_network()
    sh = ShardedDataPlane(net)
    got = sh.inject_columns(CLASSES, *first, collect=True)
    got += sh.inject_columns(CLASSES, [], [], [], collect=True)
    net.invalidate_plans()
    got += sh.inject_columns(CLASSES, *then, collect=True)
    assert got == expected
    assert _state(net, instances) == _state(ref, ref_instances)


# ----------------------------------------------------------------------
# Entry validation of inject_columns
# ----------------------------------------------------------------------
def _valid_column():
    net, instances = _network([(0.5, 1e9), (None, 1e9)])
    cls_idx = np.asarray([0, 1] * 25, dtype=np.int64)
    hashes = (np.arange(50) * 0.137) % 1.0
    ts = 1.0 + np.arange(50) / 100.0
    return net, instances, cls_idx, hashes, ts


def test_column_length_mismatch_is_rejected():
    net, _, cls_idx, hashes, ts = _valid_column()
    with pytest.raises(ValueError, match="lengths differ"):
        ShardedDataPlane(net).inject_columns(["c0", "c1"], cls_idx, hashes[:-1], ts)
    assert net.stats_snapshot().as_tuple() == (0, 0, 0)


@pytest.mark.parametrize("bad", [-1, 2])
def test_class_index_outside_the_class_list_is_rejected(bad):
    # -1 used to be walked silently as classes[-1]; under the narrow key
    # cast it would wrap instead.
    net, _, cls_idx, hashes, ts = _valid_column()
    cls_idx[17] = bad
    with pytest.raises(ValueError, match="cls_idx"):
        ShardedDataPlane(net).inject_columns(["c0", "c1"], cls_idx, hashes, ts)
    assert net.stats_snapshot().as_tuple() == (0, 0, 0)


def test_decreasing_timestamps_are_rejected():
    # Two swapped timestamps used to leave the instance windows unlike the
    # ones scalar inject builds from the same order; ties stay legal.
    net, _, cls_idx, hashes, ts = _valid_column()
    tied = ts.copy()
    tied[20] = tied[19]
    ShardedDataPlane(net).inject_columns(["c0", "c1"], cls_idx, hashes, tied)
    assert net.stats_snapshot().as_tuple() == (50, 0, 0)
    ts[[20, 30]] = ts[[30, 20]]
    with pytest.raises(ValueError, match="non-decreasing"):
        ShardedDataPlane(net).inject_columns(["c0", "c1"], cls_idx, hashes, ts)
    assert net.stats_snapshot().as_tuple() == (50, 0, 0)


@pytest.mark.parametrize("bad", [1.0, -0.1, 1.5, float("nan")])
def test_flow_hash_outside_the_unit_interval_is_rejected(bad):
    # Packet() refuses these; the column used to walk them (1.0 into the
    # last interval, -0.1 into the first, NaN wherever the search put it).
    with pytest.raises(ValueError, match=r"flow_hash must be in \[0, 1\)"):
        Packet(class_id="c0", flow_hash=bad, src="s1", dst="s3")
    net, instances, cls_idx, hashes, ts = _valid_column()
    hashes[17] = bad
    with pytest.raises(ValueError, match=r"flow_hash must be in \[0, 1\)"):
        ShardedDataPlane(net).inject_columns(["c0", "c1"], cls_idx, hashes, ts)
    assert net.stats_snapshot().as_tuple() == (0, 0, 0)
    assert [i.stats.packets_in for i in instances] == [0] * len(instances)


@pytest.mark.parametrize(
    "where, bad",
    [(100, float("nan")), (0, float("nan")), (-1, float("nan")),
     (-1, float("inf")), (0, float("-inf"))],
)
def test_non_finite_timestamps_are_rejected(where, bad):
    # Every comparison with NaN is false, so a NaN used to pass a test for
    # "somewhere ts decreases", and the column then delivered a packet scalar
    # inject dropped; an infinite tail left empty windows where scalar left
    # (inf,).  Scalar inject now refuses the same timestamp, before counting.
    cls_idx, hashes, ts = _column(1.0, 2.0, CALM)
    if where == 100:
        ref, _ = _shared_network()
        poisoned = ts.copy()
        poisoned[where] = bad
        with pytest.raises(ValueError, match="now must be finite"):
            _scalar_outcomes(ref, (cls_idx, hashes, poisoned))
        assert ref.stats_snapshot().as_tuple() == (where, 0, 0)
    ts[where] = bad
    net, instances = _shared_network()
    with pytest.raises(ValueError, match="ts must be finite"):
        ShardedDataPlane(net).inject_columns(CLASSES, cls_idx, hashes, ts)
    assert net.stats_snapshot().as_tuple() == (0, 0, 0)
    assert [i.stats.packets_in for i in instances] == [0] * len(instances)


@pytest.mark.parametrize(
    "column, change, names",
    [
        ("all", "lists", None),  # plain lists walk like arrays
        ("cls_idx", np.uint64, None),  # any integer dtype does
        ("cls_idx", np.float64, "cls_idx"),
        ("cls_idx", np.bool_, "cls_idx"),
        ("cls_idx", "2d", "cls_idx"),
        ("hashes", "2d", "hashes"),
        ("ts", "2d", "ts"),
    ],
)
def test_columns_are_coerced_once_or_rejected_by_name(column, change, names):
    # Used to die with AttributeError (lists), numpy's TypeError from inside
    # bincount (float / uint64 cls_idx) or "object too deep" (2-D).
    net, _, cls_idx, hashes, ts = _valid_column()
    cols = {"cls_idx": cls_idx, "hashes": hashes, "ts": ts}
    if change == "lists":
        cols = {k: v.tolist() for k, v in cols.items()}
    elif change == "2d":
        cols[column] = cols[column].reshape(2, 25)
    else:
        cols[column] = cols[column].astype(change)
    sh = ShardedDataPlane(net)
    if names is None:
        out = sh.inject_columns(["c0", "c1"], **cols, collect=True)
        assert out == [(True, None)] * 50
        assert net.stats_snapshot().as_tuple() == (50, 0, 0)
    else:
        with pytest.raises(ValueError, match=names):
            sh.inject_columns(["c0", "c1"], **cols)
        assert net.stats_snapshot().as_tuple() == (0, 0, 0)
