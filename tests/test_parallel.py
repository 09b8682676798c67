"""The shared fan-out module: job resolution, spec units, and the tuner.

``repro.parallel`` is the one code path every fan-out goes through
(``--jobs``, the replay bench), so its contract is pinned
here: validation errors agree everywhere, spec work units behave exactly
like calling the target, and the auto tuner never fans out when a pool
cannot pay for itself.
"""

import multiprocessing

import pytest

from repro.parallel import (
    FnSpec,
    in_worker,
    parallel_map,
    resolve_jobs,
)


# ----------------------------------------------------------------------
# resolve_jobs
# ----------------------------------------------------------------------
def test_resolve_jobs_accepts_auto_and_ints():
    assert resolve_jobs("auto") == "auto"
    assert resolve_jobs(" AUTO ") == "auto"
    assert resolve_jobs(1) == 1
    assert resolve_jobs("4") == 4


@pytest.mark.parametrize("bad", [0, -1, "0", "many", "1.5", ""])
def test_resolve_jobs_rejects_garbage(bad):
    with pytest.raises(ValueError):
        resolve_jobs(bad)


# ----------------------------------------------------------------------
# FnSpec
# ----------------------------------------------------------------------
def _double(x, offset=0):
    return 2 * x + offset


def test_fnspec_calls_like_the_target():
    spec = FnSpec.of(_double)
    assert spec(21) == _double(21)
    with_kw = FnSpec.of(_double, offset=5)
    assert with_kw(10) == 25
    assert with_kw.target == f"{__name__}:_double"


def test_fnspec_rejects_closures():
    def local(x):
        return x

    with pytest.raises(ValueError, match="module-level"):
        FnSpec.of(local)


def test_fnspec_is_hashable_and_resolve_caches():
    a = FnSpec.of(_double, offset=1)
    b = FnSpec.of(_double, offset=1)
    assert a == b and hash(a) == hash(b)
    assert a.resolve() is b.resolve()


# ----------------------------------------------------------------------
# parallel_map
# ----------------------------------------------------------------------
def test_parallel_map_serial_preserves_order():
    items = list(range(20))
    assert parallel_map(_double, items, jobs=1) == [2 * x for x in items]
    assert parallel_map(_double, [], jobs=4) == []
    assert parallel_map(_double, [7], jobs=4) == [14]


def test_parallel_map_auto_short_work_stays_serial():
    # 20 near-instant units can never clear MIN_FANOUT_SECONDS, so auto
    # must stay serial on any host (and always does on a 1-core host).
    items = list(range(20))
    assert parallel_map(_double, items, jobs="auto") == [2 * x for x in items]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method",
)
def test_parallel_map_pool_matches_serial():
    items = list(range(12))
    expected = [_double(x, offset=3) for x in items]
    spec = FnSpec.of(_double, offset=3)
    assert parallel_map(spec, items, jobs=2) == expected


def test_parallel_map_validates_jobs():
    with pytest.raises(ValueError):
        parallel_map(_double, [1, 2, 3], jobs=0)


def test_in_worker_is_false_in_the_main_process():
    assert not in_worker()


# ----------------------------------------------------------------------
# Columnar source helpers (shared by the columnar replay path)
# ----------------------------------------------------------------------
def test_cycling_hashes_match_scalar_counter():
    from repro.dataplane.flowhash import cycling_hashes

    got = cycling_hashes(500)
    expected = [(k * 0.137) % 1.0 for k in range(1, 501)]
    assert got.tolist() == expected  # bit-identical, not approximately


def test_merge_cbr_timeline_matches_heap_order():
    import heapq

    from repro.sim.sources import merge_cbr_timeline

    streams = [("a", 0.003, 0.01), ("b", 0.0007, 0.025), ("c", 0.009, 0.01)]
    horizon = 1.0
    # Reference: the event-heap left fold the scalar mux performs.
    heap = [(start, i, key, gap) for i, (key, start, gap) in enumerate(streams)]
    heapq.heapify(heap)
    expected = []
    while heap:
        t, order, key, gap = heapq.heappop(heap)
        if t > horizon:
            continue
        expected.append((key, t))
        heapq.heappush(heap, (t + gap, order, key, gap))
    keys, kidx, ts = merge_cbr_timeline(streams, horizon)
    got = [(keys[i], t) for i, t in zip(kidx.tolist(), ts.tolist())]
    assert got == expected  # same floats, same tie order
