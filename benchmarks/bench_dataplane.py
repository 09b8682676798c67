"""Data-plane fast-path benchmark: reference, inject, batched, columnar.

Acceptance targets of the data-plane fast-path work: on the
``packet_replay`` workload (internet2, 4 s of CBR traffic) the batched
walker (``inject_stream`` driven by :class:`BatchedCBRMux`) sustains at
least 10x the packets/sec of the hop-by-hop pipeline walk
(``walk_reference``: a TCAM priority scan at every hop, no cache — the
baseline the gate has always meant), and the columnar walker
(``ShardedDataPlane.inject_columns``, one in-process mode) is never slower
than the batched one (>= 0.95x) —
all with identical delivery stats: same delivered/dropped counts and zero
policy violations.

Every mode replays exactly the same packet sequence: same seed, same
per-class flow-hash cycle, same CBR timestamps.  Packets/sec is best-of-N
wall-clock; results append to the ``BENCH_dataplane.json`` trajectory at
the repo root.
"""

import time

import numpy as np

from repro.dataplane.flowhash import cycling_hashes
from repro.dataplane.packet import Packet
from repro.dataplane.sharded import ShardedDataPlane
from repro.experiments.harness import standard_setup
from repro.experiments.packet_replay import PPS_PER_MBPS, scaled_catalog
from repro.sim.kernel import Simulator
from repro.sim.sources import BatchedCBRMux, CBRSource, merge_cbr_timeline

#: Simulated seconds of CBR traffic per measurement.
DURATION = 4.0
#: Wall-clock repetitions per mode (best-of-N packets/sec).
REPEATS = 4
#: Packets per simulator event in batched mode.
BATCH = 256

_SEED = 11


def _deploy():
    """One internet2 deployment shared by every mode (plans differ per run)."""
    _topo, controller, series = standard_setup("internet2", snapshots=2)
    controller.catalog = scaled_catalog(controller.catalog)
    controller.engine.catalog = controller.catalog
    controller.rule_generator.catalog = controller.catalog
    plan = controller.compute_placement(series.mean())
    deployment = controller.deploy(plan, sim=Simulator(seed=_SEED))
    return plan, deployment.network


def _classes(plan):
    for cls in plan.classes:
        pps = cls.rate_mbps * PPS_PER_MBPS
        if pps > 0.5:
            yield cls, pps


def _run_scalar(plan, network, walk):
    """Event-per-packet replay through ``walk``: ``network.inject`` (plan
    replay) or ``network.walk_reference`` (the pipeline at every hop)."""
    sim = Simulator(seed=_SEED)
    network.reset_runtime_state()
    sent = [0]

    def make_consumer(cls):
        state = {"k": 0}

        def consume(size, now):
            state["k"] += 1
            h = (state["k"] * 0.137) % 1.0
            packet = Packet(
                class_id=cls.class_id, flow_hash=h, src=cls.src, dst=cls.dst
            )
            sent[0] += 1
            walk(packet, now=now)

        return consume

    rng = sim.rng.child("packet-replay-phases")
    sources = []
    for cls, pps in _classes(plan):
        src = CBRSource(sim, make_consumer(cls), pps, name=cls.class_id)
        sim.schedule(rng.uniform(0.0, 1.0 / pps), src.start)
        sources.append(src)
    started = time.perf_counter()
    sim.run(until=DURATION)
    elapsed = time.perf_counter() - started
    for src in sources:
        src.stop()
    return sent[0], elapsed, network.stats_snapshot()


def _run_batched(plan, network):
    """Batched replay: one mux event per BATCH packets, walked through
    cached per-interval plans by ``inject_stream``."""
    sim = Simulator(seed=_SEED)
    network.reset_runtime_state()
    sent = [0]
    hash_state = {}

    def on_batch(pairs):
        items = []
        append = items.append
        state = hash_state
        for cid, t in pairs:
            k = state[cid] = state[cid] + 1
            append((cid, (k * 0.137) % 1.0, t))
        sent[0] += len(items)
        network.inject_stream(items)

    mux = BatchedCBRMux(sim, on_batch, chunk=BATCH, horizon=DURATION)
    rng = sim.rng.child("packet-replay-phases")
    for cls, pps in _classes(plan):
        hash_state[cls.class_id] = 0
        mux.add_stream(cls.class_id, pps, rng.uniform(0.0, 1.0 / pps))
    mux.start()
    started = time.perf_counter()
    sim.run(until=DURATION)
    elapsed = time.perf_counter() - started
    mux.stop()
    return sent[0], elapsed, network.stats_snapshot()


def _run_columnar(plan, network):
    """Columnar replay: the merged timeline is built by the same float
    left-folds the mux performs, then walked as one column (the timeline
    build is inside the timed region, mirroring the mux's share of the
    batched measurement)."""
    sim = Simulator(seed=_SEED)
    network.reset_runtime_state()
    rng = sim.rng.child("packet-replay-phases")
    streams = []
    for cls, pps in _classes(plan):
        streams.append((cls.class_id, rng.uniform(0.0, 1.0 / pps), 1.0 / pps))
    started = time.perf_counter()
    keys, kidx, ts = merge_cbr_timeline(streams, DURATION)
    hashes = np.empty(len(ts))
    for ci in range(len(keys)):
        mask = kidx == ci
        m = int(mask.sum())
        if m:
            hashes[mask] = cycling_hashes(m)
    ShardedDataPlane(network).inject_columns(keys, kidx, hashes, ts)
    elapsed = time.perf_counter() - started
    return len(ts), elapsed, network.stats_snapshot()


def _best_pps(runner):
    best = 0.0
    sent = stats = None
    for _ in range(REPEATS):
        n, elapsed, run_stats = runner()
        if sent is None:
            sent, stats = n, run_stats
        else:
            # Every repetition must replay the identical packet sequence.
            assert n == sent and run_stats == stats
        best = max(best, n / elapsed)
    return best, sent, stats


def test_batched_walk_speedup(record_bench_dataplane):
    plan, network = _deploy()

    reference_pps, sent, reference_stats = _best_pps(
        lambda: _run_scalar(plan, network, network.walk_reference)
    )
    inject_pps, _, inject_stats = _best_pps(
        lambda: _run_scalar(plan, network, network.inject)
    )
    batched_pps, batched_sent, batched_stats = _best_pps(
        lambda: _run_batched(plan, network)
    )

    # All three modes must agree packet-for-packet.
    assert batched_sent == sent
    assert inject_stats == reference_stats
    assert batched_stats == reference_stats
    delivered, dropped, violations = batched_stats.as_tuple()
    assert violations == 0

    speedup = batched_pps / reference_pps
    record_bench_dataplane(
        "dataplane_packet_replay",
        {
            "topology": "internet2",
            "duration_s": DURATION,
            "repeats": REPEATS,
            "batch": BATCH,
            "packets": sent,
            "delivered": delivered,
            "dropped": dropped,
            "violations": violations,
            "reference_pps": round(reference_pps, 1),
            "inject_pps": round(inject_pps, 1),
            "batched_pps": round(batched_pps, 1),
            "speedup_inject_vs_reference": round(inject_pps / reference_pps, 2),
            "speedup_batched_vs_reference": round(speedup, 2),
        },
    )
    assert speedup >= 10.0, (
        f"batched walk only {speedup:.2f}x faster than the reference walk "
        f"({batched_pps:.0f} vs {reference_pps:.0f} pps)"
    )


def test_sharded_walk_speedup(record_bench_dataplane):
    plan, network = _deploy()

    batched_pps, sent, batched_stats = _best_pps(
        lambda: _run_batched(plan, network)
    )
    delivered, dropped, violations = batched_stats.as_tuple()
    assert violations == 0

    columnar_pps, columnar_sent, columnar_stats = _best_pps(
        lambda: _run_columnar(plan, network)
    )
    # Bit-identity vs the batched walk.
    assert columnar_sent == sent
    assert columnar_stats == batched_stats

    speedup = columnar_pps / batched_pps
    record_bench_dataplane(
        "dataplane_sharded_replay",
        {
            "topology": "internet2",
            "duration_s": DURATION,
            "repeats": REPEATS,
            "packets": sent,
            "delivered": delivered,
            "dropped": dropped,
            "violations": violations,
            "batched_pps": round(batched_pps, 1),
            "columnar_pps": round(columnar_pps, 1),
            "speedup_columnar_vs_batched": round(speedup, 2),
        },
    )
    # The columnar walk must never lose to the batched walk by more than
    # measurement noise.
    assert speedup >= 0.95, (
        f"columnar walk only {speedup:.2f}x the batched path "
        f"({columnar_pps:.0f} vs {batched_pps:.0f} pps)"
    )
