"""Data-plane fast-path benchmark: reference, inject, columnar.

Acceptance target of the data-plane fast-path work: on the
``packet_replay`` workload (internet2, 4 s of CBR traffic) the columnar
walker (``ShardedDataPlane.inject_columns``, the one way to walk many
packets) sustains at least 10x the packets/sec of the hop-by-hop pipeline
walk (``walk_reference``: a TCAM priority scan at every hop, no cache — the
baseline the gate has always meant), with identical delivery stats in all
three modes: same delivered/dropped counts and zero policy violations.

Every mode replays exactly the same packet sequence: same seed, same
per-class flow-hash cycle, same CBR timestamps.  The two per-packet modes
run one simulator event per packet (``CBRSource``); the columnar mode walks
the merged timeline (``merge_cbr_timeline``) as one column.  Packets/sec is
best-of-N wall-clock; results append to the ``BENCH_dataplane.json``
trajectory at the repo root.
"""

import time

import numpy as np

from repro.dataplane.flowhash import cycling_hashes
from repro.dataplane.packet import Packet
from repro.dataplane.sharded import ShardedDataPlane
from repro.experiments.packet_replay import PPS_PER_MBPS, deploy
from repro.sim.kernel import Simulator
from repro.sim.sources import CBRSource, merge_cbr_timeline

#: Simulated seconds of CBR traffic per measurement.
DURATION = 4.0
#: Wall-clock repetitions per mode (best-of-N packets/sec).
REPEATS = 4

_SEED = 11


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


def _run_columnar(plan, network):
    """Columnar replay: the merged timeline of the same CBR streams, walked
    as one column (the timeline build is inside the timed region, as the
    event loop is inside the per-packet modes')."""
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
        hashes[mask] = cycling_hashes(int(mask.sum()))
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


def test_columnar_walk_speedup(record_bench_dataplane):
    _, plan, _, deployment = deploy("internet2")
    network = deployment.network

    reference_pps, sent, reference_stats = _best_pps(
        lambda: _run_scalar(plan, network, network.walk_reference)
    )
    inject_pps, inject_sent, inject_stats = _best_pps(
        lambda: _run_scalar(plan, network, network.inject)
    )
    columnar_pps, columnar_sent, columnar_stats = _best_pps(
        lambda: _run_columnar(plan, network)
    )

    # All three modes must agree packet-for-packet.
    assert inject_sent == columnar_sent == sent
    assert inject_stats == reference_stats
    assert columnar_stats == reference_stats
    delivered, dropped, violations = columnar_stats.as_tuple()
    assert violations == 0

    speedup = columnar_pps / reference_pps
    record_bench_dataplane(
        "dataplane_packet_replay",
        {
            "topology": "internet2",
            "duration_s": DURATION,
            "repeats": REPEATS,
            "packets": sent,
            "delivered": delivered,
            "dropped": dropped,
            "violations": violations,
            "reference_pps": round(reference_pps, 1),
            "inject_pps": round(inject_pps, 1),
            "columnar_pps": round(columnar_pps, 1),
            "speedup_inject_vs_reference": round(inject_pps / reference_pps, 2),
            "speedup_columnar_vs_reference": round(speedup, 2),
        },
    )
    assert speedup >= 10.0, (
        f"columnar walk only {speedup:.2f}x faster than the reference walk "
        f"({columnar_pps:.0f} vs {reference_pps:.0f} pps)"
    )
