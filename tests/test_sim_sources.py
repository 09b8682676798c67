"""Tests for packet sources and the rate meter."""

import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.sources import (
    CBRSource,
    RateMeter,
    merge_cbr_timeline,
)


def _sink():
    received = []
    return received, lambda size, now: received.append((size, now))


def test_cbr_emits_at_configured_rate():
    sim = Simulator()
    received, consume = _sink()
    src = CBRSource(sim, consume, rate_pps=100.0, packet_size=500)
    src.start()
    sim.run(until=1.0)
    # One packet at t=0 then every 10 ms.
    assert 99 <= len(received) <= 101
    assert all(size == 500 for size, _ in received)
    assert src.bytes_sent == src.packets_sent * 500


def test_cbr_set_rate_takes_effect():
    sim = Simulator()
    received, consume = _sink()
    src = CBRSource(sim, consume, rate_pps=10.0)
    src.start()
    sim.run(until=1.0)
    before = len(received)
    src.set_rate(1000.0)
    sim.run(until=2.0)
    after = len(received) - before
    assert after > before * 10


def test_cbr_stop_and_restart():
    sim = Simulator()
    received, consume = _sink()
    src = CBRSource(sim, consume, rate_pps=100.0)
    src.start()
    sim.run(until=0.5)
    src.stop()
    mid = len(received)
    sim.run(until=1.0)
    assert len(received) == mid
    src.start()
    sim.run(until=1.5)
    assert len(received) > mid


def test_cbr_rejects_bad_params():
    sim = Simulator()
    with pytest.raises(SimulationError):
        CBRSource(sim, lambda s, t: None, rate_pps=0.0)
    with pytest.raises(SimulationError):
        CBRSource(sim, lambda s, t: None, rate_pps=10.0, packet_size=0)
    src = CBRSource(sim, lambda s, t: None, rate_pps=10.0)
    with pytest.raises(SimulationError):
        src.set_rate(-1.0)


def test_rate_meter_tracks_rate():
    sim = Simulator()
    meter = RateMeter(sim, window=0.5)
    src = CBRSource(sim, meter.consume, rate_pps=200.0)
    src.start()
    sim.run(until=2.0)
    assert 180 <= meter.rate_pps() <= 220
    src.stop()
    sim.run(until=3.0)
    assert meter.rate_pps() == 0.0  # window drained


def test_merged_timeline_matches_per_stream_scalar_sources():
    # merge_cbr_timeline stands in for one event-per-packet CBRSource per
    # stream: the link packet-replay's bit-identity rests on.  "d" ties "a"
    # at every packet (same start, same rate), so registration order must
    # break the ties; "late" starts past the horizon and sends nothing.
    horizon = 1.0
    streams = [
        ("a", 0.003, 211.0),
        ("b", 0.0007, 97.0),
        ("c", 0.011, 311.0),
        ("d", 0.003, 211.0),
        ("late", 1.2, 50.0),
    ]

    sim = Simulator()
    scalar = []
    sources = []
    for key, start, rate in streams:
        def consume(size, now, key=key):
            scalar.append((key, now))
        src = CBRSource(sim, consume, rate, name=key)
        sim.schedule(start, src.start)
        sources.append(src)
    sim.run(until=horizon)
    for src in sources:
        src.stop()

    keys, kidx, ts = merge_cbr_timeline(
        [(key, start, 1.0 / rate) for key, start, rate in streams], horizon
    )
    assert keys == [key for key, _, _ in streams]
    merged = [(keys[i], t) for i, t in zip(kidx.tolist(), ts.tolist())]
    assert merged == scalar  # keys, tie order, every timestamp float
    assert {key for key, _ in scalar} == {"a", "b", "c", "d"}
    # Not vacuous: every "a" packet is tied by the "d" packet right after it.
    tied = [p for p, q in zip(scalar, scalar[1:]) if q == ("d", p[1])]
    assert tied == [p for p in scalar if p[0] == "a"]


def test_rate_meter_forwards_downstream():
    sim = Simulator()
    received, consume = _sink()
    meter = RateMeter(sim, window=1.0, downstream=consume)
    meter.consume(100, 0.0)
    assert received == [(100, 0.0)]
    assert meter.total_packets == 1
