"""Tests for the trace ring buffer and Chrome trace export."""

import json
from pathlib import Path

import pytest

from repro import obs
from repro.obs.trace import SIM_TRACK, WALL_TRACK, Tracer, validate_trace

GOLDEN = Path(__file__).parent / "data" / "trace_golden.json"


def _sim_events(tracer):
    return [e for e in tracer.to_chrome()["traceEvents"] if e.get("ph") != "M"]


def make_deterministic_trace() -> Tracer:
    """The fixed event sequence the golden file snapshots."""
    t = Tracer()
    t.enabled = True
    t.instant("detect:vnf-crash", 1.25, cat="chaos.detect", args={"target": "ids[0]@s3"})
    t.complete("fault:link-flap", 2.0, 0.75, cat="chaos.fault",
               args={"target": "s1-s2"})
    t.counter("probe.violations", 2.5, {"dropped": 3, "policy": 0}, cat="chaos.probe")
    return t


def test_disabled_tracer_records_nothing():
    t = Tracer()
    t.instant("x", 1.0)
    t.complete("y", 1.0, 0.5)
    t.counter("z", 1.0, {"v": 1})
    assert len(t) == 0


def test_sim_events_land_on_sim_track():
    t = make_deterministic_trace()
    for ev in _sim_events(t):
        assert ev["tid"] == SIM_TRACK
    # Timestamps are microseconds.
    inst = _sim_events(t)[0]
    assert inst["ts"] == 1.25e6


def test_ring_buffer_drops_oldest():
    t = Tracer(capacity=3)
    t.enabled = True
    for i in range(5):
        t.instant(f"e{i}", float(i))
    assert len(t) == 3
    assert t.dropped == 2
    names = [e["name"] for e in _sim_events(t)]
    assert names == ["e2", "e3", "e4"]
    assert t.to_chrome()["otherData"]["dropped_events"] == 2


def test_wall_span_uses_wall_track():
    t = Tracer()
    t.enabled = True
    t.wall_span("inner", 1000.5, 1000.75, cat="solver")
    t.wall_span("outer", 1000.25, 1001.0, cat="solver")  # recorded at exit
    inner, outer = _sim_events(t)
    for ev in (inner, outer):
        assert ev["tid"] == WALL_TRACK
        assert ev["ph"] == "X"
    # The track starts at the earliest interval, whatever perf_counter's zero.
    assert (outer["ts"], outer["dur"]) == (0.0, 0.75e6)
    assert (inner["ts"], inner["dur"]) == (0.25e6, 0.25e6)


@pytest.fixture
def obs_off_after():
    """Leave the process-wide obs state exactly as tier-1 expects it."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _assembly_count():
    return obs.metric("solver_lp_assembly_seconds").series()[0].count


def test_span_off_records_nothing(obs_off_after, monkeypatch):
    def no_clock():
        raise AssertionError("obs.span read the clock with obs off")

    monkeypatch.setattr("repro.obs.state._clock", no_clock)
    with obs.span("obs.test.span", histogram="solver_lp_assembly_seconds"):
        pass
    assert len(obs.TRACER) == 0
    assert _assembly_count() == 0


def test_span_with_metrics_on_feeds_its_histogram(obs_off_after):
    obs.enable()
    with obs.span("obs.test.span", histogram="solver_lp_assembly_seconds"):
        pass
    with obs.span("obs.test.span"):  # no histogram named: nothing to feed
        pass
    assert _assembly_count() == 1
    assert len(obs.TRACER) == 0


def test_span_with_tracing_on_records_one_wall_event(obs_off_after):
    obs.enable(trace=True)
    with obs.span("obs.test.span", cat="test"):
        pass
    (ev,) = _sim_events(obs.TRACER)
    assert (ev["name"], ev["cat"], ev["ph"]) == ("obs.test.span", "test", "X")
    assert ev["tid"] == WALL_TRACK
    assert ev["dur"] >= 0


def test_to_chrome_validates_and_names_threads():
    t = make_deterministic_trace()
    obj = t.to_chrome(metadata={"seed": 7})
    assert validate_trace(obj) == []
    meta = [e for e in obj["traceEvents"] if e["ph"] == "M"]
    assert {m["args"]["name"] for m in meta} == {"simulation", "wall-clock"}
    assert obj["otherData"]["seed"] == 7
    assert obj["otherData"]["generator"] == "repro.obs"


def test_validate_trace_catches_malformed_events():
    assert validate_trace([]) == ["trace must be a JSON object"]
    assert validate_trace({}) == ["traceEvents must be a list"]
    errors = validate_trace(
        {"traceEvents": [{"ph": "Q"}, {"ph": "X", "name": "a", "ts": 0,
                                       "pid": 1, "tid": 1}]}
    )
    assert any("bad phase" in e for e in errors)
    assert any("missing dur" in e for e in errors)


def test_write_round_trips(tmp_path):
    t = make_deterministic_trace()
    out = tmp_path / "trace.json"
    t.write(out)
    obj = json.loads(out.read_text())
    assert validate_trace(obj) == []
    assert len(obj["traceEvents"]) == len(t) + 2  # + thread metadata


def test_golden_file_simulation_track():
    """The deterministic event sequence renders byte-identically.

    The golden file pins the export format (field names, µs timestamps,
    track layout).  Regenerate deliberately with::

        PYTHONPATH=src python tests/test_obs_trace.py --regen
    """
    t = make_deterministic_trace()
    rendered = json.dumps(t.to_chrome(), indent=2, sort_keys=True) + "\n"
    assert GOLDEN.exists(), "golden file missing — run --regen"
    assert rendered == GOLDEN.read_text()


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        t = make_deterministic_trace()
        GOLDEN.write_text(
            json.dumps(t.to_chrome(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN}")
