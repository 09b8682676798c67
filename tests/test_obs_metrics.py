"""Unit tests for the metrics registry (repro.obs.metrics)."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    MAX_SERIES_PER_METRIC,
    MetricError,
    MetricsRegistry,
)


@pytest.fixture
def reg():
    r = MetricsRegistry()
    r.enabled = True
    return r


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
def test_registration_is_idempotent(reg):
    a = reg.counter("x_total", "help", ("mode",))
    b = reg.counter("x_total", "other help", ("mode",))
    assert a is b


def test_reregistration_type_mismatch_raises(reg):
    reg.counter("x_total", "h")
    with pytest.raises(MetricError):
        reg.gauge("x_total", "h")


def test_reregistration_label_mismatch_raises(reg):
    reg.counter("x_total", "h", ("a",))
    with pytest.raises(MetricError):
        reg.counter("x_total", "h", ("b",))


def test_invalid_names_rejected(reg):
    for bad in ("X", "1x", "a-b", "", "a b"):
        with pytest.raises(MetricError):
            reg.counter(bad, "h")
    with pytest.raises(MetricError):
        reg.counter("ok_total", "h", ("BadLabel",))


def test_unknown_metric_lookup_raises(reg):
    with pytest.raises(MetricError):
        reg.get("nope")
    assert "nope" not in reg


# ----------------------------------------------------------------------
# Counters / gauges
# ----------------------------------------------------------------------
def test_counter_inc_and_negative_rejected(reg):
    c = reg.counter("c_total", "h")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    with pytest.raises(MetricError):
        c.inc(-1)


def test_labeled_series_positional_and_kw(reg):
    c = reg.counter("c_total", "h", ("mode",))
    c.labels("warm").inc()
    c.labels(mode="warm").inc()
    c.labels(mode="cold").inc()
    snap = c.snapshot()
    values = {s["labels"]["mode"]: s["value"] for s in snap["series"]}
    assert values == {"warm": 2.0, "cold": 1.0}


def test_label_misuse_raises(reg):
    c = reg.counter("c_total", "h", ("mode",))
    with pytest.raises(MetricError):
        c.inc()  # labeled family has no sole series
    with pytest.raises(MetricError):
        c.labels()  # wrong arity
    with pytest.raises(MetricError):
        c.labels("a", "b")
    with pytest.raises(MetricError):
        c.labels(bogus="x")
    with pytest.raises(MetricError):
        c.labels("a", mode="b")  # positional and kw together


def test_series_cardinality_cap(reg):
    c = reg.counter("c_total", "h", ("id",))
    for i in range(MAX_SERIES_PER_METRIC):
        c.labels(str(i)).inc()
    with pytest.raises(MetricError, match="cardinality"):
        c.labels("one-too-many").inc()


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
def test_histogram_bucketing(reg):
    h = reg.histogram("h_seconds", "h", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.0, 1.5, 3.0, 100.0):
        h.observe(v)
    # le=1: {0.5, 1.0}; le=2: +1.5; le=4: +3.0; +Inf: +100
    assert h._sole().bucket_counts == [2, 1, 1, 1]
    cum = h._sole().cumulative_buckets()
    assert cum == [(1.0, 2), (2.0, 3), (4.0, 4), (math.inf, 5)]
    assert h._sole().count == 5
    assert h._sole().sum == pytest.approx(106.0)


def test_histogram_default_and_size_buckets(reg):
    t = reg.histogram("t_seconds", "h")
    assert t.buckets == DEFAULT_TIME_BUCKETS
    s = reg.histogram("s_packets", "h", buckets=DEFAULT_SIZE_BUCKETS)
    assert s.buckets == DEFAULT_SIZE_BUCKETS


def test_histogram_bad_buckets_raises(reg):
    with pytest.raises(MetricError):
        reg.histogram("bad", "h", buckets=(2.0, 1.0))
    with pytest.raises(MetricError):
        reg.histogram("bad2", "h", buckets=(1.0, 1.0))


# ----------------------------------------------------------------------
# Disabled behaviour (the tier-1 contract)
# ----------------------------------------------------------------------
def test_disabled_registry_is_noop():
    r = MetricsRegistry()
    assert not r.enabled
    c = r.counter("c_total", "h")
    g = r.gauge("g", "h")
    h = r.histogram("h_seconds", "h")
    c.inc(5)
    g.set(3)
    h.observe(1.0)
    assert c.value == 0.0
    assert g.value == 0.0
    assert h._sole().count == 0


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def test_prometheus_text_format(reg):
    c = reg.counter("c_total", "counts things", ("mode",))
    c.labels(mode="warm").inc(2)
    h = reg.histogram("h_seconds", "times things", buckets=(0.5, 1.0))
    h.observe(0.25)
    h.observe(0.75)
    text = reg.to_prometheus()
    assert "# HELP c_total counts things" in text
    assert "# TYPE c_total counter" in text
    assert 'c_total{mode="warm"} 2' in text
    assert 'h_seconds_bucket{le="0.5"} 1' in text
    assert 'h_seconds_bucket{le="1"} 2' in text
    assert 'h_seconds_bucket{le="+Inf"} 2' in text
    assert "h_seconds_sum 1" in text
    assert "h_seconds_count 2" in text


def test_snapshot_shape_and_determinism(reg):
    c = reg.counter("c_total", "h", ("mode",))
    c.labels(mode="b").inc()
    c.labels(mode="a").inc()
    snap1 = reg.snapshot()
    snap2 = reg.snapshot()
    assert snap1 == snap2
    # Series are sorted by label values, independent of creation order.
    modes = [s["labels"]["mode"] for s in snap1["c_total"]["series"]]
    assert modes == ["a", "b"]


def test_reset_values_keeps_registrations(reg):
    c = reg.counter("c_total", "h", ("mode",))
    c.labels(mode="warm").inc(7)
    g = reg.gauge("g", "h")
    g.set(3)
    reg.reset_values()
    assert "c_total" in reg
    assert g.value == 0.0
    assert c.snapshot()["series"] == []
