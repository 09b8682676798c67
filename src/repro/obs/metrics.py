"""Typed metrics registry: counters, gauges, histograms with labeled series.

The one queryable surface for everything the reproduction measures about
itself.  Subsystems register instruments from the central catalog
(:mod:`repro.obs.catalog`) and update them from *ground truth* — installed
rule counts, delivery ledgers, solver telemetry — never the other way
around: metrics reads must not perturb RNG substreams, event ordering, or
any simulated state (the bit-identity contract of the observability
layer).

Instruments are cheap when disabled: every mutating operation checks the
registry's ``enabled`` flag first and returns immediately, so tier-1 tests
(which never call :func:`repro.obs.enable`) pay one attribute read per
instrumented call site.

Export formats:

* :meth:`MetricsRegistry.snapshot` — a deterministic nested dict, embedded
  into run manifests (``run.json``);
* :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format, for eyeballing or scraping a dumped file.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Default histogram buckets for wall-clock durations (seconds).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)

#: Default buckets for size-like quantities (packets per batch, rows, ...).
DEFAULT_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 8, 64, 256, 1024, 4096, 16384, 65536,
)

#: Default cap on distinct label-value combinations per metric.  Exceeding
#: it raises instead of silently exploding memory — a misbehaving label
#: (e.g. a per-packet id) is a bug, not load.  Registries that legitimately
#: need more (per-tenant labels over hundreds of tenants) pass
#: ``MetricsRegistry(max_series=...)``.
MAX_SERIES_PER_METRIC = 512


class MetricError(ValueError):
    """Invalid metric definition or use (bad name, label mismatch, ...)."""


def _fmt(v: float) -> str:
    """Prometheus-style number rendering (ints without trailing .0)."""
    if v == math.inf:
        return "+Inf"
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


class _Series:
    """One labeled child of a metric family."""

    __slots__ = ("_family", "label_values")

    def __init__(self, family: "Metric", label_values: Tuple[str, ...]):
        self._family = family
        self.label_values = label_values

    @property
    def _enabled(self) -> bool:
        return self._family._registry.enabled


class CounterSeries(_Series):
    __slots__ = ("value",)

    def __init__(self, family, label_values):
        super().__init__(family, label_values)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not self._enabled:
            return
        if amount < 0:
            raise MetricError(
                f"counter {self._family.name!r}: negative increment {amount}"
            )
        self.value += amount


class GaugeSeries(_Series):
    __slots__ = ("value",)

    def __init__(self, family, label_values):
        super().__init__(family, label_values)
        self.value = 0.0

    def set(self, value: float) -> None:
        if self._enabled:
            self.value = float(value)


class HistogramSeries(_Series):
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, family, label_values):
        super().__init__(family, label_values)
        self.bucket_counts = [0] * (len(family.buckets) + 1)  # + overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        if not self._enabled:
            return
        buckets = self._family.buckets
        i = 0
        n = len(buckets)
        while i < n and value > buckets[i]:
            i += 1
        self.bucket_counts[i] += 1
        self.sum += value
        self.count += 1

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out = []
        running = 0
        bounds = list(self._family.buckets) + [math.inf]
        for bound, n in zip(bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        return out


_SERIES_TYPES = {
    "counter": CounterSeries,
    "gauge": GaugeSeries,
    "histogram": HistogramSeries,
}


class Metric:
    """A metric family: one name/type/help plus its labeled series."""

    def __init__(
        self,
        registry: "MetricsRegistry",
        kind: str,
        name: str,
        help: str,
        label_names: Tuple[str, ...] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _SERIES_TYPES:
            raise MetricError(f"unknown metric kind {kind!r}")
        if not _NAME_RE.match(name):
            raise MetricError(
                f"invalid metric name {name!r} (want [a-z][a-z0-9_]*)"
            )
        for ln in label_names:
            if not _NAME_RE.match(ln):
                raise MetricError(f"invalid label name {ln!r} on {name!r}")
        self._registry = registry
        self.kind = kind
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        if kind == "histogram":
            b = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
            if list(b) != sorted(b) or len(set(b)) != len(b):
                raise MetricError(f"histogram {name!r}: buckets must increase")
            self.buckets: Tuple[float, ...] = b
        else:
            if buckets is not None:
                raise MetricError(f"{kind} {name!r} does not take buckets")
            self.buckets = ()
        self._series: Dict[Tuple[str, ...], _Series] = {}
        if not self.label_names:
            self._default = self._make_series(())
        else:
            self._default = None

    # ------------------------------------------------------------------
    def _make_series(self, values: Tuple[str, ...]) -> _Series:
        cap = self._registry.max_series
        if len(self._series) >= cap:
            raise MetricError(
                f"metric {self.name!r}: series cardinality limit "
                f"({cap}) exceeded — check label values"
            )
        series = _SERIES_TYPES[self.kind](self, values)
        self._series[values] = series
        return series

    def labels(self, *values: str, **kw: str) -> _Series:
        """The child series for one label-value combination (created lazily)."""
        if kw:
            if values:
                raise MetricError("pass labels positionally or by name, not both")
            try:
                values = tuple(str(kw[ln]) for ln in self.label_names)
            except KeyError as exc:
                raise MetricError(
                    f"metric {self.name!r}: missing label {exc.args[0]!r}"
                ) from None
            if len(kw) != len(self.label_names):
                extra = set(kw) - set(self.label_names)
                raise MetricError(
                    f"metric {self.name!r}: unknown labels {sorted(extra)}"
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise MetricError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {values!r}"
            )
        series = self._series.get(values)
        if series is None:
            series = self._make_series(values)
        return series

    # Unlabeled convenience: metric("x").inc() etc. delegate to the sole
    # series when the family has no labels.
    def _sole(self) -> _Series:
        if self._default is None:
            raise MetricError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "call .labels(...) first"
            )
        return self._default

    def inc(self, amount: float = 1.0) -> None:
        self._sole().inc(amount)  # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        self._sole().set(value)  # type: ignore[attr-defined]

    def observe(self, value: float) -> None:
        self._sole().observe(value)  # type: ignore[attr-defined]

    @property
    def value(self) -> float:
        sole = self._sole()
        return sole.value  # type: ignore[attr-defined]

    def series(self) -> List[_Series]:
        return [self._series[k] for k in sorted(self._series)]

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        entry: dict = {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.label_names),
            "series": [],
        }
        if self.kind == "histogram":
            entry["buckets"] = list(self.buckets)
        for s in self.series():
            labels = dict(zip(self.label_names, s.label_values))
            if self.kind == "histogram":
                entry["series"].append(
                    {
                        "labels": labels,
                        "count": s.count,  # type: ignore[attr-defined]
                        "sum": s.sum,  # type: ignore[attr-defined]
                        "bucket_counts": list(s.bucket_counts),  # type: ignore[attr-defined]
                    }
                )
            else:
                entry["series"].append(
                    {"labels": labels, "value": s.value}  # type: ignore[attr-defined]
                )
        return entry


class MetricsRegistry:
    """Holds metric families; disabled (all updates no-ops) by default.

    Args:
        max_series: per-metric cardinality cap (distinct label-value
            combinations); defaults to :data:`MAX_SERIES_PER_METRIC` (512).
            Workloads with naturally wide labels — e.g. per-tenant series
            across hundreds of tenants — raise it at construction time or
            by assigning ``registry.max_series`` before the hot loop.
    """

    def __init__(self, max_series: int = MAX_SERIES_PER_METRIC) -> None:
        if max_series < 1:
            raise MetricError(f"max_series must be >= 1, got {max_series}")
        self.enabled = False
        self.max_series = max_series
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def _register(
        self,
        kind: str,
        name: str,
        help: str,
        labels: Iterable[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != tuple(labels):
                raise MetricError(
                    f"metric {name!r} re-registered with a different "
                    f"type/labels ({existing.kind}{existing.label_names} vs "
                    f"{kind}{tuple(labels)})"
                )
            return existing
        metric = Metric(self, kind, name, help, tuple(labels), buckets)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str, labels: Iterable[str] = ()) -> Metric:
        return self._register("counter", name, help, labels)

    def gauge(self, name: str, help: str, labels: Iterable[str] = ()) -> Metric:
        return self._register("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str,
        labels: Iterable[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Metric:
        return self._register("histogram", name, help, labels, buckets)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricError(f"unknown metric {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Every family and series as a deterministic nested dict."""
        return {name: self._metrics[name].snapshot() for name in self.names()}

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in self.names():
            m = self._metrics[name]
            lines.append(f"# HELP {name} {m.help}")
            lines.append(f"# TYPE {name} {m.kind}")
            for s in m.series():
                label_str = ",".join(
                    f'{ln}="{lv}"'
                    for ln, lv in zip(m.label_names, s.label_values)
                )
                if m.kind == "histogram":
                    for bound, cum in s.cumulative_buckets():  # type: ignore[attr-defined]
                        le = f'le="{_fmt(bound)}"'
                        joined = f"{label_str},{le}" if label_str else le
                        lines.append(f"{name}_bucket{{{joined}}} {cum}")
                    suffix = f"{{{label_str}}}" if label_str else ""
                    lines.append(f"{name}_sum{suffix} {_fmt(s.sum)}")  # type: ignore[attr-defined]
                    lines.append(f"{name}_count{suffix} {_fmt(s.count)}")  # type: ignore[attr-defined]
                else:
                    suffix = f"{{{label_str}}}" if label_str else ""
                    lines.append(f"{name}{suffix} {_fmt(s.value)}")  # type: ignore[attr-defined]
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    def reset_values(self) -> None:
        """Zero every series without dropping registrations."""
        for m in self._metrics.values():
            m._series = {}
            m._default = m._make_series(()) if not m.label_names else None

    def clear(self) -> None:
        """Drop every registration (tests only)."""
        self._metrics.clear()
