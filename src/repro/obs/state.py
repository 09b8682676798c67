"""Process-wide observability state, and the two calls instrumented code makes.

The registry and tracer singletons live here, with :func:`metric` (fetch a
catalog instrument) and :class:`span` (time an interval), so subsystems and
:mod:`repro.obs` submodules share them without import cycles.  Hot paths
read ``REGISTRY.enabled`` / ``TRACER.enabled`` directly (one attribute
load); :mod:`repro.obs` re-exports everything defined here.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs.catalog import register_all
from repro.obs.metrics import Metric, MetricsRegistry
from repro.obs.trace import Tracer

#: The process-wide metrics registry (disabled by default).
REGISTRY = MetricsRegistry()

#: The process-wide trace ring buffer (disabled by default).
TRACER = Tracer()

#: The clock :class:`span` reads.
_clock = time.perf_counter


def metric(name: str) -> Metric:
    """Look up a catalog instrument by name (registering the catalog lazily).

    Raises :class:`~repro.obs.metrics.MetricError` for names not in the
    catalog — instruments must be declared in :mod:`repro.obs.catalog`,
    never ad hoc.
    """
    if name not in REGISTRY:
        register_all(REGISTRY)
    return REGISTRY.get(name)


class span:
    """Time a block: the one interval timer of :mod:`repro`.

    With metrics and tracing both off, entering and leaving read no clock
    and record nothing.  Otherwise one ``perf_counter`` pair is taken and
    handed to the wall track of the trace (when tracing) and to the catalog
    histogram named by ``histogram`` (when metrics are on).
    """

    __slots__ = ("name", "cat", "histogram", "_started")

    def __init__(
        self, name: str, cat: str = "perf", histogram: Optional[str] = None
    ) -> None:
        self.name = name
        self.cat = cat
        self.histogram = histogram
        self._started: Optional[float] = None

    def __enter__(self) -> None:
        if REGISTRY.enabled or TRACER.enabled:
            self._started = _clock()

    def __exit__(self, *exc) -> None:
        started = self._started
        if started is None:
            return
        ended = _clock()
        TRACER.wall_span(self.name, started, ended, cat=self.cat)
        if self.histogram is not None and REGISTRY.enabled:
            metric(self.histogram).observe(ended - started)
