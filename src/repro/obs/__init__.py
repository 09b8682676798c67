"""Observability: metrics registry, structured tracing, run manifests.

The zero-overhead-when-disabled telemetry substrate wired through every
layer (solver, data plane, controller, chaos, experiments).  Disabled by
default — tier-1 tests and plain library use pay one boolean check per
instrumented call site and nothing else.  :func:`enable` turns on the
metrics registry (and optionally the trace ring buffer); the experiment
CLI does this for ``--trace`` / ``--manifest`` runs.

One feed, one clock: a subsystem updates the registry at the event it
counts (:mod:`repro.obs.collectors` reads a ledger only where there is no
such event), and :class:`span` is the only interval timer — no clock read
while disabled, otherwise one ``perf_counter`` pair for the trace's wall
track and the catalog histogram it names.

Design contract (the bit-identity guarantee): telemetry only *reads*
ground truth — simulated timestamps, ledger counters, solver stats —
and never draws randomness, schedules events, or mutates simulated
state.  A run with observability enabled is therefore bit-identical to
the same run without it; ``tests/test_obs_bitidentity.py`` enforces
this end to end.

Quick start::

    from repro import obs

    obs.enable(trace=True)
    ...  # run experiments / simulations
    obs.metric("solver_solves_total").labels(mode="warm").inc()   # wired-in
    print(obs.REGISTRY.to_prometheus())
    obs.TRACER.write("trace.json")   # open in Perfetto / chrome://tracing

See ``docs/OBSERVABILITY.md`` for the full metric catalog, trace format
and run-manifest schema.
"""

from __future__ import annotations

from repro.obs import catalog as _catalog
from repro.obs.metrics import (
    MAX_SERIES_PER_METRIC,
    Metric,
    MetricError,
    MetricsRegistry,
)
from repro.obs.state import REGISTRY, TRACER, metric, span
from repro.obs.trace import Tracer, validate_trace
from repro.obs.manifest import (
    build_manifest,
    git_sha,
    machine_info,
    validate_manifest,
    write_json,
)

__all__ = [
    "REGISTRY",
    "TRACER",
    "Metric",
    "MetricError",
    "MetricsRegistry",
    "Tracer",
    "enable",
    "disable",
    "metric",
    "span",
    "reset",
    "build_manifest",
    "git_sha",
    "machine_info",
    "validate_manifest",
    "validate_trace",
    "write_json",
]


def enable(trace: bool = False) -> None:
    """Turn on metrics collection (and, optionally, event tracing).

    Idempotent.  Registers the full metric catalog so exporters and the
    docs-coverage test always see every instrument, used or not.
    """
    REGISTRY.enabled = True
    _catalog.register_all(REGISTRY)
    if trace:
        TRACER.enabled = True


def disable() -> None:
    """Turn all collection off again (values are kept until :func:`reset`)."""
    REGISTRY.enabled = False
    TRACER.enabled = False


def reset() -> None:
    """Zero metric values, restore the series cap, clear the trace buffer."""
    REGISTRY.reset_values()
    REGISTRY.max_series = MAX_SERIES_PER_METRIC
    TRACER.clear()
