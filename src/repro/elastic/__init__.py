"""Elastic VNF autoscaling + flash-crowd admission control.

The package treats orchestration as a continuous loop (Bari et al.): a
seeded, pure decision core — utilization snapshots, hysteresis bands, a
cheapest-first admission oracle (Sallam et al.'s SFC-constrained
max-flow, greedy form) — wrapped by :class:`ElasticController`, which
submits each verdict as a re-plan intent to the tenant worker owning the
deployment: a warm-start re-placement pushed make-before-break through
the southbound fabric.

Module map:

- :mod:`repro.elastic.slo` — per-tenant SLO classes (weight = shed cost).
- :mod:`repro.elastic.monitor` — pure per-NF utilization snapshots.
- :mod:`repro.elastic.hysteresis` — dwell-counted scale-out/in bands.
- :mod:`repro.elastic.admission` — cheapest-first verdicts and their search.
- :mod:`repro.elastic.metrics` — tick/action ledger + time-to-absorb.
- :mod:`repro.elastic.loop` — the controller that ties them together.
"""

import importlib

#: Re-exported name → the module that defines it, imported on first access.
_EXPORTS = {
    "Candidates": "repro.elastic.admission",
    "admit": "repro.elastic.admission",
    "shed_order": "repro.elastic.admission",
    "HOLD": "repro.elastic.hysteresis",
    "SCALE_IN": "repro.elastic.hysteresis",
    "SCALE_OUT": "repro.elastic.hysteresis",
    "HysteresisConfig": "repro.elastic.hysteresis",
    "HysteresisState": "repro.elastic.hysteresis",
    "decide": "repro.elastic.hysteresis",
    "ElasticController": "repro.elastic.loop",
    "ElasticMetrics": "repro.elastic.metrics",
    "ElasticTick": "repro.elastic.metrics",
    "utilization_snapshot": "repro.elastic.monitor",
    "assign_slo_classes": "repro.elastic.slo",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
