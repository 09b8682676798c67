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

from repro.elastic.admission import Candidates, admit, shed_order
from repro.elastic.hysteresis import (
    HOLD,
    SCALE_IN,
    SCALE_OUT,
    HysteresisConfig,
    HysteresisState,
    decide,
)
from repro.elastic.loop import ElasticController
from repro.elastic.metrics import ElasticMetrics, ElasticTick, ScaleAction
from repro.elastic.monitor import UtilizationSnapshot, utilization_snapshot
from repro.elastic.slo import (
    DEFAULT_SLO,
    SLO_CLASSES,
    SLOClass,
    assign_slo_classes,
)

__all__ = [
    "Candidates",
    "admit",
    "shed_order",
    "HOLD",
    "SCALE_IN",
    "SCALE_OUT",
    "HysteresisConfig",
    "HysteresisState",
    "decide",
    "ElasticController",
    "ElasticMetrics",
    "ElasticTick",
    "ScaleAction",
    "UtilizationSnapshot",
    "utilization_snapshot",
    "DEFAULT_SLO",
    "SLO_CLASSES",
    "SLOClass",
    "assign_slo_classes",
]
