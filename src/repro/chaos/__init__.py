"""Chaos engine: deterministic fault injection → detection → recovery.

The failure-study subsystem (DESIGN.md, "Failure model & recovery"):
seeded declarative fault schedules (:mod:`repro.chaos.schedule`) are
applied to a live simulation (:mod:`repro.chaos.injector`), noticed by a
heartbeat detector (:mod:`repro.chaos.detector`), and repaired by the
tenant worker that owns the deployment, through the re-plan intents
:mod:`repro.chaos.recovery` submits, with the event-plane record in
:mod:`repro.chaos.metrics`.  The scenario runner
(:mod:`repro.experiments.scenario`) wires them onto a live run.
"""

import importlib

#: Re-exported name → the module that defines it, imported on first access.
_EXPORTS = {
    "ChaosConfig": "repro.chaos.schedule",
    "ChaosMetrics": "repro.chaos.metrics",
    "FailureDetector": "repro.chaos.detector",
    "FaultEvent": "repro.chaos.schedule",
    "FaultInjector": "repro.chaos.injector",
    "FaultKind": "repro.chaos.schedule",
    "FaultSchedule": "repro.chaos.schedule",
    "RecoveryManager": "repro.chaos.recovery",
    "generate_schedule": "repro.chaos.schedule",
}


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_EXPORTS[name]), name)
