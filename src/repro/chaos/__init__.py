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

from repro.chaos.detector import FailureDetector
from repro.chaos.injector import FaultInjector
from repro.chaos.metrics import ChaosMetrics
from repro.chaos.recovery import RecoveryManager
from repro.chaos.schedule import (
    ChaosConfig,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    generate_schedule,
)

__all__ = [
    "ChaosConfig",
    "ChaosMetrics",
    "FailureDetector",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "RecoveryManager",
    "generate_schedule",
]
