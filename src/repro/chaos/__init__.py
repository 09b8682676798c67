"""Chaos engine: deterministic fault injection → detection → recovery.

The failure-study subsystem (DESIGN.md, "Failure model & recovery"):
seeded declarative fault schedules (:mod:`repro.chaos.schedule`) are
applied to a live simulation (:mod:`repro.chaos.injector`), noticed by a
heartbeat detector (:mod:`repro.chaos.detector`), and repaired by the
tenant worker that owns the deployment, through the re-plan intents
:mod:`repro.chaos.recovery` submits, with
downtime/violation accounting in :mod:`repro.chaos.metrics` and one-stop
wiring in :mod:`repro.chaos.runner`.
"""

from repro.chaos.detector import Detection, FailureDetector
from repro.chaos.injector import FaultInjector
from repro.chaos.metrics import (
    ChaosMetrics,
    ConvergenceRecord,
    FaultRecord,
    ProbeLoop,
    ProbeTick,
    fault_id,
)
from repro.chaos.recovery import RecoveryManager
from repro.chaos.runner import ChaosEngine, ChaosRunResult
from repro.chaos.schedule import (
    CHAOS_STREAM,
    ChaosConfig,
    FaultEvent,
    FaultKind,
    FaultSchedule,
    generate_schedule,
)
from repro.dataplane.switch import PRIORITY_QUARANTINE

__all__ = [
    "CHAOS_STREAM",
    "ChaosConfig",
    "ChaosEngine",
    "ChaosMetrics",
    "ChaosRunResult",
    "ConvergenceRecord",
    "Detection",
    "FailureDetector",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultRecord",
    "FaultSchedule",
    "PRIORITY_QUARANTINE",
    "ProbeLoop",
    "ProbeTick",
    "RecoveryManager",
    "fault_id",
    "generate_schedule",
]
