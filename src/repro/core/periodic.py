"""Periodic re-optimization: the large time-scale loop of Sec. VI.

"The large time-scale traffic dynamic shows clear daily or weekly patterns
... it can be easily handled by periodically running the Optimization
Engine and placing VNF instances accordingly."  This module runs that loop
on the simulator clock: each period it pulls the current traffic matrix,
re-runs the engine, and diffs the new plan against the deployed one so the
Resource Orchestrator knows which instances to launch and retire.  When
the controller has a southbound fabric attached, the new plan is also
committed through it (:func:`repro.core.reconfigure.commit`); otherwise
the loop only reports churn.

Churn is the metric that matters here (how much the deployment thrashes);
the diff is reported per run and accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.controller import AppleController
from repro.core.engine import PlacementError
from repro.core.placement import PlacementPlan, diff_plans
from repro.core.reconfigure import Outcome, commit, realize
from repro.sim.kernel import Simulator, Timer
from repro.traffic.matrix import TrafficMatrix

MatrixProvider = Callable[[float], TrafficMatrix]


@dataclass
class ReoptimizationReport:
    """Outcome of one periodic engine run."""

    time: float
    instances_before: int
    instances_after: int
    #: Instance slots the new plan adds / stops using (``PlanDelta``).
    launched: int
    retired: int
    solve_seconds: float
    failed: bool = False
    #: True when the engine re-solved a cached placement template rather
    #: than rebuilding the model (the expected steady state of this loop:
    #: the class structure is stable across snapshots, only rates move).
    warm_start: bool = False

    @property
    def churn(self) -> int:
        """Instances launched + retired by this run."""
        return self.launched + self.retired


class PeriodicReoptimizer:
    """Re-runs the Optimization Engine every period on the sim clock.

    Args:
        sim: shared simulator.
        controller: the APPLE controller whose engine/classes to drive.
        matrix_provider: maps the current sim time to the traffic matrix
            the engine should plan for (e.g. a forecast, or the measured
            matrix of the last period).
        period: seconds between engine runs (large time-scale: the paper's
            snapshots are 15 minutes).
    """

    def __init__(
        self,
        sim: Simulator,
        controller: AppleController,
        matrix_provider: MatrixProvider,
        period: float = 900.0,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.sim = sim
        self.controller = controller
        self.matrix_provider = matrix_provider
        self.period = period
        self.reports: List[ReoptimizationReport] = []
        self.current_plan: Optional[PlacementPlan] = None
        self._timer: Optional[Timer] = None

    # ------------------------------------------------------------------
    def start(self, immediately: bool = True) -> None:
        """Arm the periodic loop (first run now or after one period)."""
        self._timer = self.sim.every(
            self.period, self._run_once, start_delay=0.0 if immediately else None
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    def _run_once(self) -> None:
        matrix = self.matrix_provider(self.sim.now)
        before = (
            self.current_plan.total_instances() if self.current_plan else 0
        )
        try:
            plan = self.controller.compute_placement(matrix)
        except PlacementError:
            self.reports.append(
                ReoptimizationReport(
                    time=self.sim.now,
                    instances_before=before,
                    instances_after=before,
                    launched=0,
                    retired=0,
                    solve_seconds=0.0,
                    failed=True,
                )
            )
            return
        if self.current_plan is None:  # nothing deployed: all of it is new
            launched, retired = plan.total_instances(), 0
        else:
            delta = diff_plans(self.current_plan, plan)
            launched, retired = len(delta.added), len(delta.retired)
        self.reports.append(
            ReoptimizationReport(
                time=self.sim.now,
                instances_before=before,
                instances_after=plan.total_instances(),
                launched=launched,
                retired=retired,
                solve_seconds=plan.solve_seconds,
                warm_start=plan.warm_start,
            )
        )
        self.current_plan = plan
        fabric = self.controller.southbound
        if fabric is not None:
            commit(
                fabric,
                plan,
                *realize(self.controller.rule_generator, plan),
                on_done=self._committed,
            )

    def _committed(self, outcome: Outcome) -> None:
        if not outcome.superseded:
            self.controller.deployment = outcome.deployment

    # ------------------------------------------------------------------
    @property
    def total_churn(self) -> int:
        return sum(r.churn for r in self.reports)

    @property
    def runs(self) -> int:
        return len(self.reports)
