"""Failure sweep (extension): loss vs concurrent instance crashes.

Not in the paper's evaluation, but implied by the mechanism's name: fast
failover treats a crashed instance like a permanently overloaded one —
its sub-classes are re-spread and replacement ClickOS instances launched.
The sweep kills 0..K instances simultaneously and reports the loss with
and without failover, showing graceful degradation instead of a cliff.
"""

from __future__ import annotations

from functools import partial
from typing import List, Sequence

from repro.core.dynamic import FailoverConfig
from repro.core.engine import EngineConfig
from repro.experiments.harness import (
    ExperimentResult,
    REPLAY_HEADROOM,
    parallel_map,
    standard_setup,
)
from repro.parallel import Jobs
from repro.traffic.replay import replay_series


def _sweep_setup(topology: str, snapshots: int):
    """(controller, timeline, victims_by_load) for one sweep instance."""
    _topo, controller, series = standard_setup(
        topology,
        snapshots=snapshots,
        interval=60.0,
        seed=6,
        engine_config=EngineConfig(capacity_headroom=REPLAY_HEADROOM),
    )
    timeline = replay_series(controller.class_builder, series)
    plan = controller.compute_placement(series.mean())
    controller.deploy(plan)
    # Kill the most-loaded instances first — the worst case.
    subclass_plan = controller.deployment.subclass_plan
    victims_by_load = sorted(
        subclass_plan.instance_load.items(), key=lambda kv: -kv[1]
    )
    return controller, timeline, victims_by_load


def _failure_row(k: int, topology: str, snapshots: int) -> list:
    """One sweep row on its own (deterministic) setup: every row sees the
    identical deployment and victim order, in-process or in a worker."""
    controller, timeline, victims_by_load = _sweep_setup(topology, snapshots)
    losses = {}
    extras = 0.0
    for enabled in (False, True):
        handler = controller.make_dynamic_handler(
            FailoverConfig(enabled=enabled)
        )
        for ref, _ in victims_by_load[:k]:
            handler.fail_instance(ref)
        result = handler.replay(timeline)
        losses[enabled] = result.mean_loss
        if enabled:
            extras = result.mean_extra_cores
    return [
        k,
        round(losses[False], 5),
        round(losses[True], 5),
        round(extras, 1),
    ]


def run(
    topology: str = "internet2",
    failures: Sequence[int] = (0, 1, 2, 4, 8),
    snapshots: int = 20,
    quick: bool = False,
    jobs: Jobs = 1,
) -> ExperimentResult:
    """Replay a short timeline with k concurrently failed instances.

    Args:
        jobs: worker processes (one failure count per worker), or
            ``"auto"``.  Every row rebuilds the deterministic setup
            instead of pickling it.
    """
    if quick:
        failures = (0, 2)
        snapshots = 8
    rows: List[list] = parallel_map(
        partial(_failure_row, topology=topology, snapshots=snapshots),
        failures,
        jobs=jobs,
    )
    return ExperimentResult(
        experiment="failure-sweep",
        description=f"loss vs concurrent instance crashes ({topology})",
        paper_expectation=(
            "extension: failover degrades gracefully, replacing crashed "
            "instances like permanently overloaded ones"
        ),
        columns=[
            "Failed instances",
            "Mean loss (no FO)",
            "Mean loss (FO)",
            "Avg extra cores",
        ],
        rows=rows,
    )
