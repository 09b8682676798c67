"""Southbound chaos: control-plane loss/disconnects vs convergence.

Sweeps the southbound channel's message-loss rate (plus two seeded
switch disconnects and a small data-plane fault schedule that forces
real recovery pushes) and measures what the resilient channel costs and
what it guarantees: retries, timeouts, circuit-breaker openings and
anti-entropy repairs on the cost side; convergence latency, zero
policy-violation-seconds and a drift-free final state on the guarantee
side.

The acceptance bar is the make-before-break claim: at any loss rate —
including 10%+ loss with two mid-run switch disconnects — a partially
applied rule delta must never open a policy-violation window, and the
reconciler must converge every switch to exactly the desired rule set
by the end of the run.
"""

from __future__ import annotations

from functools import partial
from typing import List

from repro.chaos import ChaosConfig
from repro.experiments.harness import ExperimentResult, parallel_map
from repro.experiments.scenario import Scenario, play, replay_day0
from repro.parallel import Jobs
from repro.southbound import SouthboundChaosConfig

#: Control-message loss rates swept (fraction of legs dropped).
FULL_LOSS_SWEEP = (0.0, 0.05, 0.1, 0.2)
QUICK_LOSS_SWEEP = (0.0, 0.1)
#: Fault-injection window and run horizon.  The horizon leaves room for
#: the longest disconnect to lift and the reconciler to drain all drift —
#: at 20% loss a transaction's tail can spend tens of seconds behind an
#: open circuit breaker (one probe per second, backed-off timeouts), and
#: the run must outlive it to record the epoch's convergence.
FULL_WINDOW = (5.0, 18.0)
FULL_HORIZON = 56.0
QUICK_WINDOW = (3.0, 10.0)
QUICK_HORIZON = 24.0
TOPOLOGY = "internet2"


def _scenario(loss_rate: float, quick: bool) -> Scenario:
    """A small data-plane schedule, so recovery must push real deltas, and
    two switch disconnects on a channel losing ``loss_rate`` of its legs."""
    window = QUICK_WINDOW if quick else FULL_WINDOW
    return Scenario(
        horizon=QUICK_HORIZON if quick else FULL_HORIZON,
        day0=partial(replay_day0, TOPOLOGY),
        faults=ChaosConfig(
            link_flaps=1,
            host_crashes=0,
            vnf_crashes=1,
            brownouts=0,
            window=window,
            flap_duration=(4.0, 7.0),
        ),
        loss=SouthboundChaosConfig(
            loss_rate=loss_rate,
            extra_delay_mean=0.01,
            disconnects=2,
            window=window,
            disconnect_duration=(1.5, 4.0),
        ),
    )


def _southbound_row(loss_rate: float, seed: int = 0, quick: bool = False) -> list:
    """One chaos run at one loss rate; deterministic in (loss, seed)."""
    result = play(_scenario(loss_rate, quick), seed)
    sb = result.metrics["southbound"]
    convergences = sb["convergences"]
    mean_latency = (
        round(sum(c["latency"] for c in convergences) / len(convergences), 6)
        if convergences
        else None
    )
    return [
        f"{loss_rate:.0%}",
        sb["messages_sent"],
        sb["messages_lost"],
        sb["retries"],
        sb["timeouts"],
        sb["circuit_opens"],
        sum(sb["transactions"].values()),
        sb["rollback_ops"],
        sb["reconcile_repairs"],
        result.reconvergences,
        mean_latency,
        result.metrics["downtime_seconds"],
        result.metrics["policy_violation_seconds"],
        int(result.summary["drift"]),
        "OK" if result.final_verify_ok else "FAIL",
    ]


def run(seed: int = 0, quick: bool = False, jobs: Jobs = 1) -> ExperimentResult:
    """Loss-rate sweep of the resilient southbound channel.

    Args:
        seed: run seed; channel draws, disconnect schedule, data-plane
            faults and traffic all ride independent derived substreams,
            so every row is bit-identical for a fixed seed.
        quick: smoke scale — two loss rates, shorter horizon.
        jobs: worker processes (one loss rate per worker).
    """
    sweep = QUICK_LOSS_SWEEP if quick else FULL_LOSS_SWEEP
    rows: List[list] = parallel_map(
        partial(_southbound_row, seed=seed, quick=quick), sweep, jobs=jobs
    )
    return ExperimentResult(
        experiment="southbound-chaos",
        description=(
            f"lossy acked rule installs + 2 switch disconnects (seed {seed})"
        ),
        paper_expectation=(
            "make-before-break holds under control-plane chaos: zero "
            "policy-violation-seconds from partial installs at every loss "
            "rate, and the reconciler drains all drift by run end"
        ),
        columns=[
            "Loss",
            "Msgs",
            "Lost",
            "Retries",
            "Timeouts",
            "CircOpen",
            "Txns",
            "Rollback ops",
            "Repairs",
            "Reconv",
            "Conv (s)",
            "Downtime (s)",
            "PV-seconds",
            "Drift",
            "Verify",
        ],
        rows=rows,
        notes=(
            "Conv (s) = mean push → zero-drift latency across desired-state "
            "epochs; Repairs counts anti-entropy passes that fixed drift "
            "(lost rollbacks, partial deletes, disconnect backlogs); Drift "
            "is the op-count gap between installed and desired state at the "
            "horizon (must be 0)."
        ),
    )
