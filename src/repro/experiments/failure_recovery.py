"""Failure recovery (headline failure study): live chaos runs per topology.

Supersedes the offline failure sweep as the headline failure experiment:
instead of killing instances *between* replay snapshots, a deterministic
fault schedule (link flaps, a host crash, VNF crashes, a brownout) is
injected into a *live* simulation; a heartbeat detector notices, and the
controller re-places, commits the new rules as an acked make-before-break
epoch on the (default, loss-free) southbound fabric, and re-verifies at
convergence — while a probe loop measures downtime, black-holed traffic and policy-violation-seconds
from the data plane's point of view.

The acceptance bar is the paper's interference-freedom claim under churn:
after every convergence (and at the end of the run) the deployment must
show **zero policy violations and zero interference** on both Internet2
and GEANT.
"""

from __future__ import annotations

from functools import partial
from typing import List, Sequence

from repro.chaos import ChaosConfig
from repro.experiments.harness import ExperimentResult, parallel_map
from repro.experiments.scenario import Scenario, play, replay_day0
from repro.parallel import Jobs

#: Injection window and run horizon (full scale).  The horizon leaves room
#: for the longest flap (window end + max flap duration) to lift, be
#: re-detected, and converge back onto primary paths.
FULL_WINDOW = (5.0, 45.0)
FULL_HORIZON = 75.0
QUICK_WINDOW = (3.0, 10.0)
QUICK_HORIZON = 22.0


def _scenario(topology: str, quick: bool) -> Scenario:
    """The topology's day 0 under the fault mix (two faults when quick)."""
    if quick:
        faults = ChaosConfig(
            link_flaps=1,
            host_crashes=0,
            vnf_crashes=1,
            brownouts=0,
            window=QUICK_WINDOW,
            flap_duration=(4.0, 7.0),
        )
    else:
        faults = ChaosConfig(window=FULL_WINDOW)
    return Scenario(
        horizon=QUICK_HORIZON if quick else FULL_HORIZON,
        day0=partial(replay_day0, topology),
        faults=faults,
    )


def _recovery_row(topology: str, seed: int = 0, quick: bool = False) -> list:
    """One chaos run on one topology; deterministic in (topology, seed)."""
    result = play(_scenario(topology, quick), seed)
    m = result.metrics
    flow_mods = sum(c["flow_mods"] for c in m["convergences"])
    warm = sum(1 for c in m["convergences"] if c["warm_start"])
    return [
        topology,
        result.faults_injected,
        result.faults_detected,
        m["mean_detection_latency"],
        m["mean_time_to_repair"],
        m["max_time_to_repair"],
        m["downtime_seconds"],
        result.network_stats.dropped,
        m["policy_violation_seconds"],
        result.reconvergences,
        flow_mods,
        warm,
        result.final_policy_violations,
        result.final_interference_violations,
        "OK" if result.final_verify_ok else "FAIL",
    ]


def run(
    topologies: Sequence[str] = ("internet2", "geant"),
    seed: int = 0,
    quick: bool = False,
    jobs: Jobs = 1,
) -> ExperimentResult:
    """Chaos run per topology: inject, detect, recover, verify.

    Args:
        seed: the run seed; the fault schedule, traffic synthesis and
            solver rounding draw from independent derived substreams, so
            the whole run is bit-identical for a fixed seed.
        quick: smoke scale — Internet2 only, two faults, short horizon.
        jobs: worker processes (one topology per worker).
    """
    if quick:
        topologies = ("internet2",)
    rows: List[list] = parallel_map(
        partial(_recovery_row, seed=seed, quick=quick), topologies, jobs=jobs
    )
    return ExperimentResult(
        experiment="failure-recovery",
        description=f"live fault injection → detection → recovery (seed {seed})",
        paper_expectation=(
            "interference-free policy enforcement holds under churn: zero "
            "policy violations and zero interference after every convergence"
        ),
        columns=[
            "Topology",
            "Faults",
            "Detected",
            "Mean detect (s)",
            "Mean TTR (s)",
            "Max TTR (s)",
            "Downtime (s)",
            "Pkts dropped",
            "PV-seconds",
            "Reconv",
            "Flow mods",
            "Warm",
            "Policy viol",
            "Interf viol",
            "Final verify",
        ],
        rows=rows,
        notes=(
            "TTR = fault applied → epoch converged (acked make-before-break "
            "round trips included); Flow mods = southbound ops of the "
            "recovery epochs; downtime integrates "
            "probe intervals with at least one black-holed probe; PV-seconds "
            "integrates intervals where a delivered probe violated its "
            "policy chain or registered path."
        ),
    )
