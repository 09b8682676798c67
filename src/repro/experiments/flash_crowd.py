"""Flash crowd: elastic autoscaling + admission control under spikes.

Sweeps DDoS-shaped traffic spikes (trapezoid ramp/hold/decay, seeded
targets) against a live deployment with the elastic loop armed.  The
loop scales out as the spike ramps, sheds or rate-degrades the cheapest
flows when even a full scale-out cannot absorb the peak, drains retired
instances after the spike decays, and re-admits shed flows — all
through the southbound fabric's make-before-break pushes, with the
probe loop auditing policy and interference the whole time.

The acceptance bar: **zero policy-violation-seconds at every
amplitude** — shedding goes through ingress quarantine, so an overloaded
run degrades availability (drops at the ingress DROP), never correctness
— plus bounded time-to-absorb and bit-identical reruns per (seed,
amplitude).
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import List, Tuple

from repro.elastic.loop import HYSTERESIS
from repro.experiments.harness import ExperimentResult
from repro.experiments.scenario import Scenario, World, replay_day0
from repro.obs.collectors import collect_elastic
from repro.traffic.flashcrowd import FlashCrowdConfig

#: Peak spike multipliers swept.  The top amplitude is sized to outrun
#: every possible scale-out on the quick-replay capacity, forcing the
#: admission oracle to shed (the Shed column must be non-zero there).
FULL_AMPLITUDES = (2.0, 4.0, 8.0)
QUICK_AMPLITUDES = (2.0, 8.0)
FULL_HORIZON = 30.0
QUICK_HORIZON = 20.0
TOPOLOGY = "internet2"


def _scenario(amplitude: float, quick: bool) -> Scenario:
    """The day 0 under spikes of peak ``amplitude`` (one spike when quick).

    No fault: the worker's default fabric, loss-free, drains what
    scale-in retires."""
    return Scenario(
        horizon=QUICK_HORIZON if quick else FULL_HORIZON,
        day0=partial(replay_day0, TOPOLOGY),
        flash=FlashCrowdConfig(
            spikes=1 if quick else 2,
            amplitude=(amplitude, amplitude),
            window=(3.0, 6.0) if quick else (4.0, 10.0),
            ramp=(1.0, 2.0),
            hold=(3.0, 5.0),
            decay=(1.0, 2.0),
            target_fraction=0.4,
        ),
    )


def _flash_row(
    amplitude: float, seed: int = 0, quick: bool = False
) -> Tuple[list, str]:
    """One flash-crowd run; returns (table row, rerun signature)."""
    world = World(_scenario(amplitude, quick), seed)
    result = world.play()
    schedule = world.spikes
    em = world.elastic.metrics
    high = HYSTERESIS.high_watermark
    absorb = em.time_to_absorb(schedule.windows(), high)
    absorb_max = max((a for a in absorb if a is not None), default=0.0)
    unabsorbed = sum(1 for a in absorb if a is None)
    collect_elastic(em, absorb_seconds=[a for a in absorb if a is not None])
    verify_ok = result.final_verify_ok and all(
        a.verify_ok in (True, None) for a in em.actions
    )
    blob = f"{em.signature()}:{result.signature()}:{schedule.signature()}"
    signature = hashlib.sha256(blob.encode()).hexdigest()[:16]
    row = [
        f"{amplitude:.0f}x",
        len(schedule.events),
        em.scale_out_total,
        em.scale_in_total,
        em.resolves_warm,
        em.drained_total,
        em.degraded_total,
        em.shed_total,
        round(em.slo_violation_seconds, 2),
        round(absorb_max, 2) if not unabsorbed else "unbounded",
        result.metrics["downtime_seconds"],
        result.metrics["policy_violation_seconds"],
        int(result.summary["drift"]),
        "OK" if verify_ok else "FAIL",
    ]
    return row, signature


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Spike-amplitude sweep of the elastic loop.

    Args:
        seed: run seed; the spike schedule, placement and every scaling
            decision derive from it, so rows rerun bit-identically (the
            first amplitude is rerun and compared to prove it).
        quick: smoke scale — one spike, two amplitudes, short horizon.
    """
    sweep = QUICK_AMPLITUDES if quick else FULL_AMPLITUDES
    rows: List[list] = []
    signatures: List[str] = []
    for amplitude in sweep:
        row, sig = _flash_row(amplitude, seed=seed, quick=quick)
        rows.append(row)
        signatures.append(sig)
    # Determinism audit: rerun the first amplitude, bit-identical.
    _, sig2 = _flash_row(sweep[0], seed=seed, quick=quick)
    identical = sig2 == signatures[0]
    return ExperimentResult(
        experiment="flash-crowd",
        description=(
            f"elastic autoscaling under DDoS-shaped spikes (seed {seed})"
        ),
        paper_expectation=(
            "the loop absorbs every spike it has capacity for (scale-out, "
            "then scale-in + drain after decay) and sheds cheapest-first "
            "when it does not — with zero policy-violation-seconds at "
            "every amplitude"
        ),
        columns=[
            "Amplitude",
            "Spikes",
            "Out",
            "In",
            "Warm",
            "Drained",
            "Degraded",
            "Shed",
            "SLO-viol (s)",
            "Absorb (s)",
            "Downtime (s)",
            "PV-seconds",
            "Drift",
            "Verify",
        ],
        rows=rows,
        notes=(
            "Absorb (s) = worst spike-start → back-under-watermark latency; "
            "Drained counts instances shut down at epoch convergence after "
            "scale-in; Degraded/Shed are admission-oracle verdicts "
            "(cheapest SLO weight first, ingress-quarantined, re-admitted "
            "after the spike). Rerun of the first amplitude was "
            + ("bit-identical." if identical else "NOT bit-identical!")
        ),
    )
