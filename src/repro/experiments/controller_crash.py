"""Controller crash tolerance: journal + checkpoint + deterministic recovery.

Kills the multi-tenant controller at seeded points while churny tenant
intents and a flash-crowd burst of gold creates are in flight, then
recovers it from the write-ahead journal (``repro.resilience``) and
proves the three crash-tolerance invariants:

* **bit-identical recovery** — for every seeded crash point the
  recovered run's final ``state_signature()`` equals the signature of a
  run that never crashed (checkpoint restore + exactly-once replay +
  anti-entropy re-adoption reconstruct the same platform history);
* **zero PV-seconds during downtime** — the data plane keeps forwarding
  on installed rules while the controller is dead; the probe loop (one
  probe per sub-class hash midpoint of every tenant) scores chain order
  and the live path every tick and must see zero
  policy-violation-seconds, crashed or not;
* **bounded recovery** — downtime is the injected fault duration, and
  catch-up (every pre-crash intent terminal again, zero southbound
  drift) lands within the run horizon.

The whole crash schedule lives on ``derive(seed, "chaos.controller")``
(see :func:`repro.chaos.schedule.generate_controller_crashes`), so
enabling crashes never perturbs the intent schedule — which is exactly
why the signatures can be compared at all.  ``tests/test_resilience.py``
plays :func:`history` to recover from crashes under several checkpoint
intervals and journal lengths.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.chaos.schedule import (
    ControllerCrashConfig,
    FaultEvent,
    generate_controller_crashes,
)
from repro.experiments.harness import ExperimentResult
from repro.experiments.multi_tenant import generate_intents
from repro.experiments.scenario import RunResult, Scenario, play
from repro.sim.rng import SeededRNG, derive
from repro.tenancy import CreateChain, Intent
from repro.topology.datasets import internet2
from repro.topology.graph import Topology
from repro.vnf.chains import STANDARD_CHAINS

#: (tenants, burst creates, controller crashes) per mode.
FULL_SCALE = (10, 4, 3)
QUICK_SCALE = (5, 3, 2)
#: Run horizon (matches the multi-tenant churn experiment).
HORIZON = 45.0
#: Checkpoint cadence for every run in this experiment (sim seconds).
CHECKPOINT_INTERVAL = 4.0
#: Flash-crowd burst: gold CreateChains land inside this window, on
#: their own substream so the base churn schedule stays untouched.
BURST_WINDOW = (16.0, 19.0)
BURST_STREAM = "resilience.burst"
TOPOLOGY = "internet2"


def _host_cores(principals: int) -> int:
    """Per-PoP cores generous enough that no grant ever queues.

    Parked admissions wait on arbiter timers that ``crash()`` kills; they
    recover fine through replay, but keeping them out of this experiment
    makes every row's Done/Rej/Fail counts a pure function of the intent
    schedule (the baseline asserts ``queued_grants == 0``).
    """
    return max(192, 24 * principals)


def generate_burst(
    burst: int, pops: Sequence[str], seed: int
) -> List[Tuple[float, CreateChain]]:
    """Seeded flash-crowd creates on ``derive(seed, "resilience.burst")``."""
    rng = SeededRNG(derive(seed, BURST_STREAM))
    out: List[Tuple[float, CreateChain]] = []
    for i in range(burst):
        t = rng.uniform(*BURST_WINDOW)
        src, dst = rng.choice(pops, size=2, replace=False)
        chain = tuple(rng.choice(STANDARD_CHAINS))
        rate = round(rng.uniform(200.0, 500.0), 3)
        out.append(
            (
                t,
                CreateChain(
                    f"b{i:03d}",
                    chain_id="c0",
                    src=src,
                    dst=dst,
                    chain=chain,
                    rate_mbps=rate,
                    slo="gold",
                ),
            )
        )
    out.sort(key=lambda pair: pair[0])
    return out


def churn_and_burst(
    tenants: int, burst: int, seed: int
) -> Tuple[Topology, List[Tuple[float, Intent]]]:
    """Internet2 with cores to spare, the seeded churn, then the burst."""
    topo = internet2(default_host_cores=_host_cores(tenants + burst))
    pops = sorted(topo.hosts)
    return topo, generate_intents(tenants, pops, seed) + generate_burst(
        burst, pops, seed
    )


def history(
    tenants: int,
    burst: int,
    crashes: Sequence[FaultEvent] = (),
    checkpoint_interval: float = CHECKPOINT_INTERVAL,
) -> Scenario:
    """One journaled history, with controller crashes at ``crashes``.

    Every crash kills the controller, leaves the data plane forwarding for
    the event's ``duration``, then recovers a fresh orchestrator from the
    journal (re-adopting the harvested wire through the anti-entropy
    reconciler) and swaps it in; a catch-up monitor records when every
    pre-crash intent is terminal again with zero southbound drift.
    """
    return Scenario(
        horizon=HORIZON,
        intents=partial(churn_and_burst, tenants, burst),
        crashes=tuple(crashes),
        checkpoint_interval=checkpoint_interval,
    )


def _row(label, out: RunResult, base: Optional[RunResult]) -> list:
    if out.recoveries:
        crash_ts = "+".join(f"{ev.crash_time:.2f}" for ev in out.recoveries)
        down = round(sum(ev.downtime for ev in out.recoveries), 3)
        ckpt_age = round(
            max(ev.crash_time - ev.report.checkpoint_time for ev in out.recoveries),
            3,
        )
        replayed = sum(ev.report.replayed for ev in out.recoveries)
        skipped = sum(ev.report.skipped for ev in out.recoveries)
        catchups = [
            ev.caught_up_at - ev.crash_time
            for ev in out.recoveries
            if ev.caught_up_at is not None
        ]
        catchup = (
            round(max(catchups), 3)
            if len(catchups) == len(out.recoveries)
            else "never"
        )
        journal_len = out.recoveries[-1].report.journal_records
    else:
        crash_ts, down, ckpt_age, replayed, skipped, catchup = (
            "-", 0.0, "-", 0, 0, "-",
        )
        journal_len = len(out.journal) if out.journal is not None else 0
    match = "ref" if base is None else (
        "yes" if out.state_signature == base.state_signature else "NO"
    )
    return [
        label,
        crash_ts,
        down,
        ckpt_age,
        journal_len,
        replayed,
        skipped,
        catchup,
        int(out.summary["completed"]),
        int(out.summary["failed"]),
        out.metrics["policy_violation_seconds"],
        out.downtime_pv_seconds,
        out.state_signature,
        match,
    ]


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Controller-crash sweep: every seeded crash point, then all at once.

    Args:
        seed: run seed; intents, burst, crash times and downtimes all ride
            derived substreams — same seed, same crashed platform history,
            bit for bit.
        quick: smoke scale (5 tenants + 3 burst creates, 2 crashes).
    """
    tenants, burst, crashes = QUICK_SCALE if quick else FULL_SCALE
    schedule = generate_controller_crashes(
        ControllerCrashConfig(crashes=crashes), seed
    )
    base = play(history(tenants, burst), seed)
    if base.summary["queued_grants"] != 0:
        raise RuntimeError(
            "controller-crash baseline is capacity-starved "
            f"(queued_grants={base.summary['queued_grants']}); "
            "raise _host_cores"
        )
    rows = [_row("baseline", base, None)]

    outcomes: List[RunResult] = []
    for i, ev in enumerate(schedule):
        out = play(history(tenants, burst, (ev,)), seed)
        outcomes.append(out)
        rows.append(_row(f"crash#{i + 1}", out, base))
        if out.state_signature != base.state_signature:
            raise RuntimeError(
                f"recovery diverged at crash t={ev.time}: "
                f"{out.state_signature} != {base.state_signature}"
            )
        if out.downtime_pv_seconds != 0.0:
            raise RuntimeError(
                f"policy violations during downtime at crash t={ev.time}: "
                f"{out.downtime_pv_seconds}s"
            )
    combined = play(history(tenants, burst, schedule.events), seed)
    rows.append(_row("all-crashes", combined, base))
    if combined.state_signature != base.state_signature:
        raise RuntimeError(
            "recovery diverged with the full crash schedule: "
            f"{combined.state_signature} != {base.state_signature}"
        )

    # Determinism check: rerun the first crashed row; state AND journal
    # signatures must both reproduce bit for bit.
    rerun = play(history(tenants, burst, schedule.events[:1]), seed)
    identical = (
        rerun.state_signature == outcomes[0].state_signature
        and rerun.journal.signature() == outcomes[0].journal.signature()
    )

    return ExperimentResult(
        experiment="controller-crash",
        description=(
            f"{tenants} churny tenants + {burst} flash-crowd creates on "
            f"{TOPOLOGY}, controller killed at {len(schedule)} seeded "
            f"points (seed {seed}); rerun of crash#1 bit-identical "
            f"(state + journal): {'yes' if identical else 'NO'}"
        ),
        paper_expectation=(
            "write-ahead journal + checkpoint/restore + anti-entropy "
            "re-adoption make controller crashes invisible to tenants: "
            "recovered state_signature equals the never-crashed run at "
            "every crash point, zero policy-violation-seconds while the "
            "controller is down, catch-up bounded within the run"
        ),
        columns=[
            "Run",
            "Crash t (s)",
            "Down (s)",
            "Ckpt age (s)",
            "Journal",
            "Replay",
            "Skip",
            "Catch-up (s)",
            "Done",
            "Fail",
            "PV (s)",
            "DT-PV (s)",
            "Signature",
            "Match",
        ],
        rows=rows,
        notes=(
            "Each crash row is an independent run crashing at one seeded "
            "point; all-crashes takes the full schedule in a single run. "
            "Ckpt age = crash time minus the restored checkpoint's time; "
            "Replay/Skip = journaled intents redelivered vs already "
            "terminal at the checkpoint (exactly-once cookies); Catch-up "
            "= seconds from crash until every pre-crash intent is "
            "terminal again with zero drift; PV (s) = probe-scored "
            "policy-violation-seconds over the whole run, DT-PV the "
            "slice during controller downtime (both must be 0); Match "
            "compares final state signatures against the baseline."
        ),
    )
