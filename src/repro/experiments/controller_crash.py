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
  on installed rules while the controller is dead; a fixed-cadence probe
  loop (one probe per sub-class hash midpoint) scores VNF-traversal
  order every tick and must see zero policy-violation-seconds, crashed
  or not;
* **bounded recovery** — downtime is the injected fault duration, and
  catch-up (every pre-crash intent terminal again, zero southbound
  drift) lands within the run horizon.

The whole crash schedule lives on ``derive(seed, "chaos.controller")``
(see :func:`repro.chaos.schedule.generate_controller_crashes`), so
enabling crashes never perturbs the intent schedule — which is exactly
why the signatures can be compared at all.  ``tests/test_resilience.py``
reuses :func:`run_once` to recover from crashes under several checkpoint
intervals and journal lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.chaos.metrics import PROBE_INTERVAL
from repro.chaos.schedule import (
    ControllerCrashConfig,
    FaultEvent,
    generate_controller_crashes,
)
from repro.dataplane.packet import Packet
from repro.experiments.harness import ExperimentResult
from repro.experiments.multi_tenant import generate_intents
from repro.obs.collectors import collect_resilience
from repro.resilience import MemoryJournal, RecoveryEvent, ResilienceMetrics, recover
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRNG, derive
from repro.tenancy import CreateChain, TenantOrchestrator
from repro.topology.datasets import internet2
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
#: Catch-up monitor cadence after each recovery.
CATCHUP_POLL = 0.1
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


class TenantProbes:
    """Fixed-cadence data-plane probes across every tenant deployment.

    Each tick injects one probe at every sub-class hash midpoint of every
    converged tenant deployment and scores VNF-traversal order against
    the tenant's policy chain (the :class:`repro.chaos.metrics.ProbeLoop`
    idiom, widened to the multi-tenant orchestrator).  A tick with any
    out-of-order traversal accrues one probe interval of
    policy-violation-seconds; ticks inside a controller-downtime window
    accrue into ``downtime_pv_seconds`` as well — the number the crash
    experiment must report as zero.

    ``holder["orch"]`` indirection lets recovery swap in the rebuilt
    orchestrator without re-arming the timer (probe cadence is part of
    the deterministic timeline).
    """

    def __init__(
        self, sim: Simulator, holder: Dict[str, TenantOrchestrator]
    ) -> None:
        self.sim = sim
        self.holder = holder
        self.down = False
        self.ticks = 0
        self.sent = 0
        self.delivered = 0
        self.pv_seconds = 0.0
        self.downtime_pv_seconds = 0.0
        self._timer = None

    def start(self) -> None:
        self._timer = self.sim.every(PROBE_INTERVAL, self.tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def tick(self) -> None:
        now = self.sim.now
        self.ticks += 1
        violations = 0
        orch = self.holder["orch"]
        for tenant_id in sorted(orch.workers):
            worker = orch.workers[tenant_id]
            deployment = worker.deployment
            if deployment is None:
                continue
            for cls in deployment.plan.classes:
                if cls.class_id.split("/", 1)[1] not in worker.chains:
                    # Delete in flight: the class left the committed
                    # blueprint before the teardown push started, so its
                    # traffic legitimately rides default forwarding.
                    continue
                for sub in deployment.subclass_plan.subclasses(cls.class_id):
                    lo, hi = sub.hash_range
                    if hi <= lo:
                        continue
                    self.sent += 1
                    packet = Packet(
                        class_id=cls.class_id,
                        flow_hash=(lo + hi) / 2.0,
                        src=cls.src,
                        dst=cls.dst,
                    )
                    record = deployment.network.inject(packet, now=now)
                    if not record.delivered:
                        # Mid-transition or torn down: black holes are a
                        # liveness cost, never a policy violation.
                        continue
                    self.delivered += 1
                    visited = [v.split("[")[0] for v in packet.vnfs_visited()]
                    if visited != list(cls.chain.names):
                        violations += 1
        if violations:
            self.pv_seconds += PROBE_INTERVAL
            if self.down:
                self.downtime_pv_seconds += PROBE_INTERVAL


@dataclass
class RunOutcome:
    """One full platform history, crashed or not."""

    signature: str
    journal_signature: str
    summary: Dict[str, float]
    pv_seconds: float
    downtime_pv_seconds: float
    probes_sent: int
    probes_delivered: int
    recoveries: List[RecoveryEvent] = field(default_factory=list)
    journal: Optional[MemoryJournal] = None


def run_once(
    tenants: int,
    burst: int,
    seed: int,
    events: Sequence[FaultEvent] = (),
    checkpoint_interval: float = CHECKPOINT_INTERVAL,
    horizon: float = HORIZON,
    metrics: Optional[ResilienceMetrics] = None,
) -> RunOutcome:
    """One journaled run, with controller crashes at ``events`` times.

    Every crash kills the controller (``orch.crash()``), leaves the data
    plane forwarding for the event's ``duration``, then recovers a fresh
    orchestrator from the journal — re-adopting the harvested wire state
    through the anti-entropy reconciler — and swaps it in.  A per-crash
    catch-up monitor records when every pre-crash intent is terminal
    again with zero southbound drift.
    """
    topo = internet2(default_host_cores=_host_cores(tenants + burst))
    sim = Simulator(seed=seed)
    orch = TenantOrchestrator(topo, sim, seed=seed)
    journal = MemoryJournal(seed=seed)
    orch.attach_journal(journal, checkpoint_interval=checkpoint_interval)
    if obs.REGISTRY.enabled:
        obs.REGISTRY.max_series = max(
            obs.REGISTRY.max_series, tenants + burst + 64
        )
    orch.start()
    pops = sorted(topo.hosts)
    for delay, intent in generate_intents(tenants, pops, seed):
        orch.submit(intent, delay=delay)
    for delay, intent in generate_burst(burst, pops, seed):
        orch.submit(intent, delay=delay)

    holder: Dict[str, TenantOrchestrator] = {"orch": orch}
    probes = TenantProbes(sim, holder)
    probes.start()
    recoveries: List[RecoveryEvent] = []

    def monitor_catchup(event: RecoveryEvent) -> None:
        state: Dict[str, object] = {"timer": None}

        def poll() -> None:
            current = holder["orch"]
            pending = any(
                not r.terminal
                for r in current.bus.records
                if r.submitted_at <= event.crash_time
            )
            if pending or current.total_drift() != 0:
                return
            event.caught_up_at = sim.now
            if state["timer"] is not None:
                state["timer"].cancel()

        state["timer"] = sim.every(CATCHUP_POLL, poll)

    def crash(ev: FaultEvent) -> None:
        crash_time = sim.now
        harvest = holder["orch"].crash()
        probes.down = True
        if metrics is not None:
            metrics.record_crash()
        if obs.REGISTRY.enabled:
            obs.metric("resilience_crashes_total").inc()
            obs.metric("resilience_downtime_seconds_total").inc(ev.duration)

        def come_back() -> None:
            recovered, report = recover(
                journal,
                topo,
                sim,
                seed=seed,
                harvest=harvest,
                checkpoint_interval=checkpoint_interval,
            )
            holder["orch"] = recovered
            probes.down = False
            event = RecoveryEvent(
                crash_time=crash_time,
                recovered_at=sim.now,
                checkpoint_time=report.checkpoint_time,
                journal_records=report.journal_records,
                replayed=report.replayed,
                skipped=report.skipped,
                tenants_restored=report.tenants_restored,
                tenants_rebuilt=report.tenants_rebuilt,
                wall_seconds=report.wall_seconds,
            )
            recoveries.append(event)
            if metrics is not None:
                metrics.record_recovery(event)
            monitor_catchup(event)

        sim.schedule(ev.duration, come_back)

    for ev in sorted(events, key=lambda e: e.time):
        sim.schedule(ev.time, crash, args=(ev,))

    sim.run(until=horizon)
    final = holder["orch"]
    final.stop()
    probes.stop()
    if metrics is not None:
        metrics.snapshot_journal(journal)
    return RunOutcome(
        signature=final.state_signature(),
        journal_signature=journal.signature(),
        summary=final.metrics_summary(),
        pv_seconds=round(probes.pv_seconds, 9),
        downtime_pv_seconds=round(probes.downtime_pv_seconds, 9),
        probes_sent=probes.sent,
        probes_delivered=probes.delivered,
        recoveries=recoveries,
        journal=journal,
    )


def _row(label, out: RunOutcome, base: Optional[RunOutcome]) -> list:
    if out.recoveries:
        crash_ts = "+".join(f"{ev.crash_time:.2f}" for ev in out.recoveries)
        down = round(sum(ev.downtime for ev in out.recoveries), 3)
        ckpt_age = round(
            max(ev.crash_time - ev.checkpoint_time for ev in out.recoveries), 3
        )
        replayed = sum(ev.replayed for ev in out.recoveries)
        skipped = sum(ev.skipped for ev in out.recoveries)
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
        journal_len = out.recoveries[-1].journal_records
    else:
        crash_ts, down, ckpt_age, replayed, skipped, catchup = (
            "-", 0.0, "-", 0, 0, "-",
        )
        journal_len = len(out.journal) if out.journal is not None else 0
    match = "ref" if base is None else (
        "yes" if out.signature == base.signature else "NO"
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
        out.pv_seconds,
        out.downtime_pv_seconds,
        out.signature,
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
    metrics = ResilienceMetrics()

    base = run_once(tenants, burst, seed)
    if base.summary["queued_grants"] != 0:
        raise RuntimeError(
            "controller-crash baseline is capacity-starved "
            f"(queued_grants={base.summary['queued_grants']}); "
            "raise _host_cores"
        )
    rows = [_row("baseline", base, None)]

    outcomes: List[RunOutcome] = []
    for i, ev in enumerate(schedule):
        out = run_once(tenants, burst, seed, events=(ev,), metrics=metrics)
        outcomes.append(out)
        rows.append(_row(f"crash#{i + 1}", out, base))
        if out.signature != base.signature:
            raise RuntimeError(
                f"recovery diverged at crash t={ev.time}: "
                f"{out.signature} != {base.signature}"
            )
        if out.downtime_pv_seconds != 0.0:
            raise RuntimeError(
                f"policy violations during downtime at crash t={ev.time}: "
                f"{out.downtime_pv_seconds}s"
            )
    combined = run_once(
        tenants, burst, seed, events=tuple(schedule), metrics=metrics
    )
    rows.append(_row("all-crashes", combined, base))
    if combined.signature != base.signature:
        raise RuntimeError(
            "recovery diverged with the full crash schedule: "
            f"{combined.signature} != {base.signature}"
        )

    # Determinism check: rerun the first crashed row; state AND journal
    # signatures must both reproduce bit for bit.
    rerun = run_once(tenants, burst, seed, events=(schedule.events[0],))
    identical = (
        rerun.signature == outcomes[0].signature
        and rerun.journal_signature == outcomes[0].journal_signature
    )

    if obs.REGISTRY.enabled:
        collect_resilience(metrics)

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
