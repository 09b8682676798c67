"""Crash tolerance: journal, checkpoint/restore, deterministic recovery."""

import json
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from repro.chaos.schedule import (
    CONTROLLER_DOWNTIME,
    ControllerCrashConfig,
    FaultKind,
    generate_controller_crashes,
)
from repro.experiments.controller_crash import history
from repro.experiments.scenario import play
from repro.resilience import (
    CHECKPOINT,
    COMMIT,
    INTENT,
    SHUTDOWN,
    FileJournal,
    MemoryJournal,
    recover,
)
from repro.resilience.checkpoint import capture
from repro.resilience.journal import EPOCH, KINDS, record_id
from repro.sim.kernel import Simulator
from repro.tenancy import (
    CreateChain,
    DeleteChain,
    Replan,
    ScaleChain,
    TenantOrchestrator,
    UpdateRates,
)
from repro.tenancy.bus import IntentBus
from repro.tenancy.intents import intent_from_payload, intent_to_payload
from repro.topology.datasets import internet2

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import churn_counts  # noqa: E402

SEED = 3


# ---------------------------------------------------------------------------
# Journal backends
# ---------------------------------------------------------------------------
def test_journal_append_derives_seeded_ids():
    journal = MemoryJournal(seed=7)
    a = journal.append(INTENT, {"seq": 0}, time=1.0)
    b = journal.append(COMMIT, {"seq": 0}, time=2.0)
    assert a.index == 0 and b.index == 1
    assert a.record_id == record_id(7, 0, INTENT)
    assert b.record_id == record_id(7, 1, COMMIT)
    assert Counter(rec.kind for rec in journal) == {INTENT: 1, COMMIT: 1}
    assert journal.of_kind(COMMIT) == [b]


def test_journal_rejects_unknown_kind():
    journal = MemoryJournal()
    with pytest.raises(ValueError, match="unknown journal record kind"):
        journal.append("nonsense", {})


def test_journal_signature_is_seed_deterministic():
    def build(seed):
        j = MemoryJournal(seed=seed)
        for i, kind in enumerate(KINDS):
            j.append(kind, {"i": i}, time=float(i))
        return j

    assert build(5).signature() == build(5).signature()
    assert build(5).signature() != build(6).signature()


def test_last_checkpoint_returns_most_recent():
    journal = MemoryJournal()
    assert journal.last_checkpoint() is None
    journal.append(CHECKPOINT, {"n": 1})
    journal.append(INTENT, {"seq": 0})
    latest = journal.append(CHECKPOINT, {"n": 2})
    journal.append(COMMIT, {"seq": 0})
    assert journal.last_checkpoint() is latest


def test_file_journal_round_trips(tmp_path):
    path = tmp_path / "wal.jsonl"
    journal = FileJournal(path, seed=11)
    journal.append(INTENT, {"seq": 0, "cookie": "abc"}, time=0.5)
    journal.append(COMMIT, {"seq": 0, "status": "completed"}, time=1.5)

    loaded = FileJournal.load(path)
    assert loaded.seed == 11
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in journal]
    assert loaded.signature() == journal.signature()


def test_file_journal_load_rejects_corruption(tmp_path):
    path = tmp_path / "wal.jsonl"
    journal = FileJournal(path, seed=11)
    journal.append(INTENT, {"seq": 0}, time=0.5)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["record_id"] = "0" * 12
    path.write_text("\n".join([lines[0], json.dumps(rec)]) + "\n")
    with pytest.raises(ValueError, match="corrupt or wrong-seed"):
        FileJournal.load(path)

    bad_header = tmp_path / "bad.jsonl"
    bad_header.write_text(json.dumps({"schema": "not-a-wal"}) + "\n")
    with pytest.raises(ValueError, match="header"):
        FileJournal.load(bad_header)


# ---------------------------------------------------------------------------
# Intent codec + idempotency cookies
# ---------------------------------------------------------------------------
def test_intent_payload_round_trips_every_kind():
    intents = [
        CreateChain(
            "t0", chain_id="c0", src="ATLA", dst="STTL",
            chain=("firewall", "ids"), rate_mbps=123.456789, slo="gold",
        ),
        UpdateRates("t0", rates=(("c0", 250.5), ("c1", 80.25))),
        ScaleChain("t0", chain_id="c0", factor=1.5),
        DeleteChain("t0", chain_id="c0"),
        Replan("t0"),
        Replan("t0", rates=(("t0/c0", 40.125),)),
        Replan(
            "t0",
            rates=(("t0/c0", 40.125), ("t0/c1", 12.5)),
            victims=(("t0/c1", 0.25), ("t0/c0", 1.0)),
        ),
    ]
    for intent in intents:
        clone = intent_from_payload(intent_to_payload(intent))
        assert clone == intent, intent.kind


def test_bus_cookies_are_seed_deterministic():
    def cookies(seed):
        sim = Simulator(seed=seed)
        bus = IntentBus(sim, seed=seed)
        bus.subscribe(lambda record: None)
        return [
            bus.submit(ScaleChain("t0", chain_id="c0", factor=2.0)).cookie
            for _ in range(3)
        ]

    assert cookies(4) == cookies(4)
    assert cookies(4) != cookies(5)


def test_bus_journals_intent_before_delivery():
    sim = Simulator(seed=0)
    journal = MemoryJournal(seed=0)
    bus = IntentBus(sim, seed=0, journal=journal)
    delivered = []
    bus.subscribe(delivered.append)
    record = bus.submit(DeleteChain("t0", chain_id="c0"), delay=1.0)
    # Write-ahead: journaled at submit time, delivered only when sim runs.
    assert len(journal) == 1 and not delivered
    entry = journal.records[0]
    assert entry.kind == INTENT
    assert entry.payload["cookie"] == record.cookie
    assert intent_from_payload(entry.payload["intent"]) == record.intent
    sim.run(until=2.0)
    assert delivered == [record]


# ---------------------------------------------------------------------------
# Checkpoint capture
# ---------------------------------------------------------------------------
def test_checkpoint_capture_shape():
    out = play(history(2, 0), SEED)
    journal = out.journal
    checkpoints = journal.of_kind(CHECKPOINT)
    assert checkpoints, "periodic checkpoints never fired"
    snap = checkpoints[-1].payload
    for key in ("time", "seq", "terminal_cookies", "arbiter", "workers"):
        assert key in snap
    all_cookies = {r.payload["cookie"] for r in journal.of_kind(INTENT)}
    assert set(snap["terminal_cookies"]) <= all_cookies
    for worker_snap in snap["workers"].values():
        # "incumbent": the per-slot counts the settled plan was solved
        # against, present only when it was solved against one.
        assert set(worker_snap) - {"incumbent"} == {
            "slo", "ops_completed", "chains", "versions", "epoch",
            "converged_epoch",
        }
        for sw, nf, count in worker_snap.get("incumbent", ()):
            assert isinstance(sw, str) and isinstance(nf, str) and count > 0


# ---------------------------------------------------------------------------
# Crash → recover → bit-identical end state
# ---------------------------------------------------------------------------
def _crash_event(t, downtime=1.0):
    from repro.chaos.schedule import FaultEvent

    return FaultEvent(
        time=t, kind=FaultKind.CONTROLLER_CRASH,
        target="controller", duration=downtime,
    )


def test_crash_recovery_matches_never_crashed_run():
    base = play(history(3, 0), SEED)
    out = play(history(3, 0, (_crash_event(6.5),)), SEED)
    assert out.state_signature == base.state_signature
    # Intent latencies are the one legitimate difference: a replayed
    # intent's submit→converged span includes the outage.  Everything
    # else in the summary must match exactly.
    drop = ("latency_p50", "latency_p99")
    assert {k: v for k, v in out.summary.items() if k not in drop} == {
        k: v for k, v in base.summary.items() if k not in drop
    }
    assert out.downtime_pv_seconds == 0
    assert out.metrics["policy_violation_seconds"] == 0
    assert len(out.recoveries) == 1
    assert out.recoveries[0].caught_up_at is not None


def test_crash_recovery_is_exactly_once():
    """An intent committed after the checkpoint re-executes; one committed
    before it never double-applies — terminal outcome counts match."""
    base = play(history(3, 0), SEED)
    # Crash late enough that some intents are terminal both before and
    # after the restored checkpoint.
    out = play(history(3, 0, (_crash_event(14.0),)), SEED)
    report = out.recoveries[0].report
    assert report.skipped > 0, "no intent was terminal at checkpoint"
    assert report.replayed > 0, "nothing was replayed"
    assert out.summary["completed"] == base.summary["completed"]
    assert out.summary["failed"] == base.summary["failed"]
    assert out.state_signature == base.state_signature


def _assert_recovered(out, base):
    assert out.state_signature == base.state_signature
    assert out.downtime_pv_seconds == 0
    assert len(out.recoveries) == 1


@pytest.mark.parametrize("interval", [2.0, 8.0, 24.0])
def test_crash_recovers_under_every_checkpoint_cadence(interval):
    """One mid-churn crash (t = 18 s, seed 0) recovers to the never-crashed
    state whether the restored checkpoint is fresh or old."""
    base = play(history(5, 2, checkpoint_interval=interval), 0)
    out = play(history(5, 2, (_crash_event(18.0),), interval), 0)
    _assert_recovered(out, base)


def test_crash_recovers_however_long_the_journal():
    """Crashes later in the history (t = 12, 22, 32 s, seed 0) process a
    longer journal and still recover to the never-crashed state."""
    base = play(history(5, 2), 0)
    for t in (12.0, 22.0, 32.0):
        _assert_recovered(play(history(5, 2, (_crash_event(t),)), 0), base)


def _open_push_after(journal, t):
    """The time of the first push after ``t`` whose epoch converges later
    (a push that changes nothing on the wire converges at once)."""
    converged = {
        (rec.payload["tenant"], rec.payload["epoch"]): rec.time
        for rec in journal.of_kind(EPOCH)
        if rec.payload["event"] == "converged"
    }
    return next(
        rec.time for rec in journal.of_kind(EPOCH)
        if rec.payload["event"] == "push" and rec.time > t
        and converged[rec.payload["tenant"], rec.payload["epoch"]] > rec.time
    )


def test_mid_epoch_crash_leaves_running_instances_charged():
    """A crash while a push is on the wire harvests both epochs' instances.
    Recovery re-adopts them, and the first push after the restore retires
    the ones its rules no longer reference: at the horizon each host's
    running-instance cores equal the arbiter's steady charge and fit it."""
    base = play(history(5, 2), 0)
    pushed_at = _open_push_after(base.journal, 10.0)
    seen = {}
    crash, stop = TenantOrchestrator.crash, TenantOrchestrator.stop

    def crash_and_look(orch):
        seen["open"] = [
            t for t, w in sorted(orch.workers.items())
            if w.fabric is not None and w.fabric.epoch > w.fabric.converged_epoch
        ]
        return crash(orch)

    def look_and_stop(orch):
        if not orch.dead:
            seen["running"] = churn_counts.running_cores(orch)
            seen["steady"] = churn_counts.steady_cores(orch)
            seen["physical"] = orch.arbiter.physical
        return stop(orch)

    with mock.patch.object(TenantOrchestrator, "crash", crash_and_look), \
            mock.patch.object(TenantOrchestrator, "stop", look_and_stop):
        out = play(history(5, 2, (_crash_event(pushed_at + 0.01),)), 0)
    assert seen["open"], "the crash did not land while an epoch was open"
    _assert_recovered(out, base)
    assert seen["running"] == seen["steady"]
    assert all(c <= seen["physical"][h] for h, c in seen["running"].items())


def test_mid_epoch_crash_rebuilds_plans_against_the_checkpointed_incumbent():
    """A crash after a re-plan's push opens and before it converges: the
    checkpoint carries, per tenant, the make-before-break incumbent (q_old)
    its settled plan was solved against, recovery re-solves each plan with
    exactly the q_old and plan the live run had, and the recovered end
    state equals the never-crashed run's."""
    from repro.resilience import recovery
    from repro.tenancy.worker import TenantWorker

    base = play(history(5, 2), 0)
    pushed_at = _open_push_after(base.journal, 10.0)
    live, rebuilt, seen = [], [], {}
    solve, restore = TenantWorker.solve, recovery._restore_worker
    crash = TenantOrchestrator.crash

    def recorded(worker, classes, incumbent):
        realised = solve(worker, classes, incumbent)
        into = rebuilt if seen.get("restoring") else live
        into.append(
            (worker.tenant_id, sorted(incumbent.items()),
             sorted(realised[0].quantities.items()))
        )
        return realised

    def restoring(*args, **kwargs):
        seen["restoring"] = True
        try:
            return restore(*args, **kwargs)
        finally:
            seen["restoring"] = False

    def crash_and_look(orch):
        seen["open"] = [
            t for t, w in sorted(orch.workers.items())
            if w.fabric is not None and w.fabric.epoch > w.fabric.converged_epoch
        ]
        seen["checkpoint"] = orch.journal.last_checkpoint().payload
        return crash(orch)

    with mock.patch.object(TenantWorker, "solve", recorded), \
            mock.patch.object(recovery, "_restore_worker", restoring), \
            mock.patch.object(TenantOrchestrator, "crash", crash_and_look):
        out = play(history(5, 2, (_crash_event(pushed_at + 0.01),)), 0)
    assert seen["open"], "the crash did not land while an epoch was open"
    _assert_recovered(out, base)
    snaps = seen["checkpoint"]["workers"]
    assert any("incumbent" in snap for snap in snaps.values())
    assert rebuilt, "recovery rebuilt no plan"
    for tenant_id, incumbent, quantities in rebuilt:
        checkpointed = [
            ((sw, nf), n) for sw, nf, n in snaps[tenant_id].get("incumbent", ())
        ]
        assert incumbent == checkpointed
        # The live run solved this very plan against this very q_old.
        assert (tenant_id, incumbent, quantities) in live


def _small_world(seed=SEED):
    topo = internet2(default_host_cores=192)
    sim = Simulator(seed=seed)
    orch = TenantOrchestrator(topo, sim, seed=seed)
    journal = MemoryJournal(seed=seed)
    orch.attach_journal(journal, checkpoint_interval=4.0)
    orch.start()
    orch.submit(
        CreateChain(
            "t0", chain_id="c0", src="ATLA", dst="STTL",
            chain=("firewall", "ids"), rate_mbps=300.0, slo="gold",
        ),
        delay=0.5,
    )
    orch.submit(ScaleChain("t0", chain_id="c0", factor=2.0), delay=6.0)
    orch.submit(UpdateRates("t0", rates=(("c0", 150.0),)), delay=9.0)
    return topo, sim, orch, journal


def _baseline_signature():
    _, sim, orch, _ = _small_world()
    sim.run(until=20.0)
    orch.stop()
    return orch.state_signature()


def test_recovery_without_harvest_rebuilds_the_wire():
    """No surviving switch state (harvest=None): the wire is rebuilt from
    regenerated rules and recovery still converges bit-identically."""
    topo, sim, orch, journal = _small_world()
    sim.run(until=7.0)
    orch.crash()  # harvest discarded — only the journal survives
    sim.run(until=8.0)
    recovered, report = recover(
        journal, topo, sim, seed=SEED, harvest=None, checkpoint_interval=4.0
    )
    assert report.tenants_rebuilt == 1 and report.tenants_restored == 0
    sim.run(until=20.0)
    recovered.stop()
    assert recovered.total_drift() == 0
    assert recovered.state_signature() == _baseline_signature()


def test_dead_controller_is_fully_frozen():
    """After crash() no control-plane actor makes progress: channels drop
    every queued delivery, timers are dead, ops stop applying."""
    topo, sim, orch, journal = _small_world()
    sim.run(until=6.2)  # mid scale push
    worker = orch.workers["t0"]
    assert worker.fabric is not None
    records_before = len(journal)
    checkpoints_before = orch.checkpoints_taken
    ops_before = {
        sw: ch.agent.ops_applied for sw, ch in worker.fabric.channels.items()
    }
    orch.crash()
    sim.run(until=12.0)
    assert len(journal) == records_before, "dead controller kept journaling"
    assert orch.checkpoints_taken == checkpoints_before
    for sw, ch in worker.fabric.channels.items():
        assert ch.agent.ops_applied == ops_before[sw], f"{sw} applied ops"


def test_graceful_shutdown_then_recover_is_lossless():
    """stop() journals the drain: a pending intent survives stop→start."""
    topo, sim, orch, journal = _small_world()
    sim.run(until=7.0)  # the t=9 UpdateRates is still pending
    orch.stop()  # graceful quiesce: journal the drain, then release the wire
    orch.dead = orch.arbiter.dead = True
    harvest = orch._sever()
    drains = journal.of_kind(SHUTDOWN)
    assert len(drains) == 1
    assert drains[0].payload["pending_seqs"] == [2]
    sim.run(until=8.0)
    recovered, _ = recover(
        journal, topo, sim, seed=SEED, harvest=harvest, checkpoint_interval=4.0
    )
    sim.run(until=20.0)
    recovered.stop()
    assert recovered.waiting_intents() == 0
    assert recovered.state_signature() == _baseline_signature()


# ---------------------------------------------------------------------------
# Crash schedule generation
# ---------------------------------------------------------------------------
def test_controller_crash_schedule_is_deterministic():
    config = ControllerCrashConfig(crashes=4)
    a = generate_controller_crashes(config, 9)
    b = generate_controller_crashes(config, 9)
    c = generate_controller_crashes(config, 10)
    assert a.signature() == b.signature()
    assert a.signature() != c.signature()
    assert len(a) == 4
    for ev in a:
        assert ev.kind is FaultKind.CONTROLLER_CRASH
        assert ev.target == "controller"
        lo, hi = CONTROLLER_DOWNTIME
        assert lo <= ev.duration <= hi


def test_controller_crashes_never_overlap():
    config = ControllerCrashConfig(crashes=6, window=(5.0, 10.0))
    for seed in range(5):
        events = sorted(
            generate_controller_crashes(config, seed), key=lambda e: e.time
        )
        for earlier, later in zip(events, events[1:]):
            assert later.time >= earlier.time + earlier.duration, (
                f"seed {seed}: crash at {later.time} lands inside the "
                f"downtime of the crash at {earlier.time}"
            )


def test_controller_crash_window_validation():
    with pytest.raises(ValueError, match="window end precedes"):
        generate_controller_crashes(
            ControllerCrashConfig(window=(10.0, 5.0)), 0
        )
