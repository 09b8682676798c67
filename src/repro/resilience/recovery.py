"""Deterministic controller recovery: checkpoint + replay + re-adopt.

``recover`` rebuilds a :class:`~repro.tenancy.orchestrator
.TenantOrchestrator` from a write-ahead journal after a crash:

1. **Restore the last checkpoint.**  Run accounting, the arbiter's
   settled ledgers (free pool recomputed as physical − Σ steady), and
   one worker per checkpointed tenant.  A tenant's blueprint (chains,
   exact rates, SLO) deterministically regenerates its placement plan,
   sub-class assignment and rule set: the worker plans on the live hosts
   against the checkpointed make-before-break incumbent (the counts the
   plan was solved against), and the engine and rule generator are pure
   functions of (classes, topology, incumbent, catalog), so the rebuilt
   desired state is bit-identical to what the dead controller held.
2. **Re-adopt the live data plane.**  A crash leaves installed rules and
   running VNF instances on the switches (``crash()`` harvests them).
   Each tenant gets a *fresh* southbound fabric over that surviving
   network; ``fabric.restore`` plants the checkpointed desired state and
   version vector, and the anti-entropy reconciler repairs only the
   installed-vs-desired diff — never a blind reinstall — so an epoch the
   dead controller had half-pushed is phase-safely rolled back to the
   checkpoint and then rolled forward by replay.  Harvested instances
   the restored rules no longer reference keep running until the
   tenant's next push, which retires them at its convergence (tenant
   fabrics drain what an epoch stops referencing).  Without a harvest
   (e.g. property tests that only keep the journal) the wire is rebuilt
   from the regenerated rules first — the one deliberate exception to
   the no-blind-reinstall rule, and it applies only when no live switch
   state survived to adopt.
3. **Replay the journal suffix.**  Every journaled intent whose
   idempotency cookie is *not* in the checkpoint's terminal set is
   redelivered in seq order at its original submission time (or
   immediately, if that is already past).  Cookies make replay
   exactly-once: an op that committed before the crash but after the
   checkpoint re-executes — its effects are not in the checkpoint —
   while one that committed before the checkpoint never double-applies.

Everything here is seeded-deterministic: recovering at any crash point
converges to the same ``state_signature()`` as a run that never crashed.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro import obs
from repro.core.reconfigure import bootstrap
from repro.elastic.slo import SLO_CLASSES
from repro.resilience.checkpoint import capture, settled_snapshot
from repro.resilience.journal import COMMIT, INTENT, RECOVERY, Journal
from repro.sim.kernel import Simulator
from repro.tenancy.intents import IntentRecord, intent_from_payload
from repro.tenancy.orchestrator import TenantOrchestrator
from repro.tenancy.worker import TenantWorker
from repro.topology.graph import Topology
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG

@dataclass
class RecoveryReport:
    """What one ``recover`` call restored, replayed and rebuilt."""

    checkpoint_time: float
    journal_records: int
    replayed: int
    skipped: int
    tenants_restored: int
    tenants_rebuilt: int
    recovered_at: float
    wall_seconds: float

    def to_dict(self) -> dict:
        return {
            "checkpoint_time": round(self.checkpoint_time, 6),
            "journal_records": self.journal_records,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "tenants_restored": self.tenants_restored,
            "tenants_rebuilt": self.tenants_rebuilt,
            "recovered_at": round(self.recovered_at, 6),
        }


def _restore_worker(
    orch: TenantOrchestrator,
    tenant_id: str,
    snap: dict,
    harvest: Optional[Dict[str, tuple]],
) -> bool:
    """Rebuild one tenant worker from its settled snapshot.

    Returns True when the live wire was re-adopted from a harvest,
    False when it had to be rebuilt (or the tenant has no deployment).
    """
    worker = TenantWorker(tenant_id, orch)
    orch.workers[tenant_id] = worker
    worker.slo = SLO_CLASSES[snap["slo"]]
    worker.ops_completed = int(snap["ops_completed"])
    if not snap["chains"]:
        # Torn-down (or never-deployed) tenant: the worker must exist —
        # orch.workers never drops tenants, and state_signature() hashes
        # every worker — but it holds nothing.
        worker._settled = settled_snapshot(worker)
        return False

    target: Dict[str, TrafficClass] = {}
    for chain_id, src, dst, nf_names, rate in snap["chains"]:
        target[chain_id] = TrafficClass(
            class_id=f"{tenant_id}/{chain_id}",
            src=src,
            dst=dst,
            path=orch.router.path(src, dst),
            chain=PolicyChain(tuple(nf_names), DEFAULT_CATALOG),
            rate_mbps=rate,
        )
    # The same calls the worker makes: the plan is a pure function of
    # (classes, physical topology, incumbent, catalog), so this re-solve
    # reproduces the pre-crash plan bit for bit.
    worker.incumbent = {(sw, nf): n for sw, nf, n in snap.get("incumbent", ())}
    realised = worker.solve(worker.view(target)[0], worker.incumbent)

    harvested = harvest.get(tenant_id) if harvest else None
    if harvested is not None:
        network, instances = harvested
        instances = worker.rulegen.materialize_instances(
            realised[2], network, sim=orch.sim, instances=instances
        )
    else:
        # No surviving wire to adopt: rebuild base (version-0) rules and
        # let the reconciler transition them to the checkpointed
        # versions.  The documented exception to never-blind-reinstall.
        rebuilt = bootstrap(worker.rulegen, orch.topo, *realised, sim=orch.sim)
        network, instances = rebuilt.network, rebuilt.instances
    worker.adopt(
        target,
        realised,
        worker.new_fabric(network),
        instances,
        snap["versions"],
        snap["epoch"],
        snap["converged_epoch"],
    )
    return harvested is not None


def recover(
    journal: Journal,
    topo: Topology,
    sim: Simulator,
    *,
    seed: int,
    harvest: Optional[Dict[str, tuple]] = None,
    checkpoint_interval: Optional[float] = None,
) -> Tuple[TenantOrchestrator, RecoveryReport]:
    """Rebuild an orchestrator from its journal (see module docstring).

    Args:
        journal: the dead controller's write-ahead journal.
        harvest: ``{tenant: (network, instances)}`` as returned by
            ``TenantOrchestrator.crash()`` / ``shutdown()`` — the data
            plane that kept forwarding while the controller was down.
            ``None`` rebuilds each tenant's wire from regenerated rules.
        checkpoint_interval: when set, the recovered orchestrator keeps
            journaling + checkpointing at this cadence (so it survives
            the *next* crash too); when None it journals without a
            periodic checkpoint timer.

    Returns:
        ``(orchestrator, report)``; the orchestrator is started and the
        replay suffix is already scheduled on ``sim``.
    """
    wall_start = _time.perf_counter()
    orch = TenantOrchestrator(topo, sim, seed=seed)
    checkpoint = journal.last_checkpoint()
    # No checkpoint yet (a crash before the first cadence tick): restore the
    # fresh orchestrator's own empty state and replay the whole journal.
    ckpt = checkpoint.payload if checkpoint else {**capture(orch), "time": 0.0}

    # -- run accounting ------------------------------------------------
    orch.outcomes = dict(ckpt["outcomes"])
    orch.latencies = list(ckpt["latencies"])
    orch.verify_ok = int(ckpt["verify_ok"])
    orch.verify_failed = int(ckpt["verify_failed"])
    orch.convergences = int(ckpt["convergences"])
    orch.audit_ticks = int(ckpt["audit_ticks"])
    orch.cross_tenant_violation_seconds = float(ckpt["xt_pv"])

    # -- arbiter ledgers -----------------------------------------------
    arb = orch.arbiter
    steady = ckpt["arbiter"]["steady"]
    for t, entries in ckpt["arbiter"]["tcam_used"].items():
        # Each settled holding, charged as an epoch granted and settled.
        arb.request(t, steady.get(t, {}), entries, resume=None)
        arb.settle(t, steady.get(t, {}))
    # In-flight charges are *not* restored: any op that was mid flight
    # re-executes from its journaled intent and re-requests.
    arb.granted_total = int(ckpt["arbiter"]["granted_total"])
    arb.queued_total = int(ckpt["arbiter"]["queued_total"])
    arb.rejected_total = int(ckpt["arbiter"]["rejected_total"])

    # -- tenant workers + southbound re-adoption -----------------------
    tenants_restored = 0
    tenants_rebuilt = 0
    for tenant_id in sorted(ckpt["workers"]):
        snap = ckpt["workers"][tenant_id]
        if _restore_worker(orch, tenant_id, snap, harvest):
            tenants_restored += 1
        elif snap["chains"]:
            tenants_rebuilt += 1

    # -- replay the intent suffix --------------------------------------
    terminal_cookies = set(ckpt["terminal_cookies"])
    commits = {
        rec.payload["cookie"]: rec.payload for rec in journal.of_kind(COMMIT)
    }
    records = []
    to_replay = []
    for rec in journal.of_kind(INTENT):
        payload = rec.payload
        record = IntentRecord(
            intent=intent_from_payload(payload["intent"]),
            seq=int(payload["seq"]),
            submitted_at=float(payload["submitted_at"]),
            cookie=payload["cookie"],
        )
        if record.cookie in terminal_cookies:
            # Committed before the checkpoint: its effects are inside the
            # restored state.  Exactly-once — never redelivered.
            commit = commits[record.cookie]
            record.status = commit["status"]
            record.detail = commit["detail"]
            record.started_at = commit["started_at"]
            record.completed_at = commit["completed_at"]
        else:
            to_replay.append(record)
        records.append(record)
    orch.bus.restore(records)
    orch.bus._seq = max(orch.bus._seq, int(ckpt["seq"]))
    for record in to_replay:
        orch.bus.redeliver(record)

    orch.start()
    if checkpoint_interval is not None:
        orch.attach_journal(journal, checkpoint_interval)
    else:
        orch.journal = journal
        orch.bus.journal = journal

    wall_seconds = _time.perf_counter() - wall_start
    report = RecoveryReport(
        checkpoint_time=float(ckpt["time"]),
        journal_records=len(journal),
        replayed=len(to_replay),
        skipped=len(records) - len(to_replay),
        tenants_restored=tenants_restored,
        tenants_rebuilt=tenants_rebuilt,
        recovered_at=sim.now,
        wall_seconds=wall_seconds,
    )
    journal.append(RECOVERY, report.to_dict(), time=sim.now)
    if obs.REGISTRY.enabled:
        obs.metric("resilience_recoveries_total").inc()
        obs.metric("resilience_intents_replayed_total").inc(report.replayed)
        obs.metric("resilience_intents_skipped_total").inc(report.skipped)
        obs.metric("resilience_recovery_seconds").observe(wall_seconds)
    return orch, report
