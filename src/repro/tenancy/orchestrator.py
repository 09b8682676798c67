"""The multi-tenant orchestrator façade: bus + arbiter + workers.

One orchestrator owns one topology and one simulator.  Tenants appear on
first intent, disappear on their last ``DeleteChain``; in between their
lifecycle workers run concurrently on the shared timeline — independent
tenants' southbound epochs overlap.  Each worker plans on the live
substrate and the capacity arbiter charges what each epoch creates
against one shared pool (the chaos stack is a one-tenant orchestrator).

A periodic *cross-tenant audit* checks every tick that (a) the arbiter's
ledger balances and the TCAM budget holds, (b) on every host the cores of
the VNF instances running in the tenants' fabrics fit the host, and (c)
no tenant runs more cores than the arbiter charges it (``steady +
inflight``: the oracle of the delta grants).  Any tick in
violation accrues cross-tenant policy-violation-seconds — the number
every run must report as zero.
"""

from __future__ import annotations

import hashlib
import weakref
from functools import partial
from operator import gt
from typing import Dict, List, Optional

from repro import obs
from repro.resilience.checkpoint import capture
from repro.resilience.journal import CHECKPOINT, COMMIT, EPOCH, GRANT, SHUTDOWN
from repro.sim.kernel import Simulator, Timer
from repro.tenancy.arbiter import CapacityArbiter
from repro.tenancy.bus import IntentBus
from repro.tenancy.intents import COMPLETED, Intent, IntentRecord
from repro.tenancy.worker import TenantWorker
from repro.topology.graph import Topology
from repro.topology.routing import Router

#: Shared classification-TCAM budget across all tenants.
DEFAULT_TCAM_BUDGET = 100_000
#: Cross-tenant isolation audit period (sim seconds); a tick in
#: violation accrues this much cross-tenant policy-violation-seconds.
AUDIT_INTERVAL = 0.25


def _deliver(orchestrator: "weakref.ref[TenantOrchestrator]", record: IntentRecord) -> None:
    """The bus's subscriber; a platform nothing holds any more takes nothing."""
    orch = orchestrator()
    if orch is not None:
        orch._dispatch(record)


class TenantOrchestrator:
    """Multi-tenant control plane over one shared topology.

    Args:
        topo: the shared substrate; its host specs are the arbiter's
            physical core pool.
        sim: the deterministic event kernel every subsystem shares.
        seed: run seed; all tenancy randomness lives on derived
            substreams (``tenancy.*``), so tenant workloads never perturb
            each other's draws.

    Tenants plan with the default NF catalog and engine configuration on
    the hosts' physical cores, and share :data:`DEFAULT_TCAM_BUDGET`.
    """

    def __init__(
        self,
        topo: Topology,
        sim: Simulator,
        seed: int = 0,
    ) -> None:
        self.topo = topo
        self.sim = sim
        self.seed = seed
        self.router = Router(topo)
        self.arbiter = CapacityArbiter(
            sim,
            {s: spec.cores for s, spec in topo.hosts.items()},
            DEFAULT_TCAM_BUDGET,
        )
        self.bus = IntentBus(sim, seed=seed)
        # Subscribed weakly, as workers refer back (see TenantWorker.orch).
        self.bus.subscribe(partial(_deliver, weakref.ref(self)))
        self.workers: Dict[str, TenantWorker] = {}
        self._audit_timer: Optional[Timer] = None

        # Crash tolerance (see repro.resilience): optional write-ahead
        # journal + periodic checkpoints, and a dead flag that freezes
        # every already-scheduled callback after crash().
        self.journal = None
        self._checkpoint_timer: Optional[Timer] = None
        self.checkpoints_taken = 0
        self.dead = False

        # Run accounting (ground truth for metrics and experiment rows).
        self.outcomes: Dict[str, int] = {}
        self.latencies: List[float] = []
        self.verify_ok = 0
        self.verify_failed = 0
        self.convergences = 0
        self.cross_tenant_violation_seconds = 0.0
        self.audit_ticks = 0

    # ------------------------------------------------------------------
    # Intent entry point
    # ------------------------------------------------------------------
    def submit(self, intent: Intent, delay: float = 0.0) -> IntentRecord:
        """Validate and enqueue one tenant intent (see :class:`IntentBus`)."""
        return self.bus.submit(intent, delay=delay)

    def _dispatch(self, record: IntentRecord) -> None:
        if self.dead:
            return
        tenant_id = record.intent.tenant_id
        worker = self.workers.get(tenant_id)
        if worker is None:
            worker = TenantWorker(tenant_id, self)
            self.workers[tenant_id] = worker
        worker.submit(record)
        if obs.REGISTRY.enabled:
            obs.metric("tenancy_worker_queue_depth").labels(
                tenant=tenant_id
            ).set(worker.queue_depth())
            obs.metric("tenancy_active_tenants").set(self.active_tenants())

    # ------------------------------------------------------------------
    # Lifecycle hooks (called by workers / arbiter)
    # ------------------------------------------------------------------
    def _intent_done(self, record: IntentRecord) -> None:
        self.outcomes[record.status] = self.outcomes.get(record.status, 0) + 1
        if record.status == COMPLETED and record.latency is not None:
            self.latencies.append(record.latency)
        if self.journal is not None:
            self.journal.append(
                COMMIT,
                {
                    "seq": record.seq,
                    "cookie": record.cookie,
                    "status": record.status,
                    "detail": record.detail,
                    "started_at": record.started_at,
                    "completed_at": record.completed_at,
                },
                time=self.sim.now,
            )
        if obs.REGISTRY.enabled:
            obs.metric("tenancy_intents_total").labels(
                kind=record.intent.kind, outcome=record.status
            ).inc()
            if record.latency is not None:
                obs.metric("tenancy_intent_latency_seconds").observe(
                    record.latency
                )
            worker = self.workers.get(record.intent.tenant_id)
            if worker is not None:
                obs.metric("tenancy_worker_queue_depth").labels(
                    tenant=record.intent.tenant_id
                ).set(worker.queue_depth())
            obs.metric("tenancy_granted_cores").set(
                self.arbiter.granted_cores()
            )

    def _note_grant(self, tenant_id: str, status: str) -> None:
        if self.journal is not None:
            # Write-ahead relative to the op's effects: the worker calls
            # this after it has solved and realised its plan, before any
            # of it is installed.
            self.journal.append(
                GRANT, {"tenant": tenant_id, "status": status}, time=self.sim.now
            )
        if obs.REGISTRY.enabled:
            obs.metric("tenancy_grants_total").labels(outcome=status).inc()

    def _journal_epoch(self, tenant_id: str, epoch: int, event: str) -> None:
        """Log a southbound epoch transition (push opened / converged)."""
        if self.journal is not None:
            self.journal.append(
                EPOCH,
                {"tenant": tenant_id, "epoch": int(epoch), "event": event},
                time=self.sim.now,
            )

    def _note_verify(self, tenant_id: str, report) -> None:
        self.convergences += 1
        if report.ok:
            self.verify_ok += 1
        else:
            self.verify_failed += 1
        if obs.REGISTRY.enabled:
            obs.metric("tenancy_convergence_verifies_total").labels(
                result="ok" if report.ok else "violations"
            ).inc()

    def _tenant_down(self, tenant_id: str) -> None:
        if obs.REGISTRY.enabled:
            obs.metric("tenancy_active_tenants").set(self.active_tenants())

    # ------------------------------------------------------------------
    # Cross-tenant isolation audit
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic cross-tenant audit."""
        if self._audit_timer is None:
            self._audit_timer = self.sim.every(AUDIT_INTERVAL, self._audit)

    def stop(self) -> None:
        """Stop periodic work; with a journal attached, drain losslessly.

        Periodic work is the audit, the checkpoint timer and every live
        tenant fabric's reconciler.  The final checkpoint plus the
        ``SHUTDOWN`` record (listing every still-pending seq) make
        stop→start lossless: recovery restores the checkpoint and
        redelivers exactly the pending suffix.
        """
        if self._audit_timer is not None:
            self._audit_timer.cancel()
            self._audit_timer = None
        if self._checkpoint_timer is not None:
            self._checkpoint_timer.cancel()
            self._checkpoint_timer = None
        for worker in self.workers.values():
            if worker.fabric is not None:
                worker.fabric.stop()
        if self.journal is not None:
            self._checkpoint()
            self.journal.append(
                SHUTDOWN,
                {
                    "pending_seqs": sorted(
                        r.seq for r in self.bus.records if not r.terminal
                    )
                },
                time=self.sim.now,
            )

    # ------------------------------------------------------------------
    # Crash tolerance (see repro.resilience)
    # ------------------------------------------------------------------
    def attach_journal(self, journal, checkpoint_interval: float = 5.0) -> None:
        """Attach a write-ahead journal and arm periodic checkpoints."""
        self.journal = journal
        self.bus.journal = journal
        if self._checkpoint_timer is None and checkpoint_interval > 0:
            self._checkpoint_timer = self.sim.every(
                checkpoint_interval, self._checkpoint
            )

    def _checkpoint(self) -> None:
        """Append one full desired-state snapshot to the journal."""
        if self.journal is None or self.dead:
            return
        self.journal.append(CHECKPOINT, capture(self), time=self.sim.now)
        self.checkpoints_taken += 1
        if obs.REGISTRY.enabled:
            obs.metric("resilience_checkpoints_total").inc()

    def crash(self) -> Dict[str, tuple]:
        """Kill the controller mid-flight; the data plane keeps running.

        Every control-plane actor is flagged dead (already-queued sim
        callbacks become no-ops), timers are cancelled, and each live
        tenant fabric's control channels are severed.  Installed rules
        stay on the switches — that surviving wire state is returned as
        ``{tenant: (network, instances)}`` for recovery to re-adopt
        through the anti-entropy reconciler.
        """
        self.dead = True
        self.arbiter.dead = True
        if self._audit_timer is not None:
            self._audit_timer.cancel()
            self._audit_timer = None
        if self._checkpoint_timer is not None:
            self._checkpoint_timer.cancel()
            self._checkpoint_timer = None
        return self._sever()

    def _sever(self) -> Dict[str, tuple]:
        """Kill every live tenant fabric; hand back the surviving wire."""
        harvest: Dict[str, tuple] = {}
        for tenant_id in sorted(self.workers):
            fabric = self.workers[tenant_id].fabric
            if fabric is not None:
                fabric.kill()
                harvest[tenant_id] = (fabric.network, dict(fabric.instances))
        return harvest

    def _audit(self) -> None:
        """One isolation tick: ledgers balanced, running instances charged
        and within the physical hosts."""
        self.audit_ticks += 1
        arbiter = self.arbiter
        charged = arbiter.charges()
        violated = charged is None
        if not violated:
            physical = arbiter.physical
            running = dict.fromkeys(physical, 0)
            try:
                for tenant_id, worker in self.workers.items():
                    fabric = worker.fabric
                    if fabric is None:
                        continue
                    mine = 0
                    for inst in fabric.instances.values():
                        if inst.running:
                            cores = inst.nf_type.cores
                            mine += cores
                            running[inst.switch] += cores
                    if mine > charged.get(tenant_id, 0):
                        violated = True
            except KeyError:  # an instance running on a switch with no pool
                violated = True
            violated = violated or any(map(gt, running.values(), physical.values()))
        if violated:
            self.cross_tenant_violation_seconds += AUDIT_INTERVAL
            if obs.REGISTRY.enabled:
                obs.metric(
                    "tenancy_cross_tenant_violation_seconds_total"
                ).inc(AUDIT_INTERVAL)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def active_tenants(self) -> int:
        """Tenants with a live deployment or queued work."""
        return sum(
            1
            for w in self.workers.values()
            if w.fabric is not None or w.queue_depth() > 0
        )

    def total_drift(self) -> int:
        """Desired-vs-installed drift summed across tenant fabrics."""
        return sum(
            w.fabric.drift_count()
            for w in self.workers.values()
            if w.fabric is not None
        )

    def waiting_intents(self) -> int:
        """Intents not yet terminal (worker FIFOs + arbiter queue)."""
        return sum(1 for r in self.bus.records if not r.terminal)

    def state_signature(self) -> str:
        """Deterministic digest of the whole platform's end state."""
        payload = repr(
            (
                tuple(
                    self.workers[t].signature() for t in sorted(self.workers)
                ),
                tuple(sorted(self.arbiter.free.items())),
                tuple(
                    (t, tuple(sorted(m.items())))
                    for t, m in sorted(self.arbiter.steady.items())
                ),
                tuple(
                    (t, tuple(sorted(m.items())))
                    for t, m in sorted(self.arbiter.inflight.items())
                ),
                tuple(sorted(self.arbiter.tcam_used.items())),
                tuple(sorted(self.outcomes.items())),
                round(self.cross_tenant_violation_seconds, 9),
            )
        )
        return hashlib.sha1(payload.encode()).hexdigest()[:16]

    def metrics_summary(self) -> Dict[str, float]:
        """Deterministic run summary (experiment rows, bench entries)."""
        lat = sorted(self.latencies)

        def pct(p: float) -> float:
            if not lat:
                return 0.0
            idx = min(len(lat) - 1, max(0, int(round(p * (len(lat) - 1)))))
            return lat[idx]

        return {
            "intents": len(self.bus.records),
            "completed": self.outcomes.get(COMPLETED, 0),
            "rejected": self.outcomes.get("rejected", 0),
            "failed": self.outcomes.get("failed", 0),
            "waiting": self.waiting_intents(),
            "queued_grants": self.arbiter.queued_total,
            "convergences": self.convergences,
            "verify_ok": self.verify_ok,
            "verify_failed": self.verify_failed,
            "latency_p50": round(pct(0.50), 9),
            "latency_p99": round(pct(0.99), 9),
            "cross_tenant_violation_seconds": round(
                self.cross_tenant_violation_seconds, 9
            ),
            "drift": self.total_drift(),
            "active_tenants": self.active_tenants(),
            "granted_cores": self.arbiter.granted_cores(),
            "tcam_entries": sum(self.arbiter.tcam_used.values()),
        }
