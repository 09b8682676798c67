"""Checkpoint capture: the orchestrator's desired state as one payload.

A checkpoint is an ordinary journal record (kind ``CHECKPOINT``) whose
payload is everything recovery needs *besides* the intent suffix:

* bus progress (``seq``) and the idempotency cookies of every intent
  that had already reached a terminal state — the exactly-once fence;
* run accounting (outcomes, latencies, verify counters, audit ticks,
  cross-tenant PV-seconds) so recovered summaries match a crash-free run;
* the arbiter's *settled* ledgers — ``steady`` holdings, charged TCAM,
  and the granted / queued / rejected counters.  In-flight charges are
  deliberately absent: an op that hadn't converged by the checkpoint
  re-executes from its journaled intent, re-solving its plan and
  re-requesting its charge;
* one *settled snapshot* per tenant worker: the committed blueprint
  (chain endpoints, NF sequences, exact unrounded rates), the SLO class,
  the make-before-break incumbent its plan was solved against (the
  previous plan's per-slot counts, only when there was one), and the
  southbound fabric's version vector + epoch counters.

Worker snapshots are taken at convergence (``_converged``) and teardown,
i.e. only at op boundaries — a checkpoint never sees a half-built
deployment.  The fabric's ``versions`` dict is captured **verbatim**,
including entries for deleted class IDs: per-class version numbers only
ever increment, so a delete + re-create after recovery must continue the
old numbering or the recovered wire state would diverge bit-for-bit from
a never-crashed run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tenancy.orchestrator import TenantOrchestrator
    from repro.tenancy.worker import TenantWorker


def settled_snapshot(worker: "TenantWorker") -> dict:
    """Snapshot one worker's committed state at an op boundary.

    Rates are stored unrounded (JSON round-trips floats exactly);
    rounding here would break bit-identity the first time a replayed
    ``ScaleChain`` multiplies a restored rate.
    """
    snap = {
        "slo": worker.slo.name,
        "ops_completed": worker.ops_completed,
        "chains": [
            [cid, c.src, c.dst, list(c.chain.names), c.rate_mbps]
            for cid, c in sorted(worker.chains.items())
        ],
        "versions": {},
        "epoch": -1,
        "converged_epoch": -1,
    }
    if worker.incumbent:
        snap["incumbent"] = [
            [sw, nf, int(n)] for (sw, nf), n in sorted(worker.incumbent.items())
        ]
    if worker.fabric is not None:
        snap["versions"] = {
            cid: int(v) for cid, v in worker.fabric.versions.items()
        }
        snap["epoch"] = int(worker.fabric.epoch)
        snap["converged_epoch"] = int(worker.fabric.converged_epoch)
    return snap


def capture(orch: "TenantOrchestrator") -> dict:
    """Capture the full checkpoint payload for one orchestrator."""
    arb = orch.arbiter
    workers: Dict[str, dict] = {
        # No op boundary yet: no chain committed, no fabric, no op completed.
        tenant_id: worker._settled or settled_snapshot(worker)
        for tenant_id, worker in sorted(orch.workers.items())
    }
    return {
        "time": orch.sim.now,
        "seq": orch.bus._seq,
        "terminal_cookies": sorted(
            r.cookie for r in orch.bus.records if r.terminal and r.cookie
        ),
        "outcomes": dict(sorted(orch.outcomes.items())),
        "latencies": list(orch.latencies),
        "verify_ok": orch.verify_ok,
        "verify_failed": orch.verify_failed,
        "convergences": orch.convergences,
        "audit_ticks": orch.audit_ticks,
        "xt_pv": orch.cross_tenant_violation_seconds,
        "arbiter": {
            "steady": {
                t: dict(sorted(m.items()))
                for t, m in sorted(arb.steady.items())
            },
            "tcam_used": dict(sorted(arb.tcam_used.items())),
            "granted_total": arb.granted_total,
            "queued_total": arb.queued_total,
            "rejected_total": arb.rejected_total,
        },
        "workers": workers,
    }
