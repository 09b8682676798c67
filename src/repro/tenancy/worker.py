"""The per-tenant lifecycle worker: one blueprint, one serialized queue.

Each tenant's policy chains form a *blueprint*; its worker owns the only
mutable copy and processes intents strictly one at a time (FIFO, one
in-flight operation per tenant — the ePEM blueprint-LCM pattern ROADMAP
item 3 names).  An operation runs the full APPLE pipeline, planning on
the whole physical substrate and reserving what the plan installs:

    target class set → Optimization Engine solve on the physical pool →
    sub-class assignment → Rule Generator → arbiter charge of the plan's
    cores and classification entries → southbound commit → verify at
    convergence (the installed tables read as data; no packet enters the
    tenant's network)

The plan is a pure function of (classes, topology, catalog), so crash
recovery's re-solve rebuilds it bit for bit.  A request that must wait for
capacity keeps its realised plan; nothing is solved twice.

The worker's Optimization Engine is tenant-private, so warm-start
templates cache per-blueprint structure: rate-only day-2 ops
(``UpdateRates`` / ``ScaleChain``) re-solve through the Eq. 5 rate
rewrite, not a fresh model build.

Commits ride each tenant's own southbound fabric (PR 5) through
:mod:`repro.core.reconfigure`: the day-0 deployment is ``bootstrap``ped
and *adopted* as epoch 0; every later change is one ``commit`` — a
make-before-break transactional push — so independent tenants' epochs
overlap freely on the shared timeline while each tenant's own ops stay
serialized (which is also why a tenant's epoch is never superseded).
"""

from __future__ import annotations

import json
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.controller import UnknownClassError
from repro.core.engine import OptimizationEngine, PlacementError
from repro.core.placement import PlacementPlan
from repro.core.reconfigure import Deployment, bootstrap, commit, realize
from repro.core.rulegen import GeneratedRules, RuleGenerator
from repro.core.subclasses import SubclassPlan
from repro.core.verify import VerificationReport, verify_deployment
from repro.dataplane.network import DataPlaneNetwork
from repro.elastic.slo import DEFAULT_SLO, SLO_CLASSES
from repro.resilience.checkpoint import settled_snapshot
from repro.sim.rng import derive
from repro.southbound.fabric import SouthboundFabric
from repro.tenancy.intents import (
    COMPLETED,
    FAILED,
    IN_PROGRESS,
    REJECTED,
    WAITING,
    CreateChain,
    DeleteChain,
    IntentRecord,
    IntentValidationError,
    ScaleChain,
    UpdateRates,
)
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.types import DEFAULT_CATALOG

if TYPE_CHECKING:  # pragma: no cover - type-only import cycle guard
    from repro.tenancy.orchestrator import TenantOrchestrator


class TenantWorker:
    """Serialized lifecycle executor for one tenant's blueprint."""

    def __init__(self, tenant_id: str, orch: "TenantOrchestrator") -> None:
        self.tenant_id = tenant_id
        #: Weak: the orchestrator owns its workers, so a strong reference
        #: back would leave every finished platform to the cyclic collector.
        self.orch = weakref.proxy(orch)
        #: chain_id → desired TrafficClass (the committed blueprint).
        self.chains: Dict[str, TrafficClass] = {}
        #: Best SLO class seen across this tenant's CreateChain intents;
        #: its priority orders the tenant in the arbiter's parked queue.
        self.slo = DEFAULT_SLO
        self.queue: List[IntentRecord] = []
        self.current: Optional[IntentRecord] = None
        self.engine = OptimizationEngine(DEFAULT_CATALOG)
        self.rulegen = RuleGenerator(DEFAULT_CATALOG)
        self.fabric: Optional[SouthboundFabric] = None
        self.deployment: Optional[Deployment] = None
        self.ops_completed = 0
        #: Last op-boundary snapshot (checkpoint source; see
        #: repro.resilience.checkpoint).  Never mid-operation state.
        self._settled: Optional[dict] = None

    # ------------------------------------------------------------------
    def submit(self, record: IntentRecord) -> None:
        """Enqueue one intent; starts immediately when the worker is idle."""
        self.queue.append(record)
        if self.current is None:
            self._next()

    def queue_depth(self) -> int:
        return len(self.queue) + (1 if self.current is not None else 0)

    def _next(self) -> None:
        if not self.queue:
            return
        self.current = self.queue.pop(0)
        self._start(self.current)

    # ------------------------------------------------------------------
    def _start(self, record: IntentRecord) -> None:
        record.started_at = self.orch.sim.now
        record.status = IN_PROGRESS
        try:
            target = self._target_classes(record.intent)
        except UnknownClassError as exc:
            self._finish(record, FAILED, f"tenant-scoped miss: {exc}")
            return
        except (IntentValidationError, KeyError) as exc:
            self._finish(record, FAILED, str(exc))
            return
        if target is None:  # DeleteChain removed the last chain
            self._teardown(record)
            return
        try:
            plan, subclass_plan, rules = self.solve(target)
        except PlacementError as exc:
            # No plan fits even the empty substrate: the capacity refusal.
            self._finish(record, REJECTED, f"placement infeasible: {exc}")
            return
        realised = (target, plan, subclass_plan, rules)
        status = self.orch.arbiter.request(
            self.tenant_id,
            plan.cores_by_switch(),
            rules.classification_rule_count(),
            resume=lambda granted, r=record: self._resume(r, realised, granted),
            priority=self.slo.priority,
        )
        self.orch._note_grant(self.tenant_id, status)
        if status == self.orch.arbiter.REJECTED:
            self._finish(record, REJECTED, "exceeds the shared TCAM budget")
        elif status == self.orch.arbiter.QUEUED:
            record.status = WAITING
        else:
            self._commit(record, *realised)

    def solve(
        self, target: Dict[str, TrafficClass]
    ) -> Tuple[PlacementPlan, SubclassPlan, GeneratedRules]:
        """Place and realise a blueprint on the whole physical pool.

        A pure function of (classes, topology, catalog): recovery calls it
        to rebuild the plan a tenant had installed before a crash.
        """
        plan = self.engine.place(
            [target[k] for k in sorted(target)], self.orch.arbiter.physical
        )
        return (plan, *realize(self.rulegen, plan))

    def _resume(self, record: IntentRecord, realised: tuple, granted: bool) -> None:
        if self.orch.dead:  # resumption raced a controller crash
            return
        if not granted:  # admission timeout: capacity never freed up
            self._finish(record, REJECTED, "capacity admission timed out")
            return
        record.status = IN_PROGRESS
        self._commit(record, *realised)

    # ------------------------------------------------------------------
    def _target_classes(
        self, intent
    ) -> Optional[Dict[str, TrafficClass]]:
        """The blueprint this intent asks for; None means full teardown."""
        target = dict(self.chains)
        if isinstance(intent, CreateChain):
            if intent.chain_id in target:
                raise IntentValidationError(
                    f"chain {intent.chain_id!r} already exists for tenant "
                    f"{self.tenant_id!r}"
                )
            target[intent.chain_id] = TrafficClass(
                class_id=self._class_id(intent.chain_id),
                src=intent.src,
                dst=intent.dst,
                path=self.orch.router.path(intent.src, intent.dst),
                # PolicyChain raises KeyError on unknown NF types.
                chain=PolicyChain(intent.chain, DEFAULT_CATALOG),
                rate_mbps=intent.rate_mbps,
            )
            slo = SLO_CLASSES[intent.slo]
            if slo.priority > self.slo.priority:
                self.slo = slo
        elif isinstance(intent, UpdateRates):
            for chain_id, rate in intent.rates:
                cls = self._require_chain(target, chain_id)
                target[chain_id] = cls.with_rate(rate)
        elif isinstance(intent, ScaleChain):
            cls = self._require_chain(target, intent.chain_id)
            target[intent.chain_id] = cls.with_rate(
                cls.rate_mbps * intent.factor
            )
        elif isinstance(intent, DeleteChain):
            self._require_chain(target, intent.chain_id)
            del target[intent.chain_id]
            if not target:
                return None
        else:
            raise IntentValidationError(f"unknown intent kind {intent!r}")
        return target

    def _class_id(self, chain_id: str) -> str:
        return f"{self.tenant_id}/{chain_id}"

    def _require_chain(
        self, target: Dict[str, TrafficClass], chain_id: str
    ) -> TrafficClass:
        try:
            return target[chain_id]
        except KeyError:
            # Typed so callers can tell a tenant-scoped miss (this chain
            # belongs to nobody, or to another tenant) from a mapping bug.
            raise UnknownClassError(self._class_id(chain_id)) from None

    # ------------------------------------------------------------------
    def _commit(
        self,
        record: IntentRecord,
        target: Dict[str, TrafficClass],
        plan: PlacementPlan,
        subclass_plan: SubclassPlan,
        rules: GeneratedRules,
    ) -> None:
        """Install a realised plan the arbiter has charged."""
        self.chains = dict(target)
        if self.fabric is None:
            # Day 0: cold install, adopted as the fabric's epoch 0.
            deployment = bootstrap(
                self.rulegen,
                self.orch.topo,
                plan,
                subclass_plan,
                rules,
                sim=self.orch.sim,
            )
            self.fabric = self.new_fabric(deployment.network)
            self.fabric.adopt(rules, plan.classes, deployment.instances)
            self.fabric.start()
            self._converged(
                record, deployment, verify_deployment(deployment, self.orch.topo)
            )
        else:
            # Write-ahead: the epoch this push will open is journaled
            # before any rule hits the wire.
            self.orch._journal_epoch(self.tenant_id, self.fabric.epoch + 1, "push")
            commit(
                self.fabric,
                plan,
                subclass_plan,
                rules,
                on_done=lambda out, r=record: self._converged(
                    r, out.deployment, out.report
                ),
            )

    def new_fabric(self, network: DataPlaneNetwork) -> SouthboundFabric:
        """This tenant's private fabric over ``network`` (seeded per tenant).

        It drains the instances an epoch stops referencing once that epoch
        has converged, so a tenant's running VMs are the ones its charged
        plan uses.
        """
        return SouthboundFabric(
            self.orch.sim,
            network,
            seed=derive(self.orch.seed, f"tenancy.sb.{self.tenant_id}"),
            rulegen=self.rulegen,
            drain_retired=True,
        )

    def _converged(
        self,
        record: IntentRecord,
        deployment: Deployment,
        report: VerificationReport,
    ) -> None:
        """The epoch reached zero drift and was audited: admit the next op."""
        # The old epoch is off the wire — release its share of the pool.
        self.orch.arbiter.settle(self.tenant_id)
        self.deployment = deployment
        self._settled = settled_snapshot(self)
        self.orch._journal_epoch(
            self.tenant_id, self.fabric.converged_epoch, "converged"
        )
        self.orch._note_verify(self.tenant_id, report)
        if report.ok:
            self._finish(record, COMPLETED)
        else:
            self._finish(record, FAILED, f"verify: {report.summary()}")

    def _teardown(self, record: IntentRecord) -> None:
        """The last chain was deleted: release everything the tenant holds."""
        if self.fabric is not None:
            self.fabric.stop()
        self.chains = {}
        self.deployment = None
        self.fabric = None
        self.orch.arbiter.release(self.tenant_id)
        self.orch._tenant_down(self.tenant_id)
        self._settled = settled_snapshot(self)
        self._finish(record, COMPLETED)

    def _finish(self, record: IntentRecord, status: str, detail: str = "") -> None:
        record.status = status
        record.detail = detail
        record.completed_at = self.orch.sim.now
        if status == COMPLETED:
            self.ops_completed += 1
        if self._settled is not None:
            # The snapshot was taken inside _converged / _teardown, one
            # increment ago — keep the op counter boundary-consistent.
            self._settled["ops_completed"] = self.ops_completed
        self.orch._intent_done(record)
        self.current = None
        self._next()

    # ------------------------------------------------------------------
    def signature(self) -> Tuple:
        """Deterministic digest of this tenant's end state.

        Digests the installed wire state (epoch + rules + instances), not
        the fabric's timing ledger: *when* an epoch converged depends on
        cross-tenant interleaving, *what* converged must not.
        """
        chains = tuple(
            (cid, c.path, tuple(c.chain), round(c.rate_mbps, 9))
            for cid, c in sorted(self.chains.items())
        )
        if self.fabric is None:
            fabric_sig = None
        else:
            state = json.loads(self.fabric.state_signature())
            fabric_sig = json.dumps(
                {k: state[k] for k in ("epoch", "converged_epoch", "installed")},
                sort_keys=True,
            )
        plan_sig = (
            None
            if self.deployment is None
            else tuple(sorted(self.deployment.plan.quantities.items()))
        )
        return (self.tenant_id, chains, fabric_sig, plan_sig)
