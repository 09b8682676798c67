"""The per-tenant lifecycle worker: one blueprint, one serialized queue.

Each tenant's policy chains form a *blueprint*; its worker owns the only
mutable copy and processes intents strictly one at a time (FIFO, one
in-flight operation per tenant — the ePEM blueprint-LCM pattern).  After
day 0 the worker is the only code that places, realises, reserves and
commits, on every live stack (the scenario runner adopts a controller's
day-0 deployment as a one-tenant orchestrator, through :meth:`adopt`, the
step crash recovery re-adopts a harvested wire with).  An operation runs
the full APPLE pipeline:

    target blueprint → failure view + admission verdict (:meth:`view`) →
    Optimization Engine solve on the live hosts' cores and memory, the
    installed plan as its make-before-break incumbent →
    sub-class assignment → Rule Generator → arbiter charge of what the
    epoch creates (a delta grant) and of its classification entries →
    southbound commit keeping the running instances → verify at
    convergence (the installed tables read as data)

The plan is a pure function of (classes, topology, incumbent, catalog),
so crash recovery's re-solve rebuilds it bit for bit.  A request that
must wait for capacity keeps its realised plan.  A
:class:`~repro.tenancy.intents.Replan` re-plans the blueprint as the live
substrate leaves it, under the first of its candidate verdicts that
places (else the converged one).  An intent record's
``observer``, when set, is told ``solved(record, view, plan or None,
kept)`` after the solve and ``finished(record, outcome or None)`` when
the op is terminal.

The worker's Optimization Engine is tenant-private (the adopted
controller's on a controller day-0 stack), so warm-start templates cache
per-blueprint structure: rate-only ops re-solve through the Eq. 5 rate
rewrite.  Every change after day 0 is one :func:`~repro.core.reconfigure
.commit` on the tenant's own fabric; a tenant's ops are serialized, so no
epoch is ever superseded.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.controller import UnknownClassError
from repro.core.engine import OptimizationEngine, PlacementError
from repro.core.placement import PlacementPlan
from repro.core.reconfigure import Deployment, Outcome, bootstrap, commit, realize
from repro.core.rulegen import GeneratedRules, RuleGenerator
from repro.core.subclasses import SubclassPlan
from repro.core.verify import verify_deployment
from repro.dataplane.network import DataPlaneNetwork
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
    Replan,
    ScaleChain,
    UpdateRates,
)
from repro.topology.graph import Topology
from repro.topology.routing import NoPath, Router
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import PolicyChain
from repro.vnf.instance import VNFInstance
from repro.vnf.types import DEFAULT_CATALOG

if TYPE_CHECKING:  # pragma: no cover - type-only import cycle guard
    from repro.tenancy.orchestrator import TenantOrchestrator


class TenantWorker:
    """Serialized lifecycle executor for one tenant's blueprint."""

    def __init__(self, tenant_id: str, orch: "TenantOrchestrator") -> None:
        from repro.elastic.slo import DEFAULT_SLO

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
        #: The last converged admission verdict: shed class ids (in
        #: admission order) and planning Mbps per class id.
        self.shed: Tuple[str, ...] = ()
        self.rates: Dict[str, float] = {}
        #: The incumbent (per-slot counts) the installed plan was solved
        #: against; empty: none.
        self.incumbent: Dict[Tuple[str, str], int] = {}
        #: The op in flight: (target, verdict, incumbent, stranded, kept, realised).
        self._op: Optional[tuple] = None
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
        intent = record.intent
        try:
            target = self._target_classes(intent)
        except UnknownClassError as exc:
            self._finish(record, FAILED, f"tenant-scoped miss: {exc}")
            return
        except (IntentValidationError, KeyError) as exc:
            self._finish(record, FAILED, str(exc))
            return
        if target is None:  # DeleteChain removed the last chain
            self._teardown(record)
            return
        failed = self.orch.topo.host_failed
        kept = {
            key: inst
            for key, inst in (self.fabric.instances if self.fabric else {}).items()
            if inst.running and not failed(inst.switch)
        }
        incumbent = self.deployment.plan.quantities if self.deployment else {}
        verdict, view, realised, refusal = self._admit(intent, target, incumbent)
        if record.observer is not None:
            record.observer.solved(record, view, realised and realised[0], kept)
        if realised is None:
            self._finish(record, REJECTED, refusal)
            return
        self._op = (target, verdict, incumbent, view[1], kept, realised)
        status = self.orch.arbiter.request(
            self.tenant_id,
            _created_cores(realised[0], incumbent),
            realised[2].classification_rule_count(),
            resume=lambda granted, r=record: self._resume(r, granted),
            priority=self.slo.priority,
        )
        self.orch._note_grant(self.tenant_id, status)
        if status == self.orch.arbiter.REJECTED:
            self._finish(record, REJECTED, "exceeds the shared TCAM budget")
        elif status == self.orch.arbiter.QUEUED:
            record.status = WAITING
        else:
            self._commit(record)

    def _admit(
        self,
        intent,
        target: Dict[str, TrafficClass],
        incumbent: Dict[Tuple[str, str], int],
    ) -> tuple:
        """``(verdict, view, realised, refusal)`` of the first verdict that
        places beside ``incumbent`` — of a ``Replan``'s candidates, searched
        by :func:`~repro.elastic.admission.admit`, else the converged one;
        when none does, the last tried with None and the refusal."""
        tried: list = []

        def fits(verdict) -> bool:
            view = self.view(target, *verdict)
            try:
                tried[:] = verdict, view, self.solve(view[0], incumbent), ""
            except PlacementError as exc:
                # No plan fits the live pool beside the tenant's holding.
                mbb = "make-before-break: " if incumbent else ""
                tried[:] = verdict, view, None, f"placement infeasible: {mbb}{exc}"
            return tried[2] is not None

        if isinstance(intent, Replan) and intent.rates:
            from repro.elastic.admission import Candidates, admit

            candidates = Candidates(intent.rates, intent.victims)
            pool = self._pool()

            def relaxed(k: int) -> bool:
                classes = self.view(target, *candidates[k])[0]
                return self.engine.relaxation_feasible(classes, *pool, incumbent)

            admit(candidates, relaxed, lambda k: fits(candidates[k]))
        else:
            fits((self.shed, self.rates))
        return tuple(tried)

    def view(
        self,
        target: Dict[str, TrafficClass],
        shed: Sequence[str] = (),
        rates: Optional[Dict[str, float]] = None,
    ) -> Tuple[List[TrafficClass], Dict[str, str], int]:
        """``(classes, stranded, rerouted)``: the blueprint as the failure
        view and an admission verdict leave it, in chain-id order.

        A shed class is quarantined (``stranded``: class id -> ingress);
        any other takes its verdict rate, is re-routed over the surviving
        topology when its path crosses a failed link, and is quarantined
        when no path survives or no live APPLE host is on it.
        """
        topo = self.orch.topo
        failed_links = topo.failed_links
        live = self.live_cores().keys()
        rates = rates or {}
        classes: List[TrafficClass] = []
        stranded: Dict[str, str] = {}
        rerouted = 0
        router = None
        for key in sorted(target):
            cls = target[key]
            class_id = cls.class_id
            if class_id in shed:
                stranded[class_id] = cls.src
                continue
            if class_id in rates:
                cls = cls.with_rate(rates[class_id])
            path = cls.path
            if failed_links and any(
                Topology.link_key(a, b) in failed_links
                for a, b in zip(path, path[1:])
            ):
                router = router or Router(topo.surviving(), ecmp=self.orch.router.ecmp)
                try:
                    path = tuple(router.path(cls.src, cls.dst))
                except NoPath:
                    path = ()
            if live.isdisjoint(path):
                stranded[class_id] = cls.src
                continue
            if path != cls.path:
                rerouted += 1
                cls = replace(cls, path=path)
            classes.append(cls)
        return classes, stranded, rerouted

    def live_cores(self) -> Dict[str, int]:
        """A_v (core dimension): the physical pool on the live hosts."""
        failed = self.orch.topo.host_failed
        return {s: c for s, c in self.orch.arbiter.physical.items() if not failed(s)}

    def _pool(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """The live hosts' cores and memory, the budgets every solve has."""
        cores = self.live_cores()
        hosts = self.orch.topo.hosts
        return cores, {s: hosts[s].memory_gb for s in cores}

    def solve(
        self,
        classes: Sequence[TrafficClass],
        incumbent: Dict[Tuple[str, str], int],
    ) -> Tuple[PlacementPlan, SubclassPlan, GeneratedRules]:
        """Place and realise classes on the live hosts' cores and memory,
        making the epoch before it breaks ``incumbent``, the installed
        plan's counts (no class is an empty plan).

        A pure function of (classes, topology and its failures, incumbent,
        catalog): recovery calls it to rebuild a pre-crash plan.
        """
        if classes:
            plan = self.engine.place(classes, *self._pool(), incumbent)
        else:
            plan = PlacementPlan({}, {}, [], self.engine.catalog, 0.0)
        return (plan, *realize(self.rulegen, plan))

    def _resume(self, record: IntentRecord, granted: bool) -> None:
        if self.orch.dead:  # resumption raced a controller crash
            return
        if not granted:  # admission timeout: capacity never freed up
            self._finish(record, REJECTED, "capacity admission timed out")
            return
        record.status = IN_PROGRESS
        self._commit(record)

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
            from repro.elastic.slo import SLO_CLASSES

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
        elif not isinstance(intent, Replan):
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
    def _commit(self, record: IntentRecord) -> None:
        """Install the realised plan of the op the arbiter has charged."""
        target, _verdict, _incumbent, stranded, kept, realised = self._op
        self.chains = dict(target)
        if self.fabric is None:
            # Day 0: written through the applier, adopted as epoch 0.
            deployment = bootstrap(
                self.rulegen, self.orch.topo, *realised, sim=self.orch.sim
            )
            self.adopt(
                target,
                realised,
                self.new_fabric(deployment.network),
                deployment.instances,
            )
            report = verify_deployment(self.deployment, self.orch.topo)
            self._converged(record, Outcome(self.deployment, None, report))
        else:
            # Write-ahead: the epoch this push will open is journaled
            # before any rule hits the wire.
            self.orch._journal_epoch(self.tenant_id, self.fabric.epoch + 1, "push")
            commit(
                self.fabric,
                *realised,
                stranded=stranded,
                instances=kept,
                on_done=lambda out, r=record: self._converged(r, out),
            )

    def adopt(
        self,
        target: Dict[str, TrafficClass],
        realised: Tuple[PlacementPlan, SubclassPlan, GeneratedRules],
        fabric: SouthboundFabric,
        instances: Dict[str, VNFInstance],
        versions: Optional[Dict[str, int]] = None,
        epoch: int = 0,
        converged_epoch: int = 0,
    ) -> None:
        """Take over a deployment already on the wire: ``fabric`` restores
        ``realised`` as its desired state (epoch 0 for a day-0 install; the
        checkpointed versions and epochs after a controller crash) and
        starts reconciling; the blueprint becomes ``target``."""
        plan, subclass_plan, rules = realised
        fabric.restore(
            rules, plan.classes, instances, versions or {}, epoch, converged_epoch
        )
        fabric.start()
        self.chains = dict(target)
        self.fabric = fabric
        self.deployment = Deployment(
            plan, subclass_plan, rules, fabric.network, dict(fabric.instances)
        )
        self._settled = settled_snapshot(self)

    def new_fabric(self, network: DataPlaneNetwork) -> SouthboundFabric:
        """This tenant's private fabric over ``network`` (seeded per tenant),
        draining what an epoch stops referencing once it has converged."""
        return SouthboundFabric(
            self.orch.sim,
            network,
            seed=derive(self.orch.seed, f"tenancy.sb.{self.tenant_id}"),
            rulegen=self.rulegen,
            drain_retired=True,
        )

    def _converged(self, record: IntentRecord, outcome: Outcome) -> None:
        """The epoch reached zero drift and was audited: admit the next op."""
        _target, (self.shed, self.rates), self.incumbent, *_ = self._op
        self.deployment = outcome.deployment
        # The retired instances are drained: the plan is the holding now.
        self.orch.arbiter.settle(
            self.tenant_id, self.deployment.plan.cores_by_switch()
        )
        self._settled = settled_snapshot(self)
        self.orch._journal_epoch(
            self.tenant_id, self.fabric.converged_epoch, "converged"
        )
        report = outcome.report
        self.orch._note_verify(self.tenant_id, report)
        if report.ok:
            self._finish(record, COMPLETED, outcome=outcome)
        else:
            self._finish(
                record, FAILED, f"verify: {report.summary()}", outcome=outcome
            )

    def _teardown(self, record: IntentRecord) -> None:
        """The last chain was deleted: release everything the tenant holds."""
        if self.fabric is not None:
            self.fabric.stop()
            for inst in self.fabric.instances.values():
                inst.shutdown()  # their cores go back to the pool
        self.chains = {}
        self.deployment = None
        self.incumbent = {}
        self.fabric = None
        self.orch.arbiter.release(self.tenant_id)
        self.orch._tenant_down(self.tenant_id)
        self._settled = settled_snapshot(self)
        self._finish(record, COMPLETED)

    def _finish(
        self,
        record: IntentRecord,
        status: str,
        detail: str = "",
        outcome: Optional[Outcome] = None,
    ) -> None:
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
        if record.observer is not None:
            record.observer.finished(record, outcome)
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


def _created_cores(
    plan: PlacementPlan, incumbent: Dict[Tuple[str, str], int]
) -> Dict[str, int]:
    """Cores per switch the epoch adds to the tenant's holding (its delta
    grant): Σ cores · max(0, q − q_old), the make-before-break rows'
    definition; a retired instance, running or dead, frees its cores at
    settle."""
    cores = plan.catalog.get
    need: Dict[str, int] = {}
    for slot, count in plan.quantities.items():
        created = count - incumbent.get(slot, 0)
        if created > 0:
            need[slot[0]] = need.get(slot[0], 0) + created * cores(slot[1]).cores
    return need
