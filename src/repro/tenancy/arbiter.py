"""The capacity arbiter: one owner for shared host-core and TCAM budgets.

Tenants solve their placements independently, so something must make the
union of their plans feasible on the shared substrate.  The arbiter is
that something: every tenant operation first obtains a *grant* — a
per-switch core reservation plus a TCAM allowance — and the worker hands
the grant (not the physical topology) to the Optimization Engine as its
``A_v``.  Because grants are disjoint by construction, per-tenant plans
compose without interference: no cross-tenant core oversubscription, ever.

Grant sizing: the closed-form :func:`demand_weights` core-demand proxy
seeds the reservation, and :func:`repair_grant` guarantees a host big
enough for each class's largest NF.  A final chain-sufficiency pass then
tops the best path host up until one host can hold every instance the
chain needs at the requested rate — which makes the granted sub-problem
feasible *by construction* (the trivial single-host plan fits), so worker
solves cannot fail for capacity reasons.

Settlement is two-phase because commits are make-before-break (PR 5):
while a tenant's new epoch is being pushed, its *old* deployment still
occupies cores and TCAM on the wire.  The ledger therefore charges
``steady`` (the live deployment) and ``inflight`` (the op being
installed) simultaneously: ``commit`` trims the in-flight reservation to
what the plan actually uses, and only ``settle`` — at convergence, when
the old epoch is gone — releases the previous deployment's share.  A
tenant's own cores are never counted as claimable for its next op, which
is exactly the headroom make-before-break costs.

Requests that do not fit are parked on an admission queue scanned in
FIFO order on every release — parked requests never block others, which
matters because the ops that *release* capacity (deletes, scale-downs)
would otherwise deadlock behind a starving head.  A bounded admission
wait (``admission_timeout``) converts genuine capacity exhaustion into a
deterministic rejection instead of an unbounded stall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.sim.kernel import Simulator
from repro.traffic.classes import TrafficClass
from repro.vnf.types import NFTypeCatalog

#: Request-time TCAM estimate per traffic class; the actual charge happens
#: at commit from the generated rule set's real entry counts.
TCAM_ESTIMATE_PER_CLASS = 4


def demand_weights(
    classes: Sequence[TrafficClass],
    available_cores: Mapping[str, int],
    catalog: NFTypeCatalog,
) -> Dict[str, float]:
    """Closed-form per-host core-demand proxy of a class set.

    Each class's expected core need (Σ over its chain of cores_n / Cap_n,
    times its rate) is spread evenly over the hosts on its path — what
    the LP would do absent capacity pressure, at zero solve cost.
    """
    weights: Dict[str, float] = {}
    for cls in classes:
        hosts = [sw for sw in cls.path if available_cores.get(sw, 0) > 0]
        if not hosts:
            continue
        per_mbps = sum(
            catalog.get(nf).cores / catalog.get(nf).capacity_mbps
            for nf in cls.chain
        )
        share = max(cls.rate_mbps, 1e-6) * per_mbps / len(hosts)
        for sw in hosts:
            weights[sw] = weights.get(sw, 0.0) + share
    return weights


def repair_grant(
    grant: Dict[str, int],
    classes: Sequence[TrafficClass],
    available_cores: Mapping[str, int],
    catalog: NFTypeCatalog,
) -> None:
    """Guarantee every class a granted host big enough for its largest NF.

    Rounding the demand proxy can leave a class fewer cores on every path
    host than one IDS instance needs.  This pass tops the biggest path
    host up from the capacity the grant does not yet hold there (ties by
    name).  Mutates ``grant`` in place.
    """
    for cls in classes:
        hosts = [sw for sw in cls.path if available_cores.get(sw, 0) > 0]
        if not hosts:
            continue
        need = max(catalog.get(nf).cores for nf in cls.chain)
        if max((grant.get(sw, 0) for sw in hosts), default=0) >= need:
            continue
        for sw in sorted(
            hosts, key=lambda v: (-int(available_cores.get(v, 0)), v)
        ):
            deficit = need - grant.get(sw, 0)
            pool = int(available_cores.get(sw, 0)) - grant.get(sw, 0)
            take = min(deficit, max(0, pool))
            if take > 0:
                grant[sw] = grant.get(sw, 0) + take
                deficit -= take
            if deficit <= 0:
                break


@dataclass
class Grant:
    """One tenant's current reservation against the shared budgets."""

    tenant_id: str
    cores: Dict[str, int] = field(default_factory=dict)

@dataclass
class _Pending:
    """A queued admission request (priority, then FIFO-preference)."""

    tenant_id: str
    need: Dict[str, int]
    n_classes: int
    resume: Callable[[Optional[Grant]], None]
    #: SLO-class priority (higher drains first; 0 = legacy FIFO only).
    priority: int = 0
    #: Arrival sequence number — the FIFO tiebreak within a priority.
    seq: int = 0


class CapacityArbiter:
    """Grants disjoint slices of shared host/TCAM capacity to tenants.

    Args:
        sim: queued-request resumptions are scheduled here (delay 0), so
            re-admission interleaves deterministically with other events.
        available_cores: physical A_v per switch (the shared pool).
        tcam_budget: shared classification-entry budget across tenants.
        catalog: NF datasheets for demand estimation.
        capacity_headroom: the engine's headroom factor; grant sizing uses
            the same derated per-instance capacity the solver plans with.
        admission_timeout: sim seconds a request may wait parked before it
            is rejected (bounds every intent's time-to-terminal even under
            genuine capacity exhaustion).
    """

    def __init__(
        self,
        sim: Simulator,
        available_cores: Mapping[str, int],
        tcam_budget: int,
        catalog: NFTypeCatalog,
        capacity_headroom: float = 1.0,
        admission_timeout: float = 8.0,
    ) -> None:
        self.sim = sim
        self.physical: Dict[str, int] = {
            s: int(c) for s, c in available_cores.items() if c > 0
        }
        self.free: Dict[str, int] = dict(self.physical)
        self.tcam_budget = int(tcam_budget)
        self.catalog = catalog
        self.headroom = capacity_headroom
        self.admission_timeout = admission_timeout
        self.grants: Dict[str, Grant] = {}
        #: Live (converged) per-tenant usage — held until settle().
        self.steady: Dict[str, Dict[str, int]] = {}
        #: Reservation for the op currently being solved/installed.
        self.inflight: Dict[str, Dict[str, int]] = {}
        self.tcam_used: Dict[str, int] = {}
        self.inflight_tcam: Dict[str, int] = {}
        self.queue: List[_Pending] = []
        # Ledger counters for observability / experiment reporting.
        self.granted_total = 0
        self.queued_total = 0
        self.rejected_total = 0
        self.trims_total = 0
        #: Set by a controller crash (repro.resilience): already-queued
        #: admission timeouts and drain passes become no-ops.
        self.dead = False

    # ------------------------------------------------------------------
    # Budgets
    # ------------------------------------------------------------------
    @property
    def tcam_free(self) -> int:
        return (
            self.tcam_budget
            - sum(self.tcam_used.values())
            - sum(self.inflight_tcam.values())
        )

    def granted_cores(self) -> int:
        """Cores currently charged (steady + in-flight) across tenants."""
        return sum(
            sum(m.values())
            for ledger in (self.steady, self.inflight)
            for m in ledger.values()
        )

    def oversubscribed(self) -> bool:
        """True when any ledger invariant is broken (audit hook).

        By construction this never happens; the cross-tenant audit calls
        it every tick anyway — defense in depth for the zero
        cross-tenant-violation invariant.
        """
        used: Dict[str, int] = {}
        for ledger in (self.steady, self.inflight):
            for m in ledger.values():
                for sw, c in m.items():
                    used[sw] = used.get(sw, 0) + c
        for sw, cap in self.physical.items():
            u = used.get(sw, 0)
            if u + self.free.get(sw, 0) != cap or u > cap:
                return True
        return self.tcam_free < 0

    # ------------------------------------------------------------------
    # Demand estimation
    # ------------------------------------------------------------------
    def _chain_cores(self, cls: TrafficClass) -> int:
        """Cores for one feasible single-host plan of this class."""
        total = 0
        for nf in cls.chain:
            spec = self.catalog.get(nf)
            cap = spec.capacity_mbps * self.headroom
            total += int(math.ceil(cls.rate_mbps / cap - 1e-9) or 1) * spec.cores
        return total

    def _compute_need(
        self, classes: Sequence[TrafficClass]
    ) -> Optional[Dict[str, int]]:
        """A sufficient per-switch reservation, sized against *physical*
        capacity — or None when the class set can never fit an empty
        network.

        Seeds from the :func:`demand_weights` proxy, repairs the
        largest-NF guarantee, then tops up one path host per class until
        it fits the class's whole chain — the feasibility certificate.

        Deliberately a pure function of (classes, physical topology,
        catalog): the reservation a tenant receives never depends on what
        other tenants currently hold, so independent tenants converge to
        the same final deployment under any intent interleaving.  The
        *admission decision* (does the need fit the free pool right now)
        is the only cross-tenant coupling, and it only delays, never
        reshapes, a grant.
        """
        phys = self.physical
        weights = demand_weights(classes, phys, self.catalog)
        need: Dict[str, int] = {}
        for sw, w in sorted(weights.items()):
            if w <= 0:
                continue
            need[sw] = min(int(phys.get(sw, 0)), int(math.ceil(w - 1e-9)))
        repair_grant(need, classes, phys, self.catalog)

        claimable = dict(need)
        order = sorted(range(len(classes)), key=lambda i: classes[i].class_id)
        for idx in order:
            cls = classes[idx]
            hosts = [sw for sw in cls.path if phys.get(sw, 0) > 0]
            if not hosts:
                return None  # no APPLE host on the path: never placeable
            cn = self._chain_cores(cls)
            best = None
            best_key = None
            for pos, sw in enumerate(hosts):
                headroom = claimable.get(sw, 0) + (
                    phys.get(sw, 0) - need.get(sw, 0)
                )
                key = (headroom, -pos)
                if best is None or key > best_key:
                    best, best_key = sw, key
            have = claimable.get(best, 0)
            if have >= cn:
                claimable[best] = have - cn
            else:
                extra = cn - have
                spare = phys.get(best, 0) - need.get(best, 0)
                if spare < extra:
                    return None  # exceeds the physical host outright
                need[best] = need.get(best, 0) + extra
                claimable[best] = 0
        return {sw: c for sw, c in sorted(need.items()) if c > 0}

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    #: request() outcomes.
    GRANTED = "granted"
    QUEUED = "queued"
    REJECTED = "rejected"

    def request(
        self,
        tenant_id: str,
        classes: Sequence[TrafficClass],
        resume: Callable[[Grant], None],
        priority: int = 0,
    ):
        """Reserve capacity for a tenant's target class set.

        ``priority`` orders the parked queue (higher first; equal
        priorities keep arrival order), letting gold-SLO tenants drain
        ahead of bronze ones when capacity frees up.  The default keeps
        the legacy pure-FIFO behaviour bit-identical.

        Returns ``(status, grant)``: ``("granted", Grant)`` on immediate
        admission; ``("queued", None)`` when the need fits the physical
        network but not the current free pool — the request parks on the
        admission queue and ``resume`` fires (as a scheduled sim event)
        with the grant once capacity frees up, or with ``None`` when the
        admission timeout expires first; ``("rejected", None)`` when the
        class set can never fit even an empty network (no point parking
        it — it could never be admitted).
        """
        need = self._compute_need(classes)
        if need is None or TCAM_ESTIMATE_PER_CLASS * len(classes) > self.tcam_budget:
            self.rejected_total += 1
            return self.REJECTED, None
        grant = self._apply_if_fits(tenant_id, need, len(classes))
        if grant is not None:
            return self.GRANTED, grant
        pending = _Pending(
            tenant_id, need, len(classes), resume, priority, self.queued_total
        )
        self.queue.append(pending)
        self.queued_total += 1
        self.sim.schedule(self.admission_timeout, self._expire, (pending,))
        return self.QUEUED, None

    def _expire(self, pending: _Pending) -> None:
        """Admission timeout: reject the parked request if still waiting."""
        if self.dead:
            return
        if pending in self.queue:
            self.queue.remove(pending)
            self.rejected_total += 1
            pending.resume(None)

    def _apply_if_fits(
        self, tenant_id: str, need: Dict[str, int], n_classes: int
    ) -> Optional[Grant]:
        """Reserve a precomputed need iff the free pool covers it.

        The tenant's own steady cores are *not* claimable — the live
        deployment keeps occupying them through the make-before-break
        push — so the whole need must come from the free pool.
        """
        for sw, c in need.items():
            if c > self.free.get(sw, 0):
                return None
        if TCAM_ESTIMATE_PER_CLASS * n_classes > self.tcam_free:
            return None
        for sw, c in need.items():
            self.free[sw] = self.free.get(sw, 0) - c
        self.inflight[tenant_id] = dict(need)
        grant = Grant(tenant_id, dict(need))
        self.grants[tenant_id] = grant
        self.granted_total += 1
        return grant

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------
    def commit(
        self,
        tenant_id: str,
        used_cores: Mapping[str, int],
        tcam_entries: int,
    ) -> bool:
        """Trim the in-flight reservation to what the plan actually uses.

        Charges the real TCAM entry count on top of the live epoch's
        (both rule sets coexist until convergence); returns False
        (nothing changed) when that would blow the shared budget — the
        caller keeps its previous deployment and reports the intent
        rejected.
        """
        if tcam_entries > self.tcam_free:
            self.rejected_total += 1
            return False
        need = self.inflight.get(tenant_id, {})
        used = {sw: int(c) for sw, c in sorted(used_cores.items()) if c > 0}
        for sw in set(need) | set(used):
            self.free[sw] = (
                self.free.get(sw, 0) + need.get(sw, 0) - used.get(sw, 0)
            )
        self.inflight[tenant_id] = used
        self.inflight_tcam[tenant_id] = int(tcam_entries)
        self.trims_total += 1
        self._drain()
        return True

    def settle(self, tenant_id: str) -> None:
        """The new epoch converged: release the previous deployment.

        The old plan's cores and TCAM entries are finally off the wire;
        the trimmed in-flight reservation becomes the tenant's steady
        holding.
        """
        for sw, c in self.steady.pop(tenant_id, {}).items():
            self.free[sw] = self.free.get(sw, 0) + c
        new_steady = self.inflight.pop(tenant_id, {})
        if new_steady:
            self.steady[tenant_id] = new_steady
        if tenant_id in self.inflight_tcam:
            self.tcam_used[tenant_id] = self.inflight_tcam.pop(tenant_id)
        self.grants[tenant_id] = Grant(tenant_id, dict(new_steady))
        self._drain()

    def restore(self, tenant_id: str) -> None:
        """Roll back an aborted op's reservation (solve failure, TCAM
        rejection): the in-flight share returns to the pool; the live
        deployment's steady holding is untouched."""
        for sw, c in self.inflight.pop(tenant_id, {}).items():
            self.free[sw] = self.free.get(sw, 0) + c
        self.inflight_tcam.pop(tenant_id, None)
        self.grants[tenant_id] = Grant(
            tenant_id, dict(self.steady.get(tenant_id, {}))
        )
        self._drain()

    def release(self, tenant_id: str) -> None:
        """Tear a tenant down: return every core and TCAM entry."""
        for ledger in (self.steady, self.inflight):
            for sw, c in ledger.pop(tenant_id, {}).items():
                self.free[sw] = self.free.get(sw, 0) + c
        self.grants.pop(tenant_id, None)
        self.tcam_used.pop(tenant_id, None)
        self.inflight_tcam.pop(tenant_id, None)
        self._drain()

    # ------------------------------------------------------------------
    # Queue drain
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Scan parked requests in (priority desc, arrival) order,
        admitting every one that now fits.  Blocked entries are skipped,
        not barriers — the ops that release capacity must never deadlock
        behind a starving head — so admission is priority-then-FIFO
        *preference*, not a strict queue.  With all priorities equal
        (the default) this is exactly the legacy FIFO-preference scan."""
        if self.dead:
            return
        admitted = True
        while admitted:
            admitted = False
            for pending in sorted(self.queue, key=lambda p: (-p.priority, p.seq)):
                grant = self._apply_if_fits(
                    pending.tenant_id, pending.need, pending.n_classes
                )
                if grant is not None:
                    self.queue.remove(pending)
                    self.sim.schedule(0.0, pending.resume, (grant,))
                    admitted = True
