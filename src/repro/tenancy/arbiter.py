"""The capacity arbiter: one owner for the shared host-core and TCAM pools.

Every tenant plans on the live substrate (its worker solves Eq. 1–8 with
A_v set to the live hosts' cores and memory, Sec. IV-D) and realises the
plan's rules.  Only then does it ask the arbiter for what the epoch adds
— a *delta grant*: per switch, the cores of the plan's instance slots
that are not among the running instances the epoch keeps — plus the
rendered classification entry count; nothing reaches the wire before the
request is granted.  Grants come from one free pool, so the tenants'
running instances always fit the physical hosts.

Settlement is two-phase because commits are make-before-break: while a
tenant's new epoch is being pushed, its old deployment still occupies the
wire.  The ledger charges ``steady`` (the live plan's cores) and
``inflight`` (what the op creates) at once, and only ``settle`` — at
convergence, when the retired instances are drained — makes ``steady``
the new plan's ``cores_by_switch()`` and returns the rest.  A kept
instance is charged once, so a recovery that reuses its surviving
instances pays only for their replacements.  On every switch ``steady +
inflight + free == physical``.

A request larger than a physical host or the whole TCAM budget could never
be admitted and is rejected at once.  One that only exceeds what is free
right now parks on an admission queue, scanned in priority-then-FIFO order
on every release — parked requests never block others, so the ops that
*release* capacity never deadlock behind a starving head.  A bounded
admission wait (``admission_timeout``) turns genuine capacity exhaustion
into a deterministic rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.sim.kernel import Simulator


@dataclass
class _Pending:
    """A queued admission request (priority, then FIFO-preference)."""

    tenant_id: str
    need: Dict[str, int]
    tcam_entries: int
    resume: Callable[[bool], None]
    #: SLO-class priority (higher drains first; 0 = legacy FIFO only).
    priority: int = 0
    #: Arrival sequence number — the FIFO tiebreak within a priority.
    seq: int = 0


class CapacityArbiter:
    """Charges each tenant's epochs against shared host/TCAM capacity.

    Args:
        sim: queued-request resumptions are scheduled here (delay 0), so
            re-admission interleaves deterministically with other events.
        available_cores: physical A_v per switch (the shared pool).
        tcam_budget: shared classification-entry budget across tenants.
        admission_timeout: sim seconds a request may wait parked before it
            is rejected (bounds every intent's time-to-terminal even under
            genuine capacity exhaustion).
    """

    def __init__(
        self,
        sim: Simulator,
        available_cores: Mapping[str, int],
        tcam_budget: int,
        admission_timeout: float = 8.0,
    ) -> None:
        self.sim = sim
        self.physical: Dict[str, int] = {
            s: int(c) for s, c in available_cores.items() if c > 0
        }
        self.free: Dict[str, int] = dict(self.physical)
        self.tcam_budget = int(tcam_budget)
        self.admission_timeout = admission_timeout
        #: The cores of each tenant's converged plan — held until settle().
        self.steady: Dict[str, Dict[str, int]] = {}
        #: The instances the op currently being installed creates.
        self.inflight: Dict[str, Dict[str, int]] = {}
        self.tcam_used: Dict[str, int] = {}
        self.inflight_tcam: Dict[str, int] = {}
        self.queue: List[_Pending] = []
        # Ledger counters for observability / experiment reporting.
        self.granted_total = 0
        self.queued_total = 0
        self.rejected_total = 0
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

    def charges(self) -> Optional[Dict[str, int]]:
        """Cores charged per tenant (steady + in-flight), or None when any
        ledger invariant is broken (audit hook).

        One pass over both ledgers gives the per-switch sums the invariants
        are checked on and the per-tenant charge the audit compares running
        instances with.  By construction the invariants always hold; the
        cross-tenant audit calls this every tick anyway — defense in depth
        for the zero cross-tenant-violation invariant.
        """
        physical = self.physical
        used = dict.fromkeys(physical, 0)
        charged: Dict[str, int] = {}
        try:
            for tenant_id, m in self.steady.items():
                total = 0
                for sw, c in m.items():
                    used[sw] += c
                    total += c
                charged[tenant_id] = total
            for tenant_id, m in self.inflight.items():
                total = charged.get(tenant_id, 0)
                for sw, c in m.items():
                    used[sw] += c
                    total += c
                charged[tenant_id] = total
        except KeyError:  # a charge on a switch with no physical pool
            return None
        free = self.free
        for sw, cap in physical.items():
            u = used[sw]
            if u > cap or u + free.get(sw, 0) != cap:
                return None
        return None if self.tcam_free < 0 else charged

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
        need: Mapping[str, int],
        tcam_entries: int,
        resume: Callable[[bool], None],
        priority: int = 0,
    ) -> str:
        """Reserve what one realised epoch adds: the cores, per switch, of
        the instances it creates, and its classification entries.

        ``priority`` orders the parked queue (higher first; equal
        priorities keep arrival order), letting gold-SLO tenants drain
        ahead of bronze ones when capacity frees up.

        Returns ``GRANTED`` when the free pool covers the request (it is
        charged as the tenant's in-flight op at once); ``QUEUED`` when it
        fits the physical pool and the TCAM budget but not what is free
        right now — the request parks and ``resume`` fires (as a scheduled
        sim event) with True once it is charged, or with False when the
        admission timeout expires first; ``REJECTED`` when it exceeds a
        physical host or the whole TCAM budget and so could never be
        admitted.
        """
        need = {sw: int(c) for sw, c in sorted(need.items()) if c > 0}
        tcam_entries = int(tcam_entries)
        if tcam_entries > self.tcam_budget or any(
            c > self.physical.get(sw, 0) for sw, c in need.items()
        ):
            self.rejected_total += 1
            return self.REJECTED
        if self._apply_if_fits(tenant_id, need, tcam_entries):
            return self.GRANTED
        pending = _Pending(
            tenant_id, need, tcam_entries, resume, priority, self.queued_total
        )
        self.queue.append(pending)
        self.queued_total += 1
        self.sim.schedule(self.admission_timeout, self._expire, (pending,))
        return self.QUEUED

    def _expire(self, pending: _Pending) -> None:
        """Admission timeout: reject the parked request if still waiting."""
        if self.dead:
            return
        if pending in self.queue:
            self.queue.remove(pending)
            self.rejected_total += 1
            pending.resume(False)

    def _apply_if_fits(
        self, tenant_id: str, need: Dict[str, int], tcam_entries: int
    ) -> bool:
        """Charge a request iff the free pool covers it.

        The request holds only what the epoch creates; the instances it
        keeps stay charged in ``steady`` and the ones it retires keep
        occupying their cores through the make-before-break push, so the
        whole request must come from the free pool.
        """
        for sw, c in need.items():
            if c > self.free.get(sw, 0):
                return False
        if tcam_entries > self.tcam_free:
            return False
        for sw, c in need.items():
            self.free[sw] -= c
        self.inflight[tenant_id] = dict(need)
        self.inflight_tcam[tenant_id] = tcam_entries
        self.granted_total += 1
        return True

    # ------------------------------------------------------------------
    # Settlement
    # ------------------------------------------------------------------
    def settle(self, tenant_id: str, cores: Mapping[str, int]) -> None:
        """The new epoch converged: ``cores`` (its plan's
        ``cores_by_switch()``) becomes the tenant's steady holding.

        The retired instances are drained and the previous epoch's TCAM
        entries are off the wire: what the old plan and the in-flight
        charge held beyond the new plan goes back to the pool.
        """
        held = self.steady.pop(tenant_id, {})
        for sw, c in self.inflight.pop(tenant_id, {}).items():
            held[sw] = held.get(sw, 0) + c
        new_steady = {sw: int(c) for sw, c in cores.items() if c > 0}
        for sw in {*held, *new_steady}:
            self.free[sw] += held.get(sw, 0) - new_steady.get(sw, 0)
        if new_steady:
            self.steady[tenant_id] = new_steady
        if tenant_id in self.inflight_tcam:
            self.tcam_used[tenant_id] = self.inflight_tcam.pop(tenant_id)
        self._drain()

    def release(self, tenant_id: str) -> None:
        """Tear a tenant down: return every core and TCAM entry."""
        for ledger in (self.steady, self.inflight):
            for sw, c in ledger.pop(tenant_id, {}).items():
                self.free[sw] += c
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
        *preference*, not a strict queue."""
        if self.dead:
            return
        admitted = True
        while admitted:
            admitted = False
            for pending in sorted(self.queue, key=lambda p: (-p.priority, p.seq)):
                if self._apply_if_fits(
                    pending.tenant_id, pending.need, pending.tcam_entries
                ):
                    self.queue.remove(pending)
                    self.sim.schedule(0.0, pending.resume, (True,))
                    admitted = True
