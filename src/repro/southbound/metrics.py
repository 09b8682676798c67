"""Deterministic counters for the southbound channel and fabric.

Mirrors the design of :class:`~repro.chaos.metrics.ChaosMetrics`: plain
Python counters fed exclusively from simulated state (never wall clock),
so ``to_dict()`` — and therefore a run's signature — is bit-identical
across same-seed invocations.  The :mod:`repro.obs` registry is updated
alongside when enabled; obs stays read-only with respect to the
simulation, so enabling it cannot perturb these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro import obs

#: Transaction outcomes (keys of :attr:`SouthboundMetrics.transactions`).
TXN_COMMITTED = "committed"
TXN_ROLLED_BACK = "rolled_back"
TXN_FAILED = "failed"
TXN_COMMITTED_PARTIAL = "committed_partial"
TXN_SUPERSEDED = "superseded"

_OUTCOMES = (
    TXN_COMMITTED,
    TXN_ROLLED_BACK,
    TXN_FAILED,
    TXN_COMMITTED_PARTIAL,
    TXN_SUPERSEDED,
)


@dataclass
class EpochConvergence:
    """One desired-state epoch reaching zero drift everywhere."""

    epoch: int
    pushed_at: float
    converged_at: float

    @property
    def latency(self) -> float:
        return self.converged_at - self.pushed_at

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "pushed_at": round(self.pushed_at, 9),
            "converged_at": round(self.converged_at, 9),
            "latency": round(self.latency, 9),
        }


@dataclass
class SouthboundMetrics:
    """Counter ledger of one fabric's lifetime."""

    messages_sent: int = 0  # first attempts
    retries: int = 0  # retransmissions (attempts beyond the first)
    messages_lost: int = 0  # legs dropped by loss/disconnect
    acks: Dict[str, int] = field(
        default_factory=lambda: {"applied": 0, "duplicate": 0, "stale": 0}
    )
    timeouts: int = 0
    give_ups: int = 0  # messages failed after MAX_ATTEMPTS
    circuit_opens: int = 0
    degraded_seconds: float = 0.0  # total circuit-open time across switches
    transactions: Dict[str, int] = field(
        default_factory=lambda: {k: 0 for k in _OUTCOMES}
    )
    rollback_ops: int = 0
    reconcile_ticks: int = 0
    reconcile_repairs: int = 0
    max_observed_drift: int = 0
    convergences: List[EpochConvergence] = field(default_factory=list)

    def __post_init__(self) -> None:
        # The registry is fed at each event below and nowhere else; naming
        # the labelled series here makes a result that never happened read 0.
        if obs.REGISTRY.enabled:
            messages = obs.metric("southbound_messages_total")
            for result in ["sent", "lost", "give_up"] + [
                f"ack_{status}" for status in self.acks
            ]:
                messages.labels(result=result)
            transactions = obs.metric("southbound_transactions_total")
            for outcome in self.transactions:
                transactions.labels(outcome=outcome)

    # ------------------------------------------------------------------
    def record_send(self, attempt: int) -> None:
        if attempt == 1:
            self.messages_sent += 1
            self._obs_inc("southbound_messages_total", result="sent")
        else:
            self.retries += 1
            self._obs_inc("southbound_retries_total")

    def record_loss(self) -> None:
        self.messages_lost += 1
        self._obs_inc("southbound_messages_total", result="lost")

    def record_ack(self, status: str) -> None:
        self.acks[status] = self.acks.get(status, 0) + 1
        self._obs_inc("southbound_messages_total", result=f"ack_{status}")

    def record_timeout(self) -> None:
        self.timeouts += 1
        self._obs_inc("southbound_timeouts_total")

    def record_give_up(self) -> None:
        self.give_ups += 1
        self._obs_inc("southbound_messages_total", result="give_up")

    def record_circuit_open(self) -> None:
        self.circuit_opens += 1
        self._obs_inc("southbound_circuit_opens_total")

    def record_transaction(self, outcome: str, rollback_ops: int = 0) -> None:
        self.transactions[outcome] = self.transactions.get(outcome, 0) + 1
        self.rollback_ops += rollback_ops
        if obs.REGISTRY.enabled:
            obs.metric("southbound_transactions_total").labels(
                outcome=outcome
            ).inc()
            if rollback_ops:
                obs.metric("southbound_rollback_ops_total").inc(rollback_ops)

    def record_reconcile(self, drift: int, repaired: bool) -> None:
        self.reconcile_ticks += 1
        if drift > self.max_observed_drift:
            self.max_observed_drift = drift
        if repaired:
            self.reconcile_repairs += 1
            self._obs_inc("southbound_reconcile_repairs_total")

    def record_convergence(self, record: EpochConvergence) -> None:
        self.convergences.append(record)
        if obs.REGISTRY.enabled:
            obs.metric("southbound_convergence_seconds").observe(record.latency)

    # ------------------------------------------------------------------
    @staticmethod
    def _obs_inc(name: str, **labels: str) -> None:
        if obs.REGISTRY.enabled:
            m = obs.metric(name)
            (m.labels(**labels) if labels else m).inc()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "messages_sent": self.messages_sent,
            "retries": self.retries,
            "messages_lost": self.messages_lost,
            "acks": dict(sorted(self.acks.items())),
            "timeouts": self.timeouts,
            "give_ups": self.give_ups,
            "circuit_opens": self.circuit_opens,
            "degraded_seconds": round(self.degraded_seconds, 9),
            "transactions": dict(sorted(self.transactions.items())),
            "rollback_ops": self.rollback_ops,
            "reconcile_ticks": self.reconcile_ticks,
            "reconcile_repairs": self.reconcile_repairs,
            "max_observed_drift": self.max_observed_drift,
            "convergences": [c.to_dict() for c in self.convergences],
        }
