"""The typed tenant intent API: day-0/day-2 ops as immutable messages.

Tenants never touch the controller directly; they submit intents.  Each
intent names a tenant and (except :class:`UpdateRates`) one policy chain
of that tenant's blueprint.  Intents are validated structurally before
they are enqueued (:meth:`Intent.validate`), and tracked end to end by an
:class:`IntentRecord` whose status walks::

    accepted -> (waiting) -> in_progress -> completed
                                         -> rejected   (capacity)
                                         -> failed     (bad reference)

``waiting`` covers both the tenant worker's FIFO and the capacity
arbiter's admission queue — the intent is parked, not lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


class IntentValidationError(ValueError):
    """An intent that is malformed on its face (bad rate, empty chain...)."""


def _check_rate(what: str, rate: float) -> None:
    if not 0 < rate < math.inf:
        raise IntentValidationError(
            f"{what}: rate must be positive and finite, got {rate!r}"
        )


#: Terminal + transient states of an intent record.
ACCEPTED = "accepted"
WAITING = "waiting"
IN_PROGRESS = "in_progress"
COMPLETED = "completed"
REJECTED = "rejected"
FAILED = "failed"

TERMINAL_STATES = (COMPLETED, REJECTED, FAILED)


@dataclass(frozen=True)
class Intent:
    """Base class: every intent belongs to exactly one tenant."""

    tenant_id: str

    #: Message kind, overridden per subclass ("create" / "update" / ...).
    kind = "intent"

    def validate(self) -> None:
        if not self.tenant_id:
            raise IntentValidationError("intent without a tenant_id")


@dataclass(frozen=True)
class CreateChain(Intent):
    """Day-0: provision one policy chain between two endpoints.

    Attributes:
        chain_id: tenant-scoped chain name (unique within the tenant).
        src / dst: ingress and egress switches.
        chain: the ordered NF sequence.
        rate_mbps: the chain's provisioned traffic rate.
        slo: SLO class name (see :mod:`repro.elastic.slo`); feeds the
            arbiter's admission priority and the elastic loop's shed
            cost.
    """

    chain_id: str = ""
    src: str = ""
    dst: str = ""
    chain: Tuple[str, ...] = ()
    rate_mbps: float = 0.0
    slo: str = "silver"

    kind = "create"

    def validate(self) -> None:
        super().validate()
        if not self.chain_id:
            raise IntentValidationError("CreateChain without a chain_id")
        if not self.src or not self.dst or self.src == self.dst:
            raise IntentValidationError(
                f"CreateChain {self.chain_id!r}: need distinct src and dst"
            )
        if not self.chain:
            raise IntentValidationError(
                f"CreateChain {self.chain_id!r}: empty policy chain"
            )
        _check_rate(f"CreateChain {self.chain_id!r}", self.rate_mbps)
        from repro.elastic.slo import SLO_CLASSES

        if self.slo not in SLO_CLASSES:
            raise IntentValidationError(
                f"CreateChain {self.chain_id!r}: unknown SLO class {self.slo!r}"
            )


@dataclass(frozen=True)
class UpdateRates(Intent):
    """Day-2: set new provisioned rates for existing chains."""

    rates: Tuple[Tuple[str, float], ...] = ()

    kind = "update"

    def validate(self) -> None:
        super().validate()
        if not self.rates:
            raise IntentValidationError("UpdateRates without any rates")
        for chain_id, rate in self.rates:
            if not chain_id:
                raise IntentValidationError("UpdateRates with an empty chain_id")
            _check_rate(f"UpdateRates {chain_id!r}", rate)


@dataclass(frozen=True)
class ScaleChain(Intent):
    """Day-2: multiply one chain's provisioned rate by ``factor``."""

    chain_id: str = ""
    factor: float = 1.0

    kind = "scale"

    def validate(self) -> None:
        super().validate()
        if not self.chain_id:
            raise IntentValidationError("ScaleChain without a chain_id")
        if self.factor <= 0:
            raise IntentValidationError(
                f"ScaleChain {self.chain_id!r}: factor must be positive"
            )


@dataclass(frozen=True)
class DeleteChain(Intent):
    """Day-2: decommission one chain (the last chain tears the tenant down)."""

    chain_id: str = ""

    kind = "delete"

    def validate(self) -> None:
        super().validate()
        if not self.chain_id:
            raise IntentValidationError("DeleteChain without a chain_id")


@dataclass(frozen=True)
class Replan(Intent):
    """Day-2: re-plan the blueprint on the live substrate as it is now —
    a failure detector's verdict batch, or an elastic scale action.

    ``rates`` / ``victims`` are the cheapest-first candidate verdicts of an
    elastic action (:class:`~repro.elastic.admission.Candidates`: planning
    Mbps per class id, then ``(class id, degrade floor)`` per victim in shed
    order); the worker adopts the first one that places
    (:func:`~repro.elastic.admission.admit`) when its epoch converges.  No
    ``rates`` keeps the last converged verdict.
    """

    rates: Tuple[Tuple[str, float], ...] = ()
    victims: Tuple[Tuple[str, float], ...] = ()

    kind = "replan"

    def validate(self) -> None:
        super().validate()
        if self.victims and not self.rates:
            raise IntentValidationError("Replan victims without rates")
        for class_id, rate in self.rates:
            _check_rate(f"Replan {class_id!r}", rate)
        unlisted = dict(self.rates)
        for class_id, floor in self.victims:
            if unlisted.pop(class_id, None) is None:
                raise IntentValidationError(
                    f"Replan victim {class_id!r}: unknown or listed twice"
                )
            if not 0 < floor <= 1:
                raise IntentValidationError(
                    f"Replan victim {class_id!r}: floor must be in (0, 1], "
                    f"got {floor!r}"
                )


@dataclass
class IntentRecord:
    """Mutable lifecycle envelope around one submitted intent."""

    intent: Intent
    seq: int
    submitted_at: float
    status: str = ACCEPTED
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: Human-readable reason for rejected/failed outcomes.
    detail: str = ""
    #: Idempotency cookie (seed-deterministic, stamped by the bus).
    #: Journal replay after a controller crash skips any record whose
    #: cookie already reached a terminal state — exactly-once effects.
    cookie: str = ""
    #: Told how the op went (see :mod:`repro.tenancy.worker`); not journaled.
    observer: Optional[Any] = field(default=None, repr=False, compare=False)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def latency(self) -> Optional[float]:
        """Submit → terminal sim-time latency (None while in flight)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

# ----------------------------------------------------------------------
# Journal codec
# ----------------------------------------------------------------------
def intent_to_payload(intent: Intent) -> Dict[str, object]:
    """Encode an intent as a JSON-compatible journal payload.

    Rates are stored *unrounded*: the write-ahead journal must replay to
    a bit-identical blueprint, and JSON round-trips Python floats
    exactly.
    """
    payload: Dict[str, object] = {"kind": intent.kind, "tenant": intent.tenant_id}
    if isinstance(intent, CreateChain):
        payload.update(
            chain_id=intent.chain_id,
            src=intent.src,
            dst=intent.dst,
            chain=list(intent.chain),
            rate_mbps=intent.rate_mbps,
            slo=intent.slo,
        )
    elif isinstance(intent, UpdateRates):
        payload["rates"] = [[cid, rate] for cid, rate in intent.rates]
    elif isinstance(intent, ScaleChain):
        payload.update(chain_id=intent.chain_id, factor=intent.factor)
    elif isinstance(intent, DeleteChain):
        payload["chain_id"] = intent.chain_id
    elif isinstance(intent, Replan):
        payload["rates"] = [[cid, rate] for cid, rate in intent.rates]
        payload["victims"] = [[cid, floor] for cid, floor in intent.victims]
    else:
        raise IntentValidationError(f"cannot encode intent {intent!r}")
    return payload


def intent_from_payload(payload: Dict[str, object]) -> Intent:
    """Decode a journal payload back into its frozen intent."""
    kind = payload["kind"]
    tenant = payload["tenant"]
    if kind == CreateChain.kind:
        return CreateChain(
            tenant_id=tenant,
            chain_id=payload["chain_id"],
            src=payload["src"],
            dst=payload["dst"],
            chain=tuple(payload["chain"]),
            rate_mbps=payload["rate_mbps"],
            slo=payload["slo"],
        )
    if kind == UpdateRates.kind:
        return UpdateRates(
            tenant_id=tenant,
            rates=tuple((cid, rate) for cid, rate in payload["rates"]),
        )
    if kind == ScaleChain.kind:
        return ScaleChain(
            tenant_id=tenant,
            chain_id=payload["chain_id"],
            factor=payload["factor"],
        )
    if kind == DeleteChain.kind:
        return DeleteChain(tenant_id=tenant, chain_id=payload["chain_id"])
    if kind == Replan.kind:
        return Replan(
            tenant,
            rates=tuple((cid, rate) for cid, rate in payload["rates"]),
            victims=tuple((cid, floor) for cid, floor in payload["victims"]),
        )
    raise IntentValidationError(f"cannot decode intent kind {kind!r}")
