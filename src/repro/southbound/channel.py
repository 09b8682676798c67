"""The per-switch control channel: rule writer, agent, loss model, retries.

:func:`apply_ops` is the one writer of APPLE rules, at day 0 (straight
from the rendered state) and inside every acked message after it.  One
:class:`SwitchAgent` + :class:`ControlChannel` pair exists per
physical switch.  The agent is the switch-resident half: it applies op
bundles exactly once per cookie (the message's identity, see
:mod:`repro.southbound.messages`),
rejecting superseded epochs.  Ops arrive checked (a
:class:`ControlMessage` with a malformed op cannot be built), so a bundle
is applied whole; a ``classify_sync`` is one table mutation
(:meth:`~repro.dataplane.tcam.TcamTable.sync_prefix`) that keeps every
classification entry whose spec did not change.  The channel is the
controller-resident half: it delivers messages through a seeded loss/delay model,
retransmits on timeout with exponential backoff and deterministic
jitter, bounds the in-flight window, and opens a circuit breaker after
consecutive timeouts (the switch is then *degraded*: probed at a slow
cadence instead of hammered).

Determinism: every attempt draws exactly five values from the channel's
own substream (forward-loss, forward-extra-delay, ack-loss,
ack-extra-delay, timeout-jitter) in a fixed order, whether or not each
value ends up mattering, so the draw sequence — and therefore the whole
run — is a pure function of the seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Sequence

from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.tcam import TcamEntry
from repro.dataplane.vswitch import VSwitchRule
from repro.sim.kernel import Simulator
from repro.sim.rng import SeededRNG
from repro.southbound.config import (
    APPLY_FRACTION,
    CIRCUIT_PROBE_INTERVAL,
    CIRCUIT_THRESHOLD,
    INSTALL_LATENCY,
    JITTER_FRAC,
    MAX_ATTEMPTS,
    MAX_INFLIGHT,
    SouthboundChaosConfig,
    rto,
)
from repro.southbound.messages import (
    ACK_APPLIED,
    ACK_DUPLICATE,
    ACK_STALE,
    Ack,
    ControlMessage,
)
from repro.southbound.metrics import SouthboundMetrics

#: Result handed to a sender whose message exhausted ``MAX_ATTEMPTS``.
RESULT_FAILED = "failed"

#: Op kinds applied to the switch's host vSwitch.
_VSWITCH_OPS = frozenset({"vsw_put", "vsw_del", "origin_sync"})
#: Op kinds that carry the paths of the classes they reclassify.
_SYNC_OPS = frozenset({"classify_sync", "origin_sync"})


def apply_ops(
    network: DataPlaneNetwork,
    switch: str,
    ops: Sequence[tuple],
    on_paths: Optional[Callable[[tuple], None]] = None,
) -> int:
    """Apply well-formed ``ops`` in order to ``switch``'s TCAM table and
    host vSwitch; a sync op registers the paths it carries where they
    changed and hands them to ``on_paths``.  Returns the ops applied (a
    ``vsw_put`` naming an instance the vSwitch lacks is skipped)."""
    table = network.switches[switch].table
    vsw = None
    applied = 0
    for op in ops:
        kind = op[0]
        if vsw is None and kind in _VSWITCH_OPS:
            vsw = network.vswitch_at(switch)
        if kind == "vsw_put":
            try:
                vsw.install_rule(op[1], op[2], VSwitchRule.from_spec(op[3], op[4]))
            except KeyError:
                # An instance died between desired-state render and apply
                # (e.g. a VNF crash raced the repair).  Skip: the drift
                # stays visible to the reconciler, and recovery's next push
                # stops referencing the dead instance.
                continue
        elif kind == "vsw_del":
            vsw.remove_rule(op[1], op[2])
        elif kind == "classify_sync":
            # The atomic swap: all classification entries of this switch
            # and the registered paths of the classes ingressing here
            # change in one sim event (an OpenFlow bundle in miniature).
            table.sync_prefix(f"{switch}/classify/", op[1])
        elif kind == "tcam_put":
            table.replace(TcamEntry.from_spec(op[1]))
        elif kind == "tcam_del":
            table.remove_by_name(op[1])
        else:  # "origin_sync": no other kind is well formed
            vsw.clear_origin_rules()
            for class_id, hash_range, sub_id, first_host in op[1]:
                vsw.install_origin_rule(class_id, tuple(hash_range), sub_id, first_host)
        if kind in _SYNC_OPS:
            for class_id, path in op[2]:
                if network.class_paths.get(class_id) != tuple(path):
                    network.register_class_path(class_id, path)
            if on_paths is not None and op[2]:
                on_paths(op[2])
        applied += 1
    return applied


class SwitchAgent:
    """Switch-resident message receiver with idempotency + epoch fencing.

    Args:
        on_paths_applied: called with the ``paths`` tuple of an applied
            ``classify_sync`` / ``origin_sync`` (the fabric tracks which
            routing paths are live for probe expectations).
    """

    def __init__(
        self,
        switch: str,
        network: DataPlaneNetwork,
        on_paths_applied: Optional[Callable[[tuple], None]] = None,
    ) -> None:
        self.switch = switch
        self.network = network
        self.on_paths_applied = on_paths_applied
        self.current_epoch = -1
        self.applied_cookies: set = set()
        self.ops_applied = 0

    def receive(self, msg: ControlMessage) -> Ack:
        """Apply a message exactly once; returns the ack to send back."""
        if msg.epoch < self.current_epoch:
            # A newer desired state owns this switch; applying would
            # clobber it (the classic stale-retransmission hazard).
            return Ack(msg.cookie, ACK_STALE)
        if msg.epoch > self.current_epoch:
            self.current_epoch = msg.epoch
            self.applied_cookies.clear()
        if msg.cookie in self.applied_cookies:
            return Ack(msg.cookie, ACK_DUPLICATE)
        self.ops_applied += apply_ops(
            self.network, self.switch, msg.ops, self.on_paths_applied
        )
        self.applied_cookies.add(msg.cookie)
        return Ack(msg.cookie, ACK_APPLIED)


@dataclass
class _Pending:
    """One message's delivery state on the controller side."""

    msg: ControlMessage
    on_result: Callable[[str], None]
    attempts: int = 0
    done: bool = False
    timeout_event: object = field(default=None, repr=False)


class ControlChannel:
    """Controller-side reliable delivery to one switch.

    Args:
        rng: this channel's private substream
            (``derive(derive(seed, "chaos.southbound"), "channel.<switch>")``).
        on_circuit_open / on_circuit_close: degradation hooks
            ``(switch, now)`` — the chaos layer records detections here.
    """

    def __init__(
        self,
        sim: Simulator,
        agent: SwitchAgent,
        chaos: SouthboundChaosConfig,
        rng: SeededRNG,
        metrics: SouthboundMetrics,
        on_circuit_open: Optional[Callable[[str, float], None]] = None,
        on_circuit_close: Optional[Callable[[str, float], None]] = None,
    ) -> None:
        self.sim = sim
        self.agent = agent
        self.chaos = chaos
        self.rng = rng
        self.metrics = metrics
        self.on_circuit_open = on_circuit_open
        self.on_circuit_close = on_circuit_close
        self.disconnected = False
        #: Set when the controller crashes (repro.resilience): every
        #: already-scheduled delivery / ack / timeout becomes a no-op, so
        #: a dead controller can neither send nor observe anything.
        self.dead = False
        self.circuit_open = False
        self.consecutive_timeouts = 0
        self._circuit_opened_at: Optional[float] = None
        self._queue: Deque[_Pending] = deque()
        self._inflight: Dict[str, _Pending] = {}

    @property
    def switch(self) -> str:
        return self.agent.switch

    # ------------------------------------------------------------------
    def send(self, msg: ControlMessage, on_result: Callable[[str], None]) -> None:
        """Queue a message; ``on_result`` fires exactly once with the ack
        status (or :data:`RESULT_FAILED` after ``MAX_ATTEMPTS``)."""
        self._queue.append(_Pending(msg=msg, on_result=on_result))
        self._pump()

    def disconnect(self) -> None:
        """Sever the channel: every leg in either direction is lost."""
        self.disconnected = True

    def reconnect(self) -> None:
        """Restore the channel; pending messages recover via retries."""
        self.disconnected = False

    def finalize(self, now: float) -> None:
        """Fold a still-open circuit into the degraded-time counter."""
        if self.circuit_open and self._circuit_opened_at is not None:
            self.metrics.degraded_seconds += now - self._circuit_opened_at
            self._circuit_opened_at = now

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        while self._queue and len(self._inflight) < MAX_INFLIGHT:
            pending = self._queue.popleft()
            self._inflight[pending.msg.cookie] = pending
            self._attempt(pending)

    def _attempt(self, pending: _Pending) -> None:
        if pending.done or self.dead:
            return
        pending.attempts += 1
        attempt = pending.attempts
        # Fixed five-draw sequence per attempt (see module docstring).
        u_loss_fwd = self.rng.uniform()
        extra_fwd = self.rng.exponential(self.chaos.extra_delay_mean)
        u_loss_back = self.rng.uniform()
        extra_back = self.rng.exponential(self.chaos.extra_delay_mean)
        u_jitter = self.rng.uniform()

        self.metrics.record_send(attempt)
        if self.disconnected or u_loss_fwd < self.chaos.loss_rate:
            self.metrics.record_loss()
        else:
            forward = INSTALL_LATENCY * APPLY_FRACTION + extra_fwd
            back = INSTALL_LATENCY * (1.0 - APPLY_FRACTION) + extra_back
            lost_back = u_loss_back < self.chaos.loss_rate
            self.sim.schedule(
                forward, self._deliver, args=(pending, lost_back, back)
            )
        timeout = rto(attempt) * (1.0 + JITTER_FRAC * (2.0 * u_jitter - 1.0))
        pending.timeout_event = self.sim.schedule(
            timeout, self._on_timeout, args=(pending, attempt)
        )

    def _deliver(self, pending: _Pending, lost_back: bool, back: float) -> None:
        if self.dead:
            return
        if self.disconnected:
            # The disconnect landed while the request was in flight.
            self.metrics.record_loss()
            return
        ack = self.agent.receive(pending.msg)
        if lost_back:
            self.metrics.record_loss()
            return
        self.sim.schedule(back, self._on_ack, args=(pending, ack))

    def _on_ack(self, pending: _Pending, ack: Ack) -> None:
        if self.dead:
            return
        if pending.done:
            return  # a retransmission's ack for an already-settled message
        if self.disconnected:
            self.metrics.record_loss()
            return
        pending.done = True
        if pending.timeout_event is not None:
            pending.timeout_event.cancel()
        self._inflight.pop(pending.msg.cookie, None)
        self.consecutive_timeouts = 0
        self._close_circuit()
        self.metrics.record_ack(ack.status)
        pending.on_result(ack.status)
        self._pump()

    def _on_timeout(self, pending: _Pending, attempt: int) -> None:
        if self.dead:
            return
        if pending.done or pending.attempts != attempt:
            return  # stale timer of an earlier attempt
        self.metrics.record_timeout()
        self.consecutive_timeouts += 1
        if (
            not self.circuit_open
            and self.consecutive_timeouts >= CIRCUIT_THRESHOLD
        ):
            self._open_circuit()
        if pending.attempts >= MAX_ATTEMPTS:
            pending.done = True
            self._inflight.pop(pending.msg.cookie, None)
            self.metrics.record_give_up()
            pending.on_result(RESULT_FAILED)
            self._pump()
            return
        if self.circuit_open:
            # Degraded: probe at a slow cadence instead of tight backoff.
            self.sim.schedule(CIRCUIT_PROBE_INTERVAL, self._attempt, args=(pending,))
        else:
            self._attempt(pending)

    # ------------------------------------------------------------------
    def _open_circuit(self) -> None:
        self.circuit_open = True
        self._circuit_opened_at = self.sim.now
        self.metrics.record_circuit_open()
        if self.on_circuit_open is not None:
            self.on_circuit_open(self.switch, self.sim.now)

    def _close_circuit(self) -> None:
        if not self.circuit_open:
            return
        self.circuit_open = False
        if self._circuit_opened_at is not None:
            self.metrics.degraded_seconds += self.sim.now - self._circuit_opened_at
        self._circuit_opened_at = None
        if self.on_circuit_close is not None:
            self.on_circuit_close(self.switch, self.sim.now)
