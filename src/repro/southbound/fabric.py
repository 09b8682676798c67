"""The southbound fabric: desired state, transactions, anti-entropy.

:class:`SouthboundFabric` owns the control channels to the physical
switches (one per switch, built when the switch is first addressed) and
the single *desired* :class:`~repro.southbound.state.NetworkState`.
State changes flow through exactly one door:

* :meth:`adopt` — bless the network's day-0 state as desired epoch 0
  without pushing anything, so enabling the fabric on an
  already-deployed network is a no-op on the wire.
* :meth:`push_desired` — render a new desired state from fresh
  :class:`~repro.core.rulegen.GeneratedRules` (bumping per-class
  versions where content changed), open a new epoch, and drive a
  make-before-break :class:`~repro.southbound.transaction.Transaction`
  toward it.
* the **reconciler** — a periodic anti-entropy pass diffing installed
  against desired and repairing drift with fresh transactions (same
  epoch, new transaction IDs), regardless of *why* the drift exists:
  lost rollbacks, partial deletes, failed swaps, or a vSwitch shedding
  rules when a VM died.  A fabric at rest *parks* it (see
  :class:`SouthboundFabric`): no tick is scheduled until something that
  can make drift happens.

An epoch *converges* when a diff comes back empty; the fabric records
the convergence latency and fires the epoch's ``on_converged`` callback
exactly once — with the convergence record, or with ``None`` if a later
:meth:`push_desired` replaced the epoch before it got there.
:func:`repro.core.reconfigure.commit` hangs the deployment swap and
verification off it, and never pushes over an open epoch.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.rulegen import GeneratedRules, RuleGenerator
from repro.dataplane.network import DataPlaneNetwork
from repro.sim.kernel import Simulator, Timer
from repro.sim.rng import SeededRNG, derive
from repro.southbound.channel import ControlChannel, SwitchAgent
from repro.southbound.config import (
    RECONCILE_INTERVAL,
    SOUTHBOUND_STREAM,
    SouthboundChaosConfig,
)
from repro.southbound.metrics import (
    EpochConvergence,
    SouthboundMetrics,
    TXN_COMMITTED,
)
from repro.southbound.state import (
    InstalledView,
    NetworkState,
    SwitchDiff,
    class_fingerprints,
    read_installed,
    render_desired,
)
from repro.southbound.transaction import Transaction
from repro.traffic.classes import TrafficClass
from repro.vnf.instance import VNFInstance


#: How an epoch ended: its convergence record, or ``None`` = superseded.
EpochCallback = Callable[[Optional[EpochConvergence]], None]


class _Channels(dict):
    """``switch -> ControlChannel``; a missing switch is built on first use."""

    def __init__(self, build: Callable[[str], ControlChannel]) -> None:
        super().__init__()
        self._build: Optional[Callable[[str], ControlChannel]] = build

    def __missing__(self, switch: str) -> ControlChannel:
        if self._build is None:  # dropped by SouthboundFabric.stop()
            raise KeyError(f"{switch}: the fabric is stopped")
        channel = self[switch] = self._build(switch)
        return channel


class SouthboundFabric:
    """Fault-tolerant rule distribution for one data-plane network.

    A switch's control channel (with its agent and RNG) is built the first
    time the fabric addresses that switch — a transaction message, or
    :meth:`disconnect` / :meth:`reconnect` — so a fabric pays only for the
    switches it talks to.  Each channel draws from its own substream
    ``derive(derive(seed, "chaos.southbound"), "channel.<switch>")``, so
    what it draws does not depend on when it, or any other channel, was
    built.  ``channels`` holds the channels that exist; a switch without
    one has sent nothing, holds no degraded time and cannot be degraded.

    **A fabric at rest schedules nothing.**  The reconciler ticks every
    :data:`RECONCILE_INTERVAL` from :meth:`start`.  A tick that finds zero
    drift, no open transaction and the epoch already converged *parks*
    it: no further tick is scheduled, and the fabric listens on the
    network's :class:`~repro.dataplane.tcam.RuleEpoch` instead.  Only these
    can make a later tick find work, and each one wakes it:

    * :meth:`push_desired`, :meth:`adopt` and :meth:`restore` (a new
      desired state), and a transaction's end;
    * :meth:`disconnect` / :meth:`reconnect`;
    * any move of the network's rule epoch — every rule mutation moves it,
      so a chaos wipe or drift written behind the fabric's back is seen.

    The parked :class:`~repro.sim.kernel.Timer` keeps its place: a woken
    reconciler ticks next at the very tick it would have fired next had it
    kept ticking — the same accumulated float time, and the same order
    against any other event at that instant — so repairs land when, and
    measure what, an always-ticking reconciler's would.  The idle ticks
    skipped at rest are added to ``metrics.reconcile_ticks`` before anything
    reads them (:attr:`metrics`, so :meth:`state_signature`, and
    :meth:`stop`), so every signature is what ticking would have given.

    Args:
        seed: the *run* seed; all channel randomness lives on
            ``derive(seed, "chaos.southbound")`` child streams, so the
            fabric never perturbs traffic or data-plane chaos draws.
        rulegen: used to materialise VNF instances referenced by pushed
            rules (instance creation is hypervisor-local, not a rule).
        chaos: the control-plane fault model; the default injects
            nothing, making the channel a deterministic 70 ms round trip.
    """

    def __init__(
        self,
        sim: Simulator,
        network: DataPlaneNetwork,
        seed: int,
        rulegen: RuleGenerator,
        chaos: Optional[SouthboundChaosConfig] = None,
        drain_retired: bool = False,
    ) -> None:
        self.sim = sim
        self.network = network
        self.rulegen = rulegen
        #: Opt-in make-before-break instance drain (elastic scale-in):
        #: when a pushed epoch stops referencing an instance, the fabric
        #: shuts it down at convergence — after the new rules are live
        #: everywhere, so no packet ever needed the retired instance.
        self.drain_retired = drain_retired
        self.drained_total = 0
        self._retiring: List[str] = []
        self.chaos = chaos or SouthboundChaosConfig()
        self._metrics = SouthboundMetrics()
        #: Degradation hooks for the chaos layer (set by the scenario runner).
        self.on_degraded: Optional[Callable[[str, float], None]] = None
        self.on_restored: Optional[Callable[[str, float], None]] = None

        self._channel_seed = derive(seed, SOUTHBOUND_STREAM)
        #: Set by :meth:`kill`; a channel born afterwards is born dead.
        self._killed = False
        #: The channels that exist.  Indexing a switch that has none yet
        #: builds it, so iteration sees only switches already addressed.
        self.channels: Dict[str, ControlChannel] = _Channels(self._open_channel)

        self.desired: Optional[NetworkState] = None
        self._view = InstalledView(network)
        self.epoch = 0
        self.converged_epoch = -1
        self.desired_since = 0.0
        self.versions: Dict[str, int] = {}
        self._fingerprints: Dict[str, tuple] = {}
        self.instances: Dict[str, VNFInstance] = {}
        self.active_paths: Dict[str, tuple] = {}
        self._txn_counter = 0
        #: Diff summary of the most recent :meth:`push_desired` (not of
        #: reconciler repairs); recovery reports it per convergence.
        self.last_push: Dict[str, int] = {"switches": 0, "ops": 0, "vsw_ops": 0}
        self.current_txn: Optional[Transaction] = None
        #: The open epoch's committer; cleared when it has been told how
        #: the epoch ended (converged / superseded).
        self._on_converged: Optional[EpochCallback] = None
        self._reconcile_timer: Optional[Timer] = None
        self._parked = False

    @property
    def metrics(self) -> SouthboundMetrics:
        """The fabric's counters, idle ticks skipped at rest included."""
        self._count_idle_ticks()
        return self._metrics

    # ------------------------------------------------------------------
    # Desired-state lifecycle
    # ------------------------------------------------------------------
    def adopt(
        self,
        rules: GeneratedRules,
        classes: Sequence[TrafficClass],
        instances: Optional[Dict[str, VNFInstance]] = None,
    ) -> None:
        """Bless the day-0 state (:func:`repro.core.reconfigure.bootstrap`)
        as desired epoch 0, converged by construction: a :meth:`restore`
        with no versions at epoch 0 of the instances day 0 created."""
        self.restore(rules, classes, instances or {}, {}, 0, 0)

    def push_desired(
        self,
        rules: GeneratedRules,
        classes: Sequence[TrafficClass],
        stranded: Optional[Dict[str, str]] = None,
        instances: Optional[Dict[str, VNFInstance]] = None,
        on_converged: Optional[EpochCallback] = None,
    ) -> int:
        """Open a new desired-state epoch and start pushing toward it.

        Args:
            stranded: ``class_id -> ingress switch`` of quarantined
                classes (their rules are withdrawn; a DROP guards the
                ingress; their registered path is deliberately kept so
                in-flight packets still walk into the DROP).
            instances: the surviving instance map (replaces the
                fabric's; dead instances must not linger here).
            on_converged: fired exactly once: with the
                :class:`EpochConvergence` when every switch first reaches
                zero drift against this epoch, or with ``None`` when a
                later push supersedes the epoch before that.

        Returns:
            The new epoch number.
        """
        self._wake()
        superseded, self._on_converged = self._on_converged, None
        if superseded is not None:
            superseded(None)
        stranded = dict(stranded or {})
        if instances is not None:
            self.instances = dict(instances)
        fingerprints = class_fingerprints(rules, classes)
        for cid, fp in fingerprints.items():
            old = self._fingerprints.get(cid)
            if old is not None and old != fp:
                # Content changed: new sub-ID version => pure-add rules.
                self.versions[cid] = self.versions.get(cid, 0) + 1
        self._fingerprints = fingerprints

        self.instances = self.rulegen.materialize_instances(
            rules, self.network, sim=self.sim, instances=self.instances
        )
        if self.drain_retired:
            referenced = {
                key
                for rule_list in rules.vswitch_rules.values()
                for _, _, rule in rule_list
                for key in rule.instance_ids
            }
            self._retiring = sorted(k for k in self.instances if k not in referenced)
        else:
            self._retiring = []
        self.desired = render_desired(
            sorted(self.network.switches),
            sorted(self.network.vswitches),
            rules,
            classes,
            stranded,
            self.versions,
        )
        self.epoch += 1
        self.desired_since = self.sim.now
        self._on_converged = on_converged
        diffs = self._diffs()
        vsw_kinds = ("vsw_put", "vsw_del", "origin_sync")
        self.last_push = {
            "switches": len(diffs),
            "ops": sum(d.op_count() for d in diffs),
            "vsw_ops": sum(
                1
                for d in diffs
                for op in (*d.adds, *d.swap, *d.dels)
                if op[0] in vsw_kinds
            ),
        }
        self._launch(diffs)
        return self.epoch

    # ------------------------------------------------------------------
    # Reconciliation (anti-entropy)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic reconciler (first tick one interval from now)."""
        if self._reconcile_timer is None:
            self._reconcile_timer = self.sim.every(
                RECONCILE_INTERVAL, self._reconcile
            )

    def stop(self) -> None:
        """Disarm the reconciler and settle degraded-time accounting.

        A stopped fabric is done with its channels: it takes back the
        callbacks they hold into it (and builds no new one), so a torn-down
        tenant's fabric, view and network are freed as soon as their owner
        lets go of them, not left for a full pass of the cyclic collector.
        """
        self._disarm()
        for channel in self.channels.values():
            channel.finalize(self.sim.now)
            channel.on_circuit_open = channel.on_circuit_close = None
            channel.agent.on_paths_applied = None
        self.channels._build = None

    def _disarm(self) -> None:
        timer = self._reconcile_timer
        if timer is not None:
            self._count_idle_ticks()
            self._unlisten()
            timer.cancel()
            self._reconcile_timer = None

    def _park(self) -> None:
        """At rest: skip ticks until :meth:`_wake` (called from a tick)."""
        self._reconcile_timer.park()
        self._parked = True
        epoch = self.network.epoch
        epoch.listeners = (*epoch.listeners, self._wake)

    def _unlisten(self) -> None:
        if self._parked:
            self._parked = False
            epoch = self.network.epoch
            epoch.listeners = tuple(f for f in epoch.listeners if f != self._wake)

    def _count_idle_ticks(self) -> None:
        """Move the ticks skipped at rest so far into the metrics."""
        timer = self._reconcile_timer
        if timer is not None and timer.skipped:
            self._metrics.reconcile_ticks += timer.skipped  # each an idle tick
            timer.skipped = 0

    def _wake(self) -> None:
        """Something that can make drift happened: tick again."""
        if self._parked:
            self._unlisten()
            self._reconcile_timer.resume()

    # ------------------------------------------------------------------
    # Crash tolerance (see repro.resilience)
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Sever the controller side of this fabric in place.

        The switches keep every installed rule and VNF instance — only
        the controller-resident halves die: the reconciler stops, every
        control channel goes dead (already-scheduled deliveries, acks
        and timeouts become no-ops; a channel built later is born
        dead), and the in-flight transaction is orphaned.  Recovery
        builds a *new* fabric over the same network and re-adopts this
        surviving wire state through its reconciler.
        """
        self._disarm()
        self._killed = True
        for channel in self.channels.values():
            channel.dead = True
        self.current_txn = None
        self._on_converged = None

    def restore(
        self,
        rules: GeneratedRules,
        classes: Sequence[TrafficClass],
        instances: Dict[str, VNFInstance],
        versions: Dict[str, int],
        epoch: int,
        converged_epoch: int,
    ) -> None:
        """Rebuild checkpointed desired state without opening an epoch.

        The recovery counterpart of :meth:`adopt`: desired state, class
        versions, and epoch counters come from the checkpoint verbatim
        (``versions`` keeps entries for deleted class IDs — per-class
        version numbers must continue the old numbering or a post-crash
        delete + re-create would render different sub-IDs than a
        never-crashed run).  Nothing is pushed here; the periodic
        reconciler diffs the surviving installed state against this
        desired state and repairs only the drift — never a blind
        reinstall (with no versions, the state day 0 rendered,
        ``rules.day0_state``, is taken as is).  Fresh
        :class:`SwitchAgent`s start at epoch -1 with empty cookie sets, so a
        restored epoch >= 0 is always accepted — the recovery analogue of a
        Kafka-style generation reset.  ``instances`` is taken as it is: it
        must hold every instance ``rules`` reference, registered (day 0's
        install made them; crash recovery materialises a harvested map).
        """
        self._wake()
        self.instances = dict(instances)
        self._fingerprints = class_fingerprints(rules, classes)
        self.versions = {cid: int(v) for cid, v in versions.items()}
        self.desired = rules.day0_state
        if self.desired is None or self.versions:
            self.desired = render_desired(
                sorted(self.network.switches),
                sorted(self.network.vswitches),
                rules,
                classes,
                {},
                self.versions,
            )
        self.active_paths = {c.class_id: tuple(c.path) for c in classes}
        self.epoch = int(epoch)
        self.converged_epoch = int(converged_epoch)
        self.desired_since = self.sim.now

    def _reconcile(self) -> None:
        if self.desired is None:
            return
        diffs = self._diffs()
        drift = sum(d.op_count() for d in diffs)
        if self.current_txn is not None:
            # A transaction owns the wire; measuring is fine, repairing
            # would race it.
            self._metrics.record_reconcile(drift, repaired=False)
            return
        if drift == 0:
            self._metrics.record_reconcile(0, repaired=False)
            if self.converged:
                self._park()  # at rest: nothing to do until a wake
            else:
                self._note_converged()
            return
        self._metrics.record_reconcile(drift, repaired=True)
        self._launch(diffs)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def _open_channel(self, switch: str) -> ControlChannel:
        if switch not in self.network.switches:
            raise KeyError(switch)
        agent = SwitchAgent(
            switch, self.network, on_paths_applied=self._paths_applied
        )
        channel = ControlChannel(
            self.sim,
            agent,
            self.chaos,
            SeededRNG(derive(self._channel_seed, f"channel.{switch}")),
            self._metrics,
            on_circuit_open=self._circuit_opened,
            on_circuit_close=self._circuit_closed,
        )
        channel.dead = self._killed
        return channel

    def _launch(self, diffs: List[SwitchDiff]) -> None:
        if not diffs:
            self._note_converged()
            return
        self._txn_counter += 1
        txn = Transaction(
            self.sim,
            self.channels,
            self.epoch,
            self._txn_counter,
            diffs,
            on_done=lambda outcome, rollback_ops: None,
        )
        txn.on_done = lambda outcome, rollback_ops: self._txn_done(
            txn, outcome, rollback_ops
        )
        self.current_txn = txn
        txn.start()

    def _txn_done(self, txn: Transaction, outcome: str, rollback_ops: int) -> None:
        self._wake()
        self._metrics.record_transaction(outcome, rollback_ops)
        if self.current_txn is txn:
            self.current_txn = None
        if outcome == TXN_COMMITTED and txn.epoch == self.epoch:
            if not self._diffs():
                self._note_converged()
        # Every other outcome: the reconciler drives convergence.

    def _note_converged(self) -> None:
        if self.converged_epoch >= self.epoch:
            return
        self.converged_epoch = self.epoch
        if self._retiring:
            # Drain retired instances only now — the epoch's rules are
            # installed everywhere, so nothing can route through them.
            for key in self._retiring:
                inst = self.instances.pop(key, None)
                if inst is not None:
                    inst.shutdown()
                    self.drained_total += 1
            self._retiring = []
        record = EpochConvergence(
            epoch=self.epoch,
            pushed_at=self.desired_since,
            converged_at=self.sim.now,
        )
        self._metrics.record_convergence(record)
        callback, self._on_converged = self._on_converged, None
        if callback is not None:
            callback(record)

    # ------------------------------------------------------------------
    # Fault hooks (chaos injector)
    # ------------------------------------------------------------------
    def disconnect(self, switch: str) -> None:
        self._wake()
        self.channels[switch].disconnect()

    def reconnect(self, switch: str) -> None:
        self._wake()
        self.channels[switch].reconnect()

    def _circuit_opened(self, switch: str, now: float) -> None:
        if self.on_degraded is not None:
            self.on_degraded(switch, now)

    def _circuit_closed(self, switch: str, now: float) -> None:
        if self.on_restored is not None:
            self.on_restored(switch, now)

    def _paths_applied(self, paths: tuple) -> None:
        for class_id, path in paths:
            self.active_paths[class_id] = tuple(path)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def converged(self) -> bool:
        return self.converged_epoch >= self.epoch

    def drift_count(self) -> int:
        """Total op count separating installed from desired state."""
        return sum(d.op_count() for d in self._diffs())

    def active_path(self, class_id: str) -> Optional[tuple]:
        """The routing path currently live for a class (probe oracle)."""
        return self.active_paths.get(class_id)

    def state_signature(self) -> str:
        """Canonical JSON of installed state + channel ledger.

        Bit-identical across same-seed runs; the bit-identity tests and
        the ``southbound-chaos`` experiment both hash this.
        """
        return json.dumps(
            {
                "epoch": self.epoch,
                "converged_epoch": self.converged_epoch,
                "installed": read_installed(self.network).signature_payload(),
                "metrics": self.metrics.to_dict(),
            },
            sort_keys=True,
        )

    def _diffs(self) -> List[SwitchDiff]:
        assert self.desired is not None
        return self._view.diffs(self.desired)
