#!/usr/bin/env python
"""Count what a tenant-churn history makes the control plane do.

Builds seeded platform histories the way the pipeline benchmark's
``internet2_tenant_churn`` workload does — ``--tenants`` tenants of
``generate_intents`` churn on ``internet2(default_host_cores=160)``, run to
70 sim-seconds, history ``k`` seeded ``derive(seed, "pipeline.history.k")``
— and prints the counts performance issues on that workload quote: LP
solves per ``place()``, LP assemblies, the warm share, the instances dust
consolidation removed, the summed objective and a digest of every plan,
the cores the arbiter's requests charged against the cores of the plans
they were made for, control channels built against fabrics x switches and
against the switches that were ever sent a message, southbound messages, retries and reconciler
ticks, simulator events, reconcile diff evaluations, ``SwitchDiff`` and
``TcamEntry`` objects built, what the isolation audit read (its ticks, the
arbiter ledger entries and the running VNF instances it summed), the
seconds the cyclic collector ran inside the histories and its promotion
census (objects that survived a generation-1 pass into the old generation,
by type).  The counts are exact
and repeat; the seconds and the census are measurements.  Nothing
is imported from ``benchmarks/``, so the tool runs unchanged on any commit
(for a before / after, run it in both checkouts).  :class:`Counts` is also
the counter ``tests/test_work_counts.py`` pins placement and southbound
work with.

Usage::

    PYTHONPATH=src python tools/churn_counts.py --seed 7 --histories 6
    PYTHONPATH=src python tools/churn_counts.py --tenants 16 --check

``--check`` exits 1 when a channel was built for a switch that was never
sent a message (channels are built on first use); when, at the horizon, a
converged fabric with no open transaction still holds an armed reconcile
event (a fabric at rest schedules nothing); when any ``place()`` raised
``PlacementError`` (a tenant plans on the whole physical pool, which the
churn's blueprints always fit); or when, at the horizon, the VNF instances
running in the live tenant fabrics hold, on some host, other than the
cores the arbiter charges there as ``steady`` (an instance a re-plan
retired and nobody drained), or more than the host has; or when an audit
tick read fewer ledger entries or running instances than the arbiter and
the live fabrics held at that tick (the audit is a poll of all of them).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import sys
import time
import weakref
from collections import Counter
from contextlib import ExitStack
from typing import Dict, List, Optional
from unittest import mock

import repro.core.engine as engine_module
import repro.solver.lp as lp_module
import repro.southbound.fabric as fabric_module
import repro.southbound.state as state_module
from repro.core.engine import OptimizationEngine
from repro.core.rulegen import RuleGenerator
from repro.dataplane.tcam import TcamEntry
from repro.experiments.multi_tenant import generate_intents
from repro.sim.kernel import Simulator
from repro.sim.rng import derive
from repro.southbound.channel import ControlChannel
from repro.southbound.fabric import SouthboundFabric
from repro.southbound.metrics import SouthboundMetrics
from repro.tenancy import CapacityArbiter, TenantOrchestrator, TenantWorker
from repro.topology.datasets import internet2

HOST_CORES = 160
HORIZON_SIM_S = 70.0


class Counts:
    """The tallies, and the wrappers that feed them while installed.

    Every ``OptimizationEngine.place()`` call is counted whoever makes it:
    its LP solves, whether it re-solved a cached template, a
    ``PlacementError``, the instances ``_consolidate_dust`` removed from
    its ceiling plan, its objective, and (in :attr:`plans`) its
    ``distribution`` items and ``quantities`` in order, or the error's
    message; and the calls that fell back to ``solve_with_rounding``, with
    the LP solves made inside them.

    Southbound work is counted the same way, for every fabric: messages
    (first sends) and retries, acks by status, ops sent by ``(phase,
    kind)``, the switches each ``push_desired`` touched and the class
    versions it bumped, simulator events fired, reconciler ticks (read from
    the fabrics' own metrics, the number their signatures carry), reconcile
    diff evaluations (``_reconcile`` calls that reach the diff), and five
    counts of work a faster epoch removes — ``TcamEntry`` and ``SwitchDiff``
    objects built, bytes fed to ``hashlib.sha1`` (the old content-hash
    cookies), switch read-backs (``state._read_table`` /
    ``state._read_vswitch`` calls) and ``state.diff_switch`` calls.  Day 0
    is counted too: ``RuleGenerator.install`` calls, and the
    ``render_desired`` and ``RuleGenerator.materialize_instances`` calls
    made outside a ``push_desired`` (a day 0 renders and materialises its
    instances once, and the fabric adopting it does neither again).

    The isolation audit (``TenantOrchestrator._audit``) is counted by what
    it reads: during each tick the arbiter's ``steady`` and ``inflight``
    ledgers and every live fabric's ``instances`` are swapped for counting
    copies, so the tick's ledger entries read (through ``items()`` /
    ``values()``) and running instances met (through ``values()``) are
    tallied, and compared with what the ledgers and fabrics held.

    While installed, the cyclic collector is timed.  With ``census``, at
    each generation-1 pass the objects it promotes (gen 0 + gen 1 before
    the pass, minus those it collected) are also counted by type: the
    survivors are the tail of the old generation right after the pass.
    """

    def __init__(self, census: bool = False) -> None:
        self.census = census
        self.solves_per_place: Counter = Counter()
        self.places = self.warm_places = self.failed_places = 0
        self.fallbacks = self.fallback_solves = 0
        self.assemblies = 0
        self.consolidated = 0
        self.objective = 0.0
        self.plans = hashlib.sha256()
        self.fabrics = self.switch_slots = 0
        self.channels_built = 0
        self.channels_messaged = 0
        self.messages = self.retries = 0
        self.acks: Counter = Counter()
        self.ops: Counter = Counter()
        self.switches_touched = self.version_bumps = 0
        self.sim_events = 0
        self.reconcile_evaluations = 0
        self.entries_built = 0
        self.switch_diffs_built = 0
        self.sha1_bytes = 0
        self.read_backs = 0
        self.diff_switch_calls = 0
        self.day0s = self.day0_renders = self.day0_materializations = 0
        self._pushing = False
        self.intents = 0
        #: Audit ticks, the ledger entries and running instances they read,
        #: and the ticks that read fewer of either than there were.
        self.audit_ticks = 0
        self.ledger_entries_read = 0
        self.running_instances_summed = 0
        self.audit_misses = 0
        self.gc_seconds = 0.0
        self.gc_passes: Counter = Counter()
        self.promoted = 0
        self.promoted_types: Counter = Counter()
        self.history_seconds = 0.0
        self.armed_at_rest = 0
        #: Hosts, summed over histories, whose running-instance cores at
        #: the horizon differ from the arbiter's ``steady`` charge there /
        #: exceed the host's physical cores.
        self.uncharged_hosts = 0
        self.overfull_hosts = 0
        #: Arbiter requests, the cores they charged, and the cores of the
        #: whole plans they were made for (a tenant's last solved plan).
        self.requests = self.charged_cores = self.plan_cores = 0
        self._last_plan_cores: Dict[str, int] = {}
        self._solves = 0
        self._gc_started = 0.0
        self._young = 0
        #: (weak reference to a fabric, its metrics), every fabric built.
        self._fabrics: list = []

    @property
    def reconcile_ticks(self) -> int:
        """Reconcile ticks summed over every fabric's metrics.

        A live fabric is read through ``fabric.metrics`` (which accounts
        for the ticks it skipped at rest); a collected one through the
        metrics it left, settled when it was stopped.
        """
        total = 0
        for ref, metrics in self._fabrics:
            fabric = ref()
            if fabric is not None:
                metrics = fabric.metrics
            total += metrics.reconcile_ticks
        return total

    # -- wrappers ------------------------------------------------------
    def _wrap(self, stack: ExitStack, owner, name: str, around) -> None:
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            return around(inner, *args, **kwargs)

        stack.enter_context(mock.patch.object(owner, name, wrapper))

    def installed(self) -> ExitStack:
        stack = ExitStack()

        def solve(inner, *args, **kwargs):
            self._solves += 1
            return inner(*args, **kwargs)

        def place(inner, *args, **kwargs):
            before = self._solves
            self.places += 1
            try:
                plan = inner(*args, **kwargs)
            except engine_module.PlacementError as exc:
                self.failed_places += 1
                self.plans.update(repr(str(exc)).encode())
                raise
            finally:
                self.solves_per_place[self._solves - before] += 1
            self.warm_places += bool(plan.warm_start)
            self.objective += plan.objective
            self.plans.update(repr(list(plan.distribution.items())).encode())
            self.plans.update(repr(list(plan.quantities.items())).encode())
            return plan

        def rounding(inner, *args, **kwargs):
            before = self._solves
            self.fallbacks += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.fallback_solves += self._solves - before

        def assemble(inner, *args, **kwargs):
            self.assemblies += 1
            return inner(*args, **kwargs)

        def consolidate(inner, engine, classes, distribution, quantities):
            before = sum(quantities.values())
            inner(engine, classes, distribution, quantities)
            self.consolidated += before - sum(quantities.values())

        def fabric_init(inner, fabric, sim, network, *args, **kwargs):
            self.fabrics += 1
            self.switch_slots += len(network.switches)
            inner(fabric, sim, network, *args, **kwargs)
            self._fabrics.append((weakref.ref(fabric), fabric.metrics))

        def channel_init(inner, channel, *args, **kwargs):
            self.channels_built += 1
            return inner(channel, *args, **kwargs)

        def channel_send(inner, channel, msg, *args, **kwargs):
            if "_churn_counted" not in vars(channel):
                channel._churn_counted = True
                self.channels_messaged += 1
            for op in msg.ops:
                self.ops[(msg.phase, op[0])] += 1
            return inner(channel, msg, *args, **kwargs)

        def record_send(inner, metrics, attempt):
            if attempt == 1:
                self.messages += 1
            else:
                self.retries += 1
            return inner(metrics, attempt)

        def record_ack(inner, metrics, status):
            self.acks[status] += 1
            return inner(metrics, status)

        def reconcile(inner, fabric, *args, **kwargs):
            if fabric.desired is not None:
                self.reconcile_evaluations += 1
            return inner(fabric, *args, **kwargs)

        def push_desired(inner, fabric, *args, **kwargs):
            before = sum(fabric.versions.values())
            self._pushing = True
            try:
                epoch = inner(fabric, *args, **kwargs)
            finally:
                self._pushing = False
            self.version_bumps += sum(fabric.versions.values()) - before
            self.switches_touched += fabric.last_push["switches"]
            return epoch

        def install(inner, *args, **kwargs):
            self.day0s += 1
            return inner(*args, **kwargs)

        def render(inner, *args, **kwargs):
            self.day0_renders += not self._pushing
            return inner(*args, **kwargs)

        def materialize(inner, *args, **kwargs):
            self.day0_materializations += not self._pushing
            return inner(*args, **kwargs)

        def sim_run(inner, *args, **kwargs):
            fired = inner(*args, **kwargs)
            self.sim_events += fired
            return fired

        def entry_init(inner, *args, **kwargs):
            self.entries_built += 1
            return inner(*args, **kwargs)

        def diff_init(inner, *args, **kwargs):
            self.switch_diffs_built += 1
            return inner(*args, **kwargs)

        def sha1(inner, data=b"", *args, **kwargs):
            self.sha1_bytes += len(data)
            return inner(data, *args, **kwargs)

        def read_back(inner, *args, **kwargs):
            self.read_backs += 1
            return inner(*args, **kwargs)

        def diff_switch(inner, *args, **kwargs):
            self.diff_switch_calls += 1
            return inner(*args, **kwargs)

        def worker_solve(inner, worker, *args, **kwargs):
            realised = inner(worker, *args, **kwargs)
            self._last_plan_cores[worker.tenant_id] = realised[0].total_cores()
            return realised

        def audit(inner, orch, *args, **kwargs):
            arbiter = orch.arbiter
            ledgers = arbiter.steady, arbiter.inflight
            fabrics = [w.fabric for w in orch.workers.values() if w.fabric]
            held = [fabric.instances for fabric in fabrics]
            entries = sum(len(m) for ledger in ledgers for m in ledger.values())
            running = sum(
                inst.running for instances in held for inst in instances.values()
            )
            before = self.ledger_entries_read, self.running_instances_summed
            arbiter.steady, arbiter.inflight = (
                {t: _CountedLedger(self, m) for t, m in ledger.items()}
                for ledger in ledgers
            )
            for fabric, instances in zip(fabrics, held):
                fabric.instances = _CountedInstances(self, instances)
            try:
                return inner(orch, *args, **kwargs)
            finally:
                arbiter.steady, arbiter.inflight = ledgers
                for fabric, instances in zip(fabrics, held):
                    fabric.instances = instances
                self.audit_ticks += 1
                read = self.ledger_entries_read - before[0]
                summed = self.running_instances_summed - before[1]
                self.audit_misses += read < entries or summed < running

        def request(inner, arbiter, tenant_id, need, *args, **kwargs):
            self.requests += 1
            self.charged_cores += sum(c for c in need.values() if c > 0)
            self.plan_cores += self._last_plan_cores.get(tenant_id, 0)
            return inner(arbiter, tenant_id, need, *args, **kwargs)

        for name in ("_solve_direct", "_solve_linprog"):
            if hasattr(lp_module, name):
                self._wrap(stack, lp_module, name, solve)
        self._wrap(stack, OptimizationEngine, "place", place)
        self._wrap(stack, engine_module, "assemble_placement_lp", assemble)
        self._wrap(stack, engine_module, "solve_with_rounding", rounding)
        self._wrap(stack, OptimizationEngine, "_consolidate_dust", consolidate)
        self._wrap(stack, SouthboundFabric, "__init__", fabric_init)
        self._wrap(stack, ControlChannel, "__init__", channel_init)
        self._wrap(stack, ControlChannel, "send", channel_send)
        self._wrap(stack, SouthboundMetrics, "record_send", record_send)
        self._wrap(stack, SouthboundMetrics, "record_ack", record_ack)
        self._wrap(stack, SouthboundFabric, "_reconcile", reconcile)
        self._wrap(stack, SouthboundFabric, "push_desired", push_desired)
        self._wrap(stack, Simulator, "run", sim_run)
        self._wrap(stack, TcamEntry, "__init__", entry_init)
        self._wrap(stack, state_module.SwitchDiff, "__init__", diff_init)
        self._wrap(stack, hashlib, "sha1", sha1)
        for name in ("_read_table", "_read_vswitch"):
            if hasattr(state_module, name):
                self._wrap(stack, state_module, name, read_back)
        self._wrap(stack, state_module, "diff_switch", diff_switch)
        self._wrap(stack, RuleGenerator, "install", install)
        self._wrap(stack, RuleGenerator, "materialize_instances", materialize)
        for module in (state_module, fabric_module):
            self._wrap(stack, module, "render_desired", render)
        self._wrap(stack, TenantWorker, "solve", worker_solve)
        self._wrap(stack, CapacityArbiter, "request", request)
        self._wrap(stack, TenantOrchestrator, "_audit", audit)
        gc.callbacks.append(self._on_gc)
        stack.callback(gc.callbacks.remove, self._on_gc)
        return stack

    def _on_gc(self, phase: str, info: dict) -> None:
        generation = info["generation"]
        census = self.census and generation == 1
        if phase == "start":
            if census:
                self._young = len(gc.get_objects(0)) + len(gc.get_objects(1))
            self._gc_started = time.perf_counter()
            return
        self.gc_seconds += time.perf_counter() - self._gc_started
        self.gc_passes[generation] += 1
        if census:
            promoted = self._young - info["collected"]
            self.promoted += promoted
            if promoted > 0:
                self.promoted_types.update(
                    type(o).__name__ for o in gc.get_objects(2)[-promoted:]
                )


class _CountedLedger(dict):
    """One tenant's ledger (switch -> cores), counting the entries read."""

    def __init__(self, counts: Counts, ledger: Dict[str, int]) -> None:
        super().__init__(ledger)
        self._counts = counts

    def items(self):
        for item in super().items():
            self._counts.ledger_entries_read += 1
            yield item

    def values(self):
        for value in super().values():
            self._counts.ledger_entries_read += 1
            yield value


class _CountedInstances(dict):
    """A fabric's instance map, counting the running instances read."""

    def __init__(self, counts: Counts, instances: Dict[str, object]) -> None:
        super().__init__(instances)
        self._counts = counts

    def values(self):
        for inst in super().values():
            self._counts.running_instances_summed += inst.running
            yield inst


def run_history(counts: Counts, tenants: int, seed: int) -> None:
    """One platform history; set-up is outside the counted region."""
    topo = internet2(default_host_cores=HOST_CORES)
    sim = Simulator(seed=seed)
    orch = TenantOrchestrator(topo, sim, seed=seed)
    intents = generate_intents(tenants, sorted(topo.hosts), seed)
    counts.intents += len(intents)
    with counts.installed():
        started = time.perf_counter()
        orch.start()
        for delay, intent in intents:
            orch.submit(intent, delay=delay)
        sim.run(until=HORIZON_SIM_S)
        counts.armed_at_rest += sum(
            1 for fabric in live_fabrics(orch) if armed_at_rest(fabric)
        )
        running, steady = running_cores(orch), steady_cores(orch)
        counts.uncharged_hosts += sum(
            running.get(h, 0) != steady.get(h, 0) for h in {*running, *steady}
        )
        counts.overfull_hosts += sum(
            c > orch.arbiter.physical.get(h, 0) for h, c in running.items()
        )
        orch.stop()
        counts.history_seconds += time.perf_counter() - started


def live_fabrics(orch: TenantOrchestrator) -> list:
    return [w.fabric for _t, w in sorted(orch.workers.items()) if w.fabric]


def running_cores(orch: TenantOrchestrator) -> Dict[str, int]:
    """Cores per host of the VNF instances running in live tenant fabrics."""
    cores: Dict[str, int] = {}
    for fabric in live_fabrics(orch):
        for inst in fabric.instances.values():
            if inst.running:
                cores[inst.switch] = cores.get(inst.switch, 0) + inst.nf_type.cores
    return cores


def steady_cores(orch: TenantOrchestrator) -> Dict[str, int]:
    """Cores per host the arbiter charges as settled (``steady``)."""
    cores: Dict[str, int] = {}
    for ledger in orch.arbiter.steady.values():
        for host, c in ledger.items():
            cores[host] = cores.get(host, 0) + c
    return cores


def armed_at_rest(fabric: SouthboundFabric) -> bool:
    """A converged fabric with no open transaction and a tick scheduled.

    Read from the fabric's private reconciler state.  At the horizon of a
    churn history every tenant has been quiet for tens of seconds, so such
    a fabric would be ticking for nothing.
    """
    timer = fabric._reconcile_timer
    armed = timer is not None and not getattr(fabric, "_parked", False)
    return armed and fabric.converged and fabric.current_txn is None


def report(counts: Counts, args: argparse.Namespace) -> str:
    places = counts.places or 1
    histogram = ", ".join(
        f"{n}: {k}" for n, k in sorted(counts.solves_per_place.items())
    )
    solves = sum(n * k for n, k in counts.solves_per_place.items())
    passes = ", ".join(
        f"gen{g}: {k}" for g, k in sorted(counts.gc_passes.items())
    )
    per = max(args.histories, 1)
    census = ", ".join(
        f"{name} {k / per:,.0f}" for name, k in counts.promoted_types.most_common(8)
    )
    lines = [
        f"histories            {args.histories} x {args.tenants} tenants, "
        f"seed {args.seed}, {counts.intents} intents",
        f"place() calls        {counts.places} "
        f"({counts.failed_places} raised PlacementError)",
        f"LP solves            {solves} ({solves / places:.2f} per place())",
        f"solves per place()   {histogram}",
        f"rounding fallbacks   {counts.fallbacks} "
        f"({counts.fallback_solves} LP solves inside)",
        f"LP assemblies        {counts.assemblies}",
        f"warm share           {counts.warm_places / places:.3f} "
        f"({counts.warm_places} of {counts.places})",
        f"consolidated away    {counts.consolidated} instances",
        f"objective (sum)      {counts.objective:g}",
        f"plan digest          {counts.plans.hexdigest()[:16]}",
        f"cores charged        {counts.charged_cores} of {counts.plan_cores} "
        f"plan cores ({counts.requests} arbiter requests)",
        f"fabrics x switches   {counts.switch_slots} ({counts.fabrics} fabrics)",
        f"channels built       {counts.channels_built}",
        f"channels messaged    {counts.channels_messaged}",
        f"southbound messages  {counts.messages} "
        f"({counts.retries} retries, {counts.reconcile_ticks} reconcile ticks)",
        f"sim events           {counts.sim_events}",
        f"reconcile diff evals {counts.reconcile_evaluations}",
        f"objects built        {counts.switch_diffs_built} SwitchDiff, "
        f"{counts.entries_built} TcamEntry",
        f"day 0                {counts.day0s} installs, "
        f"{counts.day0_renders} desired-state renders and "
        f"{counts.day0_materializations} instance materialisations outside a push",
        f"audit reads          {counts.audit_ticks} ticks, "
        f"{counts.ledger_entries_read} ledger entries, "
        f"{counts.running_instances_summed} running instances "
        f"({counts.audit_misses} ticks read less than there was)",
        f"armed at rest        {counts.armed_at_rest} fabrics at the horizon",
        f"running != steady    {counts.uncharged_hosts} host-histories "
        f"({counts.overfull_hosts} above physical)",
        f"collector in-history {counts.gc_seconds:.3f} s of "
        f"{counts.history_seconds:.3f} s ({passes or 'no passes'})",
        f"promoted per history {counts.promoted / per:,.0f} "
        f"({census or 'no generation-1 pass'})",
    ]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--tenants", type=int, default=100)
    parser.add_argument("--histories", type=int, default=1)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if more channels were built than were sent a message, "
        "a fabric at rest still ticks at the horizon, a place() raised "
        "PlacementError, running instances hold other cores than the "
        "arbiter charges, or an audit tick read fewer ledger entries or "
        "running instances than there were",
    )
    args = parser.parse_args(argv)
    counts = Counts(census=True)
    for k in range(args.histories):
        run_history(counts, args.tenants, derive(args.seed, f"pipeline.history.{k}"))
    print(report(counts, args))
    failures = []
    if counts.channels_built > counts.channels_messaged:
        failures.append(
            f"{counts.channels_built} channels built, only "
            f"{counts.channels_messaged} were ever sent a message"
        )
    if counts.armed_at_rest:
        failures.append(
            f"{counts.armed_at_rest} converged fabrics with no open "
            "transaction still hold an armed reconcile event at the horizon"
        )
    if counts.failed_places:
        failures.append(f"{counts.failed_places} place() calls raised PlacementError")
    if counts.uncharged_hosts or counts.overfull_hosts:
        failures.append(
            f"at the horizon, running instances hold other cores than the "
            f"arbiter's steady charge on {counts.uncharged_hosts} "
            f"host-histories ({counts.overfull_hosts} above physical)"
        )
    if counts.audit_misses:
        failures.append(
            f"{counts.audit_misses} audit ticks read fewer ledger entries or "
            "running instances than the arbiter and the live fabrics held"
        )
    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
