"""The five workloads of the pipeline benchmark.

Every workload is a closed loop with one client in one process: the next
timed unit starts when the previous one has returned.  A workload builds
its inputs from the seed in :meth:`Workload.setup`, runs one discarded
warm-up unit (first HiGHS call, walk-plan build), and is then driven by
``run.py`` unit by unit:

* :meth:`Workload.prepare` — untimed; builds what the unit consumes;
* :meth:`Workload.unit` — timed; only calls into the program's public
  functions, each inside a span named after the layer it enters;
* :meth:`Workload.check` — untimed; checks the unit's outputs and
  returns ``(ops attempted, ops failed)``.

README.md in this directory says why each workload exists and which
layer it loads.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from statistics import mean, median
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.controller import Deployment
from repro.core.engine import EngineConfig, OptimizationEngine
from repro.core.placement import diff_plans
from repro.core.rulegen import RuleGenerator
from repro.core.subclasses import assign_subclasses
from repro.core.verify import verify_deployment
from repro.dataplane.flowhash import cycling_hashes
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import Packet
from repro.dataplane.sharded import ShardedDataPlane
from repro.experiments.harness import REPLAY_HEADROOM, standard_setup
from repro.experiments.multi_tenant import generate_intents
from repro.experiments.packet_replay import PPS_PER_MBPS, scaled_catalog
from repro.sim.kernel import Simulator
from repro.sim.rng import derive
from repro.sim.sources import merge_cbr_timeline
from repro.southbound import SouthboundFabric
from repro.tenancy import TenantOrchestrator
from repro.tenancy.arbiter import CapacityArbiter
from repro.topology.datasets import internet2

from tracing import Tracer, wrapped_methods

#: ``--seed`` picks one of this many input seeds (``seed % INPUT_SEEDS``).
#: "No operation fails" can only be promised for inputs that have been run:
#: the program has a latent fault that about one tenant history in 800
#: hits (``OptimizationEngine._consolidate_dust`` lists one portion twice
#: in ``moves`` and raises ``KeyError`` at the second ``pop``, e.g. on
#: ``derive(1000024, "pipeline.history.0")``), and which inputs hit it
#: depends on LP solutions, not on anything the benchmark can see in
#: advance.  Every workload has run clean on every input seed below
#: (README.md, pitfall 6, says for how long).
INPUT_SEEDS = 16
#: GEANT series length: one diurnal day of hourly matrices, cycled.
GEANT_SNAPSHOTS = 24
#: Simulated seconds of CBR traffic in one columnar window (~650k packets).
COLUMNAR_WINDOW_SIM_S = 120.0
#: Simulated seconds per scalar half-window (~25k packets).
SCALAR_WINDOW_SIM_S = 4.6
#: Once per run the columnar workload sends one window at this multiple of
#: the planned rates (~100k packets) through both walkers.
OVERLOAD = 1.6
OVERLOAD_SIM_S = 12.0
#: Tenants per platform history; per-PoP cores as in BENCH_tenancy's 100-tenant row.
TENANTS = 100
TENANT_HOST_CORES = 160
#: Platform histories per input seed, cycled (a 15 s run gets through ~9).
TENANT_HISTORIES = 12
#: Simulated seconds one platform history runs.  A tenant's intents are
#: served one at a time and each may wait 8 s for capacity: its creates
#: (submitted by 10 s) are answered by 27 s, its three churn ops and the
#: deliberate miss (submitted by 31 s) by 31 + 4 x 8.3 = 64 s.  The
#: multi-tenant experiment's own horizon of 45 s leaves an intent
#: unanswered in roughly one history out of thirty.
TENANT_HORIZON_SIM_S = 70.0


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _place_span_name(plan) -> str:
    if plan is None:  # the call has not returned, or raised PlacementError
        return "core.engine.place_failed"
    return "core.engine.place_warm" if plan.warm_start else "core.engine.place_cold"


class Workload:
    """Base: seed, scale, tracer, running totals and the unit protocol."""

    name = ""
    #: What one counted operation is (``attempted`` / ``failed`` count these).
    op = ""

    def __init__(self, seed: int, scale: float, tracer: Tracer) -> None:
        #: The input seed; every input is made from it.
        self.seed = seed % INPUT_SEEDS
        self.scale = scale
        self.tracer = tracer
        self.errors: List[str] = []
        #: Sums over all timed units of the counts :meth:`layers` reports.
        self.totals: Dict[str, float] = {}
        self.units = 0

    def add(self, **counts: float) -> None:
        for key, value in counts.items():
            self.totals[key] = self.totals.get(key, 0.0) + value

    def per_unit(self, key: str) -> float:
        return self.totals.get(key, 0.0) / self.units if self.units else 0.0

    def ratio(self, part: str, whole: str) -> float:
        whole_v = self.totals.get(whole, 0.0)
        return self.totals.get(part, 0.0) / whole_v if whole_v else 0.0

    def fail(self, message: str) -> None:
        self.errors.append(f"{self.name}: {message}")

    def warm_up(self) -> None:
        """One discarded unit, then forget what it counted."""
        self.prepare(-1)
        self.unit(-1)
        self.check(-1)
        self.totals.clear()
        self.units = 0

    # -- protocol ----------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        pass

    def unit(self, i: int) -> None:
        raise NotImplementedError

    def check(self, i: int) -> Tuple[int, int]:
        raise NotImplementedError

    def final_check(self) -> None:
        """Once per run, after the timed loop (the tracer is on in a traced run)."""

    def layers(self) -> Dict[str, float]:
        """Per-layer metric values (names as in BENCHMARK.json)."""
        raise NotImplementedError

    def work(self) -> Dict[str, Tuple[float, str]]:
        """``span name -> (mean work per unit, unit)`` for the trace table."""
        return {}

    def deterministic(self) -> Optional[Dict[str, object]]:
        """Values that must be bit-equal across runs of one seed.

        They cover a fixed prefix of the units, whatever the run's length;
        ``None`` when the run ended before the prefix did.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# GEANT: the control path
# ---------------------------------------------------------------------------
class _Geant(Workload):
    """Shared GEANT set-up: topology, controller, a seeded diurnal series."""

    def _build(self) -> None:
        self.topo, self.ctl, series = standard_setup(
            "geant", snapshots=GEANT_SNAPSHOTS, seed=self.seed
        )
        self.snapshots = series.snapshots
        self.cores = self.ctl.available_cores()
        self.memory = self.ctl.available_memory_gb()
        #: (objective, sim-s) of the first pass over the series.
        self.first_pass: List[tuple] = []

    def _place(self, classes, cold: bool = False):
        with self.tracer.span(_place_span_name(None)) as span:
            if cold:
                self.ctl.engine.clear_templates()
            plan = self.ctl.engine.place(
                classes, self.cores, available_memory_gb=self.memory
            )
            span.name = _place_span_name(plan)
        return plan

    def _count_plan(self, classes, plan, subs, rules, report) -> None:
        self.add(
            classes=len(classes),
            objective=plan.objective,
            lp_bound=plan.lp_bound,
            place_calls=1,
            warm_plans=1 if plan.warm_start else 0,
            subclasses=subs.total_subclasses(),
            vswitch_rules=sum(len(v) for v in rules.vswitch_rules.values()),
            probes=report.probes_sent,
        )

    def _plan_layers(self) -> Dict[str, float]:
        tr = self.tracer
        return {
            "traffic.build_classes_s": tr.layer_seconds("traffic.build_classes"),
            "traffic.classes": self.per_unit("classes"),
            "core.engine.place_cold_s": tr.layer_seconds("core.engine.place_cold"),
            "core.engine.place_warm_s": tr.layer_seconds("core.engine.place_warm"),
            "core.engine.place_calls": self.per_unit("place_calls"),
            "core.engine.warm_share": self.ratio("warm_plans", "place_calls"),
            "core.engine.gap_share": (
                self.totals["objective"] / self.totals["lp_bound"] - 1.0
                if self.totals.get("lp_bound")
                else 0.0
            ),
            "core.engine.objective_instances": (
                mean(obj for obj, *_ in self.first_pass) if self.first_pass else 0.0
            ),
            "core.subclasses.assign_s": tr.layer_seconds("core.subclasses.assign"),
            "core.subclasses.count": self.per_unit("subclasses"),
            "core.rulegen.generate_s": tr.layer_seconds("core.rulegen.generate"),
            "core.rulegen.vswitch_rules": self.per_unit("vswitch_rules"),
            "core.rulegen.tcam_entries": self.per_unit("tcam_entries"),
            "core.verify.verify_s": tr.layer_seconds("core.verify.verify"),
            "core.verify.probes": self.per_unit("probes"),
        }

    def work(self) -> Dict[str, Tuple[float, str]]:
        return {
            "traffic.build_classes": (self.per_unit("classes"), "classes"),
            "core.engine.place_cold": (self.per_unit("classes"), "classes"),
            "core.engine.place_warm": (self.per_unit("classes"), "classes"),
            "core.subclasses.assign": (self.per_unit("subclasses"), "subclasses"),
            "core.rulegen.generate": (self.per_unit("vswitch_rules"), "rules"),
            "core.rulegen.install": (self.per_unit("vswitch_rules"), "rules"),
            "southbound.push_desired": (self.per_unit("sb_ops"), "ops"),
            "southbound.converge_wall": (self.per_unit("messages"), "msgs"),
            "core.verify.verify": (self.per_unit("probes"), "probes"),
        }

    def deterministic(self) -> Optional[Dict[str, object]]:
        if len(self.first_pass) < len(self.snapshots):
            return None
        return {"first_pass": _digest(self.first_pass)}


class GeantColdDeploy(_Geant):
    """Matrix → verified deployment from nothing, per snapshot (Table V)."""

    name = "geant_cold_deploy"
    op = "deploy"

    def setup(self) -> None:
        self._build()
        self.warm_up()

    def unit(self, i: int) -> None:
        tr, ctl = self.tracer, self.ctl
        matrix = self.snapshots[i % len(self.snapshots)]
        with tr.span("traffic.build_classes"):
            classes = ctl.build_classes(matrix)
        plan = self._place(classes, cold=True)
        with tr.span("core.subclasses.assign"):
            subs = assign_subclasses(plan)
        with tr.span("core.rulegen.generate"):
            rules = ctl.rule_generator.generate(plan.classes, subs)
        with tr.span("core.rulegen.install"):
            network = DataPlaneNetwork(self.topo)
            instances = ctl.rule_generator.install(rules, network, plan.classes)
        deployment = Deployment(plan, subs, rules, network, instances)
        with tr.span("core.verify.verify"):
            report = verify_deployment(deployment, self.topo)
        self.last = (classes, plan, subs, rules, network, report)

    def check(self, i: int) -> Tuple[int, int]:
        classes, plan, subs, rules, network, report = self.last
        self.units += 1
        self._count_plan(classes, plan, subs, rules, report)
        self.add(tcam_entries=network.total_tcam_usage())
        failed = 0
        if not report.ok:
            self.fail(f"unit {i}: verify_deployment: {report.summary()}")
            failed = 1
        if i >= 0:
            # The series is cycled, so every later pass must reproduce the
            # first one's objective: a cold solve depends on nothing else.
            k = i % len(self.snapshots)
            if k == len(self.first_pass):
                self.first_pass.append((plan.objective,))
            elif k < len(self.first_pass) and self.first_pass[k] != (plan.objective,):
                self.fail(
                    f"unit {i}: objective {plan.objective} differs from "
                    f"{self.first_pass[k][0]} on the same snapshot"
                )
                failed = 1
        return 1, failed

    def layers(self) -> Dict[str, float]:
        out = self._plan_layers()
        out["core.rulegen.install_s"] = self.tracer.layer_seconds(
            "core.rulegen.install"
        )
        return out


class GeantReconfigLoop(_Geant):
    """Rate update → warm re-solve → delta → acked epoch → verified."""

    name = "geant_reconfig_loop"
    op = "reconfiguration"

    def setup(self) -> None:
        self._build()
        self.sim = Simulator(seed=self.seed)
        deployment = self.ctl.run(self.snapshots[0], sim=self.sim)
        # Pitfall: without drain_retired an instance a new plan stops
        # using stays up, and verify's isolation audit (cores per host)
        # fails at the first epoch that shrinks a slot.
        self.fabric = SouthboundFabric(
            self.sim,
            deployment.network,
            self.seed,
            self.ctl.rule_generator,
            drain_retired=True,
        )
        self.ctl.attach_southbound(self.fabric)
        self.plan = deployment.plan
        self.step = 0
        self.warm_up()

    def unit(self, i: int) -> None:
        tr, ctl, fabric = self.tracer, self.ctl, self.fabric
        self.step += 1
        matrix = self.snapshots[self.step % len(self.snapshots)]
        with tr.span("traffic.build_classes"):
            classes = ctl.build_classes(matrix)
        plan = self._place(classes)
        with tr.span("core.subclasses.assign"):
            subs = assign_subclasses(plan)
        with tr.span("core.rulegen.generate"):
            rules = ctl.rule_generator.generate(plan.classes, subs)
        with tr.span("core.placement.diff"):
            delta = diff_plans(self.plan, plan)
        converged = []
        messages = fabric.metrics.messages_sent
        retries = fabric.metrics.retries
        events = self.sim.events_fired
        with tr.span("southbound.push_desired"):
            fabric.push_desired(rules, plan.classes, on_converged=converged.append)
        with tr.span("southbound.converge_wall"):
            self.sim.run()
        # Pitfall: verify against the fabric's instance map, not the
        # previous deployment's — drained instances are gone from it.
        deployment = Deployment(
            plan, subs, rules, fabric.network, dict(fabric.instances)
        )
        with tr.span("core.verify.verify"):
            # Pitfall: probes of earlier verifies stay in the instances'
            # sliding admission windows (all at now=0) and pile up until
            # probes are dropped; start every audit from a clean slate.
            fabric.network.reset_runtime_state()
            report = verify_deployment(deployment, self.topo)
        self.plan = plan
        self.last = (classes, plan, subs, rules, report, delta, converged)
        self.before = (messages, retries, events)

    def check(self, i: int) -> Tuple[int, int]:
        classes, plan, subs, rules, report, delta, converged = self.last
        messages, retries, events = self.before
        fabric = self.fabric
        self.units += 1
        self._count_plan(classes, plan, subs, rules, report)
        self.add(
            messages=fabric.metrics.messages_sent - messages,
            retries=fabric.metrics.retries - retries,
            sim_events=self.sim.events_fired - events,
            tcam_entries=fabric.network.total_tcam_usage(),
            delta_added=len(delta.added),
            delta_retired=len(delta.retired),
            sb_ops=fabric.last_push["ops"],
            sb_switches=fabric.last_push["switches"],
        )
        failed = 0
        if not report.ok:
            self.fail(f"unit {i}: verify_deployment: {report.summary()}")
            failed = 1
        drift = fabric.drift_count()
        if not converged or not fabric.converged or drift:
            self.fail(f"unit {i}: epoch {fabric.epoch} not converged, drift {drift}")
            failed = 1
        elif i >= 0 and len(self.first_pass) < len(self.snapshots):
            conv = converged[0]
            self.first_pass.append(
                (plan.objective, conv.converged_at - conv.pushed_at)
            )
            if len(self.first_pass) == len(self.snapshots):
                self.first_pass_state = _digest(fabric.state_signature())
        return 1, failed

    def layers(self) -> Dict[str, float]:
        tr = self.tracer
        out = self._plan_layers()
        out.update(
            {
                "core.placement.diff_s": tr.layer_seconds("core.placement.diff"),
                "core.placement.delta_added": self.per_unit("delta_added"),
                "core.placement.delta_retired": self.per_unit("delta_retired"),
                "southbound.push_desired_s": tr.layer_seconds(
                    "southbound.push_desired"
                ),
                "southbound.ops": self.per_unit("sb_ops"),
                "southbound.switches_touched": self.per_unit("sb_switches"),
                "southbound.converge_wall_s": tr.layer_seconds(
                    "southbound.converge_wall"
                ),
                "southbound.converge_sim_s": (
                    median(s for _, s in self.first_pass) if self.first_pass else 0.0
                ),
                "southbound.messages": self.per_unit("messages"),
                "southbound.retries": self.per_unit("retries"),
                "sim.events": self.per_unit("sim_events"),
            }
        )
        return out

    def deterministic(self) -> Optional[Dict[str, object]]:
        out = super().deterministic()
        if out is not None:
            out["state"] = self.first_pass_state
        return out


# ---------------------------------------------------------------------------
# Internet2: the data path
# ---------------------------------------------------------------------------
class _Replay(Workload):
    """Shared Internet2 set-up: one deployment and one CBR packet timeline."""

    op = "packet"

    def _build(self, window_sim_s: float) -> None:
        # The placement keeps the 20% headroom the repo's replay
        # experiments use.  Planned to the brim (headroom 1.0) instances
        # sit exactly at capacity, and how many packets a window drops —
        # and with them the share the columnar walker hands to its
        # sequential fallback, 12% to 59% over seeds 0-5 — is decided by
        # the seed, not by the program.
        self.topo, self.ctl, series = standard_setup(
            "internet2",
            snapshots=2,
            seed=self.seed,
            engine_config=EngineConfig(capacity_headroom=REPLAY_HEADROOM),
        )
        ctl = self.ctl
        ctl.catalog = scaled_catalog(ctl.catalog)
        ctl.engine.catalog = ctl.catalog
        ctl.rule_generator.catalog = ctl.catalog
        self.plan = ctl.compute_placement(series.mean())
        self.sim = Simulator(seed=self.seed)
        self.deployment = ctl.deploy(self.plan, sim=self.sim)
        self.net = self.deployment.network

        # One CBR stream per class at its planned rate, start phases
        # staggered (as the packet-replay experiment does).
        rng = self.sim.rng.child("packet-replay-phases")
        self.streams = []
        for cls in self.plan.classes:
            pps = cls.rate_mbps * PPS_PER_MBPS
            if pps > 0.5:
                self.streams.append((cls.class_id, rng.uniform(0.0, 1.0 / pps), pps))
        self.weights = {key: pps for key, _, pps in self.streams}
        by_id = {c.class_id: c for c in self.plan.classes}
        self.ends = [(by_id[key].src, by_id[key].dst) for key, _, _ in self.streams]
        with self.tracer.span("sim.sources.timeline"):
            self.window = self._timeline(window_sim_s * self.scale)
        self.sent = len(self.window[3])

    def _timeline(self, sim_s: float, load: float = 1.0):
        """``(keys, key index, hashes, timestamps)`` of ``sim_s`` of traffic.

        Per class the flow hashes cycle, so each sub-class sees its share;
        ``load`` scales every class's packet rate.
        """
        keys, kidx, ts = merge_cbr_timeline(
            [(key, phase, 1.0 / (pps * load)) for key, phase, pps in self.streams],
            sim_s,
        )
        hashes = np.empty(len(ts))
        for ci in range(len(keys)):
            mask = kidx == ci
            count = int(mask.sum())
            if count:
                hashes[mask] = cycling_hashes(count)
        return keys, kidx, hashes, ts

    def _packets(self, timeline) -> List[Tuple[Packet, float]]:
        """Fresh :class:`Packet` objects for a timeline (``inject`` mutates them)."""
        keys, kidx, hashes, ts = timeline
        ends = self.ends
        out = []
        for ci, h, t in zip(kidx.tolist(), hashes.tolist(), ts.tolist()):
            src, dst = ends[ci]
            out.append((Packet(class_id=keys[ci], flow_hash=h, src=src, dst=dst), t))
        return out

    def _check_ledger(self, i, what, stats, sent) -> int:
        """Failed packets of one window: unaccounted ones and violations."""
        delivered, dropped, violations = stats.as_tuple()
        lost = abs(sent - delivered - dropped)
        if lost or violations:
            self.fail(
                f"unit {i} {what}: sent {sent}, delivered {delivered}, "
                f"dropped {dropped}, violations {violations}"
            )
        return min(sent, lost + violations)

    def _timeline_layers(self) -> Dict[str, float]:
        return {
            "sim.sources.timeline_s": self.tracer.layer_seconds(
                "sim.sources.timeline", setup=True
            ),
            "sim.sources.packets": float(self.sent),
        }


def _walker_counts() -> Tuple[float, float]:
    """(bulk, sequential) packets the columnar walker has counted so far."""
    return (
        obs.metric("dataplane_shard_bulk_packets_total").value,
        obs.metric("dataplane_shard_sequential_packets_total").value,
    )


class ReplayColumnar(_Replay):
    """Bulk forwarding: whole windows through ``inject_columns``."""

    name = "internet2_replay_columnar"

    def setup(self) -> None:
        self._build(COLUMNAR_WINDOW_SIM_S)
        self.reference = None
        self.overload: Dict[str, float] = {}
        self.warm_up()

    def _walk(self, timeline) -> Tuple[float, float]:
        """One window on a reset network; returns its (bulk, sequential) counts.

        The counts exist only in the program's obs registry, which is
        switched on for the walk when asked to (traced units only).
        """
        tr, net = self.tracer, self.net
        counting = tr.enabled
        if counting:
            obs.enable()
            before = _walker_counts()
        try:
            with tr.span("dataplane.columnar.open"):
                net.reset_runtime_state()
                # processes=False: one shard, one process, no workers.
                sharded = ShardedDataPlane(
                    net, shards=1, processes=False, class_weights=self.weights
                )
                sharded.nshards  # builds the flow partition
            with sharded, tr.span("dataplane.columnar.walk"):
                sharded.inject_columns(*timeline)
            if not counting:
                return 0.0, 0.0
            after = _walker_counts()
            return after[0] - before[0], after[1] - before[1]
        finally:
            if counting:
                obs.disable()

    def unit(self, i: int) -> None:
        bulk, sequential = self._walk(self.window)
        if self.tracer.enabled:
            self.add(bulk=bulk, sequential=sequential, counted_units=1)

    def check(self, i: int) -> Tuple[int, int]:
        self.units += 1
        stats = self.net.stats_snapshot()
        failed = self._check_ledger(i, "columnar", stats, self.sent)
        if self.reference is None:
            self.reference = stats
        elif stats != self.reference:
            # Identical input on a reset network: identical ledger.
            self.fail(
                f"unit {i}: ledger {stats.as_tuple()} differs from the first "
                f"window's {self.reference.as_tuple()}"
            )
            failed = self.sent
        return self.sent, failed

    def final_check(self) -> None:
        """One overloaded window through both walkers: equal ledgers.

        At 1.6x the planned rates instances drop packets, which sends
        most of the window down the columnar walker's sequential
        fallback — the part the timed, loss-free windows never enter.
        Its rate is reported per layer only (one sample per run, and the
        fallback share swings with the seed).
        """
        timeline = self._timeline(OVERLOAD_SIM_S * self.scale, load=OVERLOAD)
        sent = len(timeline[3])
        traced = self.tracer.active
        started = perf_counter()
        bulk, sequential = self._walk(timeline)
        walk_s = perf_counter() - started
        columnar = self.net.stats_snapshot()
        self.net.reset_runtime_state()
        inject = self.net.inject
        for packet, t in self._packets(timeline):
            inject(packet, now=t)
        scalar = self.net.stats_snapshot()
        if scalar != columnar:
            self.fail(
                f"cross-check over {sent} packets: inject {scalar.as_tuple()} "
                f"!= inject_columns {columnar.as_tuple()}"
            )
        self._check_ledger("cross-check", "overload", columnar, sent)
        if traced:
            self.overload = {
                "dataplane.columnar.overload_pps": sent / walk_s,
                "dataplane.columnar.overload_fallback_share": (
                    sequential / (bulk + sequential) if bulk + sequential else 0.0
                ),
                "dataplane.columnar.overload_loss_share": columnar.loss_ratio,
            }

    def layers(self) -> Dict[str, float]:
        tr = self.tracer
        counted = self.totals.get("counted_units", 0.0)
        out = self._timeline_layers()
        out.update(self.overload)
        out.update(
            {
                "dataplane.columnar.walk_s": tr.layer_seconds("dataplane.columnar.walk"),
                "dataplane.columnar.open_s": tr.layer_seconds("dataplane.columnar.open"),
                "dataplane.columnar.bulk_packets": (
                    self.totals.get("bulk", 0.0) / counted if counted else 0.0
                ),
                "dataplane.columnar.sequential_packets": (
                    self.totals.get("sequential", 0.0) / counted if counted else 0.0
                ),
                "dataplane.columnar.fallback_share": (
                    self.totals["sequential"]
                    / (self.totals["sequential"] + self.totals["bulk"])
                    if counted
                    else 0.0
                ),
            }
        )
        return out

    def work(self) -> Dict[str, Tuple[float, str]]:
        return {"dataplane.columnar.walk": (float(self.sent), "packets")}

    def deterministic(self) -> Optional[Dict[str, object]]:
        return {"sent": self.sent, "ledger": list(self.reference.as_tuple())}


class ReplayScalar(_Replay):
    """Per-packet ``inject``: a ``reuse`` and a ``fresh`` half per unit."""

    name = "internet2_replay_scalar"

    def setup(self) -> None:
        self._build(SCALAR_WINDOW_SIM_S)
        self.hash_rng = np.random.default_rng(derive(self.seed, "pipeline.fresh"))
        self.reference = None
        self.first_fresh = None
        self.warm_up()

    def prepare(self, i: int) -> None:
        # reuse: the same cycling hashes on the long-lived network, whose
        # flow caches know every one of them after the warm-up.
        self.net.reset_runtime_state()
        self.reuse_packets = self._packets(self.window)
        # Pitfall: fresh hashes must be *new* every window, and the TCAM
        # flow cache they fill has no size limit — on one network the
        # fresh rate sinks window after window as the cache grows.  Each
        # fresh half therefore gets a newly installed network (same
        # rules, empty caches), which also keeps memory bounded.
        self.fresh_net = DataPlaneNetwork(self.topo)
        self.ctl.rule_generator.install(
            self.deployment.rules, self.fresh_net, self.plan.classes, sim=self.sim
        )
        keys, kidx, _, ts = self.window
        self.fresh_packets = self._packets(
            (keys, kidx, self.hash_rng.random(self.sent), ts)
        )

    def unit(self, i: int) -> None:
        tr = self.tracer
        inject = self.net.inject
        with tr.span("dataplane.scalar.reuse"):
            for packet, t in self.reuse_packets:
                inject(packet, now=t)
        inject = self.fresh_net.inject
        with tr.span("dataplane.scalar.fresh"):
            for packet, t in self.fresh_packets:
                inject(packet, now=t)

    @staticmethod
    def _tcam(net: DataPlaneNetwork) -> Tuple[int, int]:
        tables = [sw.table for sw in net.switches.values()]
        return sum(t.lookup_count for t in tables), sum(t.cache_hits for t in tables)

    def check(self, i: int) -> Tuple[int, int]:
        self.units += 1
        reuse, fresh = self.net.stats_snapshot(), self.fresh_net.stats_snapshot()
        failed = self._check_ledger(i, "reuse", reuse, self.sent)
        failed += self._check_ledger(i, "fresh", fresh, self.sent)
        if self.reference is None:
            self.reference = reuse
        elif reuse != self.reference:
            self.fail(
                f"unit {i}: reuse ledger {reuse.as_tuple()} differs from the "
                f"first window's {self.reference.as_tuple()}"
            )
            failed = 2 * self.sent
        if i == 0:
            self.first_fresh = fresh
        lookups, hits = self._tcam(self.net)
        fresh_lookups, fresh_hits = self._tcam(self.fresh_net)
        self.add(
            reuse_lookups=lookups,
            reuse_hits=hits,
            fresh_lookups=fresh_lookups,
            fresh_hits=fresh_hits,
        )
        return 2 * self.sent, min(failed, 2 * self.sent)

    def layers(self) -> Dict[str, float]:
        tr = self.tracer
        reuse_s = tr.layer_seconds("dataplane.scalar.reuse")
        fresh_s = tr.layer_seconds("dataplane.scalar.fresh")
        out = self._timeline_layers()
        out.update(
            {
                "dataplane.scalar.reuse_pps": self.sent / reuse_s if reuse_s else 0.0,
                "dataplane.scalar.fresh_pps": self.sent / fresh_s if fresh_s else 0.0,
                "dataplane.tcam.lookups": self.per_unit("reuse_lookups")
                + self.per_unit("fresh_lookups"),
                "dataplane.tcam.reuse_cache_hit_share": self.ratio(
                    "reuse_hits", "reuse_lookups"
                ),
                "dataplane.tcam.fresh_cache_hit_share": self.ratio(
                    "fresh_hits", "fresh_lookups"
                ),
            }
        )
        return out

    def work(self) -> Dict[str, Tuple[float, str]]:
        return {
            "dataplane.scalar.reuse": (float(self.sent), "packets"),
            "dataplane.scalar.fresh": (float(self.sent), "packets"),
        }

    def deterministic(self) -> Optional[Dict[str, object]]:
        return {
            "sent": self.sent,
            "reuse": list(self.reference.as_tuple()),
            "fresh": list(self.first_fresh.as_tuple()),
        }


# ---------------------------------------------------------------------------
# Internet2: the multi-tenant control plane
# ---------------------------------------------------------------------------
class TenantChurn(Workload):
    """Whole platform histories: a seeded churn of tenant intents each."""

    name = "internet2_tenant_churn"
    op = "intent"

    #: The only calls attributed in this workload; the rest of a history
    #: is the event loop's own time (``sim.run`` self time).
    TRACED = (
        (TenantOrchestrator, "submit", "tenancy.submit"),
        (CapacityArbiter, "request", "tenancy.arbiter.request"),
        (OptimizationEngine, "place", _place_span_name),
        (RuleGenerator, "generate", "core.rulegen.generate"),
        (SouthboundFabric, "push_desired", "southbound.push_desired"),
        (Simulator, "run", "sim.run"),
    )

    def setup(self) -> None:
        self.tenants = max(4, int(TENANTS * self.scale))
        self.latencies: List[float] = []
        self.first_history: Dict[str, object] = {}
        self.warm_up()
        self.latencies.clear()

    def prepare(self, i: int) -> None:
        # No two histories cost the same, so in a traced run each traced
        # unit replays the history of its untraced neighbour.
        history = (i // 2 if self.tracer.active else i) % TENANT_HISTORIES
        seed = derive(self.seed, f"pipeline.history.{history}")
        topo = internet2(default_host_cores=TENANT_HOST_CORES)
        self.sim = Simulator(seed=seed)
        self.orch = TenantOrchestrator(topo, self.sim, seed=seed)
        self.intents = generate_intents(self.tenants, sorted(topo.hosts), seed)

    def unit(self, i: int) -> None:
        orch, tracer = self.orch, self.tracer
        wrappers = (
            wrapped_methods(tracer, self.TRACED) if tracer.enabled else nullcontext()
        )
        with wrappers:
            orch.start()
            for delay, intent in self.intents:
                orch.submit(intent, delay=delay)
            self.sim.run(until=TENANT_HORIZON_SIM_S)
            orch.stop()

    def check(self, i: int) -> Tuple[int, int]:
        self.units += 1
        m = self.orch.metrics_summary()
        self.latencies.extend(self.orch.latencies)
        self.add(
            queued_grants=m["queued_grants"],
            convergences=m["convergences"],
            completed=m["completed"],
            rejected=m["rejected"],
            failed=m["failed"],
            sim_events=self.sim.events_fired,
        )
        if i == 0:
            self.first_history = {
                "state": _digest(self.orch.state_signature()),
                "latencies": _digest(self.orch.latencies),
            }
        attempted = int(m["intents"])
        # ``completed`` / ``rejected`` / ``failed`` are all answers the
        # platform gave; what fails the benchmark is an intent still
        # waiting at the horizon, or a broken platform invariant.
        failed = int(m["waiting"])
        broken = {
            key: m[key]
            for key in ("verify_failed", "drift", "cross_tenant_violation_seconds")
            if m[key]
        }
        if failed or broken:
            self.fail(f"unit {i}: {failed} intents waiting at the horizon, {broken}")
        if broken:
            failed = attempted
        return attempted, failed

    def layers(self) -> Dict[str, float]:
        tr = self.tracer
        lat = sorted(self.latencies)

        def rank(q: float) -> float:
            return lat[min(len(lat) - 1, int(q * len(lat)))] if lat else 0.0

        warm = tr.calls_per_unit("core.engine.place_warm")
        cold = tr.calls_per_unit("core.engine.place_cold")
        return {
            "tenancy.submit_s": tr.layer_seconds("tenancy.submit"),
            "tenancy.arbiter.request_s": tr.layer_seconds("tenancy.arbiter.request"),
            "tenancy.arbiter.request_calls": tr.calls_per_unit(
                "tenancy.arbiter.request"
            ),
            "tenancy.queued_grants": self.per_unit("queued_grants"),
            "tenancy.convergences": self.per_unit("convergences"),
            "tenancy.intents_completed": self.per_unit("completed"),
            "tenancy.intents_rejected": self.per_unit("rejected"),
            "tenancy.intents_failed": self.per_unit("failed"),
            "tenancy.intent_converge_sim_s_p50": rank(0.50),
            "tenancy.intent_converge_sim_s_mean": mean(lat) if lat else 0.0,
            "tenancy.intent_converge_sim_s_p99": rank(0.99),
            "sim.run_self_s": tr.layer_seconds("sim.run"),
            "sim.events": self.per_unit("sim_events"),
            "core.engine.place_cold_s": tr.layer_seconds("core.engine.place_cold"),
            "core.engine.place_warm_s": tr.layer_seconds("core.engine.place_warm"),
            "core.engine.place_calls": warm + cold,
            "core.engine.warm_share": warm / (warm + cold) if warm + cold else 0.0,
            "core.rulegen.generate_s": tr.layer_seconds("core.rulegen.generate"),
            "southbound.push_desired_s": tr.layer_seconds("southbound.push_desired"),
        }

    def work(self) -> Dict[str, Tuple[float, str]]:
        return {"sim.run": (self.per_unit("sim_events"), "events")}

    def deterministic(self) -> Optional[Dict[str, object]]:
        return self.first_history


WORKLOADS = {
    cls.name: cls
    for cls in (
        GeantColdDeploy,
        GeantReconfigLoop,
        ReplayColumnar,
        ReplayScalar,
        TenantChurn,
    )
}
