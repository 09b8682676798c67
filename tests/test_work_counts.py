"""The work placement and the southbound fabric cost, pinned.

Same plans, same solves, same wire work, less time.

Two seeded inputs go through ``OptimizationEngine.place()`` by public calls
with ``tools/churn_counts.py``'s :class:`Counts` installed (the one
counter, so the tool and this test cannot disagree on what a count is):

* the 24 seed-0 GEANT snapshots (the ``geant_cold_deploy`` inputs), each
  placed from a cold engine, then the series again on the same engine,
  re-solving whatever template it kept;
* one 16-tenant churn history (seed 0, history 0) of the tenant platform,
  built as ``internet2_tenant_churn`` builds its histories.

For each, the numbers below are what the program did: ``place()`` calls,
the histogram of LP solves per call, LP assemblies, template re-solves,
``PlacementError``s, the instances dust consolidation removed, the summed
objective and a digest of every plan's ``distribution`` items and
``quantities`` in order (or the error's message).  A change that makes
placement faster must leave every number here exactly as it is.

The southbound fabric is pinned on the 24-epoch seed-0 GEANT
reconfiguration series (``tests/deploy_series.py::GeantReconfigSeries``:
the benchmark's ``geant_reconfig_loop``, warm-up epoch included) and on the
same churn history.  The wire work must not move: messages, retries, acks
by status, ops sent by ``(phase, kind)``, switches each push touched, class
versions bumped, simulator events, a digest of the series' (objective,
convergence sim-seconds) and of the final ``state_signature()`` — the
same two digests as the benchmark's ``deterministic`` block.  The work a
faster epoch removed is pinned at its new value; at commit 6cf467e,
before the epoch was rewritten, the series read:

* ``TcamEntry`` objects built: 26,616 (one per classification row in every
  render, one per spec in every ``classify_sync``), now 6,725 (one per spec
  that changed);
* bytes fed to ``hashlib.sha1`` for cookies: 3,043,841, now 0 (a cookie is
  the message's identity);
* switch read-backs: 1,348 (every TCAM and vSwitch a message touched, read
  back after every commit), now 778 (a converged vSwitch is compared in
  place);
* ``diff_switch`` calls: 1,150 (every switch, at the push and after the
  commit), now 575 (a switch in sync needs none).

On the churn history the southbound fabric's *idle* work is pinned too.
At commit d70d4a8 every tenant fabric's reconciler ticked every 0.5 sim-s
from day 0 to the horizon, converged or not, and the history read:

* simulator events fired: 2,203 (1,778 of them reconcile ticks on
  converged fabrics with zero drift, 280 isolation-audit ticks);
* reconcile diff evaluations (``_reconcile`` calls that reach the diff):
  1,779;
* ``SwitchDiff`` objects built: 490 (a fresh empty one for every switch
  in sync whenever a view re-diffed);
* ``TcamEntry`` objects built: 275 (a pass-by and a host-match entry per
  switch of every tenant network, among others).

A fabric at rest now parks its reconciler (no tick is scheduled until a
push, a transaction end, a (dis)connect or a rule mutation wakes it), an
in-sync switch shares one empty diff and the static entries are shared per
switch name.  ``reconcile_ticks`` — read from the fabrics' own metrics, the
number their signatures carry — stayed 1,779: the ticks a parked reconciler
skips are counted as the idle ticks they would have been.

At commit 7f70cf4 each tenant op solved inside a grant sized by a separate
estimate, and the history read 50 ``place()`` calls, 3 of them refused
(``PlacementError`` inside the grant), 138 LP solves, 20 warm; 16 channels,
43 messages, 1,779 reconcile ticks; 464 simulator events, 40 reconcile diff
evaluations, 22 ``SwitchDiff`` and 64 ``TcamEntry`` objects.  A tenant now
plans on the whole physical pool and the arbiter charges that plan, so:

* every blueprint places, in one LP solve each (no budget for the ceiling
  repair to trip on), and the 3 refused creates complete — with them the 4
  later intents on their chains, which were tenant-scoped misses, and one
  more re-plan: 55 calls, 57 of 58 intents completed instead of 50;
* plans re-solved on the full host set move instances between hosts more
  often than plans confined to a grant did (at 7f70cf4, 16 of 31 pushes
  touched no switch; now 5 of 39), so the wire work grows: 60 channels,
  171 messages, 1,893 reconcile ticks, 730 events, 50 diff evaluations,
  128 ``SwitchDiff`` and 128 ``TcamEntry`` objects.

A tenant now places on the live hosts' cores *and memory* (Eq. 6 per
resource type, as the controller's day-0 placement always did), and the
arbiter charges delta grants.  On this history no grant ever waited, so
every move below is the memory rows' (the same numbers come from the
commit before with only the memory budgets added): the same 55 calls,
solves, assemblies and warm re-solves, but other vertices — 9 instances
consolidated away (was 6), objective 180 (178), plan digest
27667a8b339d0051 — and with them 59 channels (60), 156 messages (171),
699 events (730), 49 diff evaluations (50), 107 ``SwitchDiff`` (128) and
116 ``TcamEntry`` (128) objects; 1,893 reconcile ticks unchanged.

Make-before-break is now a row of the placement model: every op of a
tenant with an installed plan solves against it (q_old as u ≥ q columns'
lower bounds, ties in Σq broken toward the running instances).  The 55
calls stay one solve each, but the first op with an incumbent builds the
make-before-break template (36 assemblies, was 32; 19 warm, was 23), and
re-plans keep their instances: 5 instances consolidated away (9),
objective 176 (180), plan digest 94ca48f0468e1d87; 35 channels (59), 90
messages (156), 566 events (699), 48 diff evaluations (49), 63
``SwitchDiff`` (107) and 86 ``TcamEntry`` (116) objects; 1,893 reconcile
ticks unchanged.  The audit reads 7,273 ledger entries (7,018) and meets
12,418 running instances (12,730): the plans and the epochs' delta
grants differ, the 280 ticks do not.

Day 0 is now written through the southbound applier, from the one render
that the fabric then adopts (16 day 0s, 16 renders outside a push: one
each), and an entry the applier writes from the spec of a shared static
entry is that shared object.  So the host-match entries a push puts for
newly used hosts are no longer built: 74 ``TcamEntry`` objects (86) here,
and 6,714 (6,725) on the GEANT reconfiguration series, whose 11 add-phase
``tcam_put`` ops are such host matches.  Every other count is unchanged.

The isolation audit stays a poll, whatever it costs per tick: on the same
churn history it ticks 280 times (every 0.25 sim-s to the 70 s horizon),
and across those ticks it reads 7,273 arbiter ledger entries and meets
12,418 running instances — every entry of ``steady`` and ``inflight`` and
every running instance of a live tenant fabric, on every tick (the counter
also checks each tick against what the ledgers and fabrics held).

The data plane's walk work is pinned on ``tools/column_stages.py``'s seed-0
Internet2 window (2 sim-seconds, 10,861 packets), walked at the planned
rates and at 1.6 times them (the same packets, timestamps divided): by
``inject`` one packet at a time — plan resolutions and TCAM lookups — and
by the columnar walker — bulk and sequential packets, instances certified
by the run-peak bound and merged, and the arrivals merged.  A packet's
trace became the walk plan's shared tuple (no per-packet copy) with every
number here unchanged.
"""

import sys
from pathlib import Path

import hashlib
from functools import lru_cache
from unittest import mock

import repro.dataplane.sharded as sharded
from repro.core.constraints import assemble_placement_lp
from repro.core.engine import OptimizationEngine
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import Packet
from repro.dataplane.switch import host_match_entry, pass_by_entry
from repro.experiments.harness import standard_setup
from repro.sim.rng import SeededRNG, derive
from repro.topology.datasets import internet2
from repro.topology.routing import Router
from repro.traffic.classes import TrafficClass
from repro.vnf.chains import STANDARD_CHAINS
from repro.vnf.types import DEFAULT_CATALOG
from tests.deploy_series import GEANT_SNAPSHOTS, GeantReconfigSeries
from tests.lp_reference import solve_milp

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import churn_counts  # noqa: E402
import column_stages  # noqa: E402

PINNED_GEANT = {
    "places": 48,
    "solves_per_place": {1: 48},
    "assemblies": 24,
    "warm_places": 24,
    "failed_places": 0,
    "consolidated": 310,
    "objective": 4824.0,
    "plans": "82154cf14cb50bfd",
}

PINNED_CHURN = {
    "places": 55,
    "solves_per_place": {1: 55},
    "assemblies": 36,
    "warm_places": 19,
    "failed_places": 0,
    "consolidated": 5,
    "objective": 176.0,
    "plans": "94ca48f0468e1d87",
}


PINNED_GEANT_RECONFIG = {
    "messages": 1693,
    "retries": 0,
    "acks": {"applied": 1693},
    "ops": {
        ("add", "tcam_put"): 11,
        ("add", "vsw_put"): 10310,
        ("del", "tcam_del"): 11,
        ("del", "vsw_del"): 10300,
        ("swap", "classify_sync"): 575,
    },
    "switches_touched": 575,
    "version_bumps": 6341,
    "sim_events": 3386,
    "first_pass": "3719ab816696a26c",
    "state": "d1cd665ca81acf22",
}

REMOVED_GEANT_RECONFIG = {
    "entries_built": 6714,
    "sha1_bytes": 0,
    "read_backs": 778,
    "diff_switch_calls": 575,
}

PINNED_CHURN_SOUTHBOUND = {
    "channels_built": 35,
    "messages": 90,
    "retries": 0,
    "reconcile_ticks": 1893,
}

PINNED_CHURN_IDLE = {
    "sim_events": 566,
    "reconcile_evaluations": 48,
    "switch_diffs_built": 63,
    "entries_built": 74,
    "day0s": 16,
    "day0_renders": 16,
    "day0_materializations": 16,
}

PINNED_CHURN_AUDIT = {
    "audit_ticks": 280,
    "ledger_entries_read": 7273,
    "running_instances_summed": 12418,
    "audit_misses": 0,
}

PINNED_DATAPLANE = {
    "sent": 10861,
    "scalar planned": {
        "plan resolutions": 150,
        "tcam lookups": 37939,
        "ledger": [10861, 0, 0],
    },
    "scalar overload": {
        "plan resolutions": 0,
        "tcam lookups": 36404,
        "ledger": [9612, 1249, 0],
    },
    "columnar planned": {
        "bulk packets": 10861,
        "sequential packets": 0,
        "instances": 62,
        "instances certified": 60,
        "instances merged": 2,
        "arrivals merged": 1186,
        "ledger": [10861, 0, 0],
    },
    "columnar overload": {
        "bulk packets": 1689,
        "sequential packets": 9172,
        "instances": 62,
        "instances certified": 27,
        "instances merged": 35,
        "arrivals merged": 17705,
        "ledger": [9612, 1249, 0],
    },
}
DATAPLANE_SIM_S = 2.0
OVERLOAD = 1.6


#: ``place()``'s rounded instance count against the exact integer optimum
#: of its own model (Eq. 1–6 with integral q, ``tests/lp_reference.py::
#: solve_milp``), per small seeded Internet2 instance (2–8 classes), as
#: (classes, rounding, optimum).  The engine rounds the LP relaxation up,
#: so the gap is what that costs (ROADMAP item 12(a)).
PINNED_ROUNDING_GAP = [
    (6, 41, 37), (4, 18, 16), (8, 51, 47), (5, 34, 31), (3, 23, 21),
    (8, 54, 50), (7, 69, 61), (3, 19, 19), (4, 21, 21), (7, 36, 33),
    (7, 35, 30), (4, 34, 30), (7, 34, 29), (3, 25, 23), (3, 10, 9),
    (2, 25, 24), (4, 36, 34), (2, 14, 13), (3, 22, 21), (5, 24, 22),
    (7, 54, 49), (3, 15, 15), (2, 19, 19), (7, 54, 53),
]
ROUNDING_GAP_INSTANCES = 24


def _digest(*parts) -> str:
    """The benchmark's digest (``benchmarks/pipeline/workloads.py``)."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _pinned(counts: "churn_counts.Counts") -> dict:
    return {
        "places": counts.places,
        "solves_per_place": dict(sorted(counts.solves_per_place.items())),
        "assemblies": counts.assemblies,
        "warm_places": counts.warm_places,
        "failed_places": counts.failed_places,
        "consolidated": counts.consolidated,
        "objective": counts.objective,
        "plans": counts.plans.hexdigest()[:16],
    }


def geant_counts() -> dict:
    _topo, controller, series = standard_setup("geant", snapshots=24, seed=0)
    engine = controller.engine
    cores = controller.available_cores()
    memory = controller.available_memory_gb()
    class_sets = [controller.build_classes(m) for m in series.snapshots]
    counts = churn_counts.Counts()
    with counts.installed():
        for classes in class_sets:
            engine.clear_templates()
            engine.place(classes, cores, available_memory_gb=memory)
        for classes in class_sets:
            engine.place(classes, cores, available_memory_gb=memory)
    return _pinned(counts)


@lru_cache(maxsize=1)
def _churn_history_16() -> "churn_counts.Counts":
    # The static entries are shared per switch name for the life of the
    # process; count the history as a fresh process runs it, whatever ran
    # before it here.
    pass_by_entry.cache_clear()
    host_match_entry.cache_clear()
    counts = churn_counts.Counts()
    churn_counts.run_history(counts, 16, derive(0, "pipeline.history.0"))
    return counts


def churn_counts_16() -> dict:
    return _pinned(_churn_history_16())


@lru_cache(maxsize=1)
def geant_reconfig_counts() -> "churn_counts.Counts":
    """The series through ``Counts``; the digests ride on the object."""
    series = GeantReconfigSeries(seed=0)
    counts = churn_counts.Counts()
    first_pass = []
    with counts.installed():
        for unit in range(-1, GEANT_SNAPSHOTS):  # the warm-up, then one pass
            plan, convergence, report = series.epoch()
            assert report.ok, report.summary()
            if unit >= 0:
                first_pass.append((plan.objective, convergence.latency))
        counts.first_pass = _digest(first_pass)
        counts.state = _digest(series.fabric.state_signature())
    return counts


def test_geant_placement_work_is_pinned():
    assert geant_counts() == PINNED_GEANT


def test_churn_placement_work_is_pinned():
    assert churn_counts_16() == PINNED_CHURN


def test_churn_tenants_solve_once_and_are_never_refused():
    """A tenant plans on the whole physical pool, which every blueprint of
    the history fits: one LP solve per ``place()`` and no ``PlacementError``
    (the certificate-sized grants it replaced refused 3 of 50 calls here
    and averaged 2.76 solves per call)."""
    counts = _churn_history_16()
    assert counts.failed_places == 0
    assert dict(counts.solves_per_place) == {1: counts.places}


def test_geant_reconfiguration_wire_work_is_pinned():
    counts = geant_reconfig_counts()
    assert {
        "messages": counts.messages,
        "retries": counts.retries,
        "acks": dict(sorted(counts.acks.items())),
        "ops": dict(sorted(counts.ops.items())),
        "switches_touched": counts.switches_touched,
        "version_bumps": counts.version_bumps,
        "sim_events": counts.sim_events,
        "first_pass": counts.first_pass,
        "state": counts.state,
    } == PINNED_GEANT_RECONFIG


def test_geant_reconfiguration_removed_work_stays_removed():
    counts = geant_reconfig_counts()
    assert {
        name: getattr(counts, name) for name in REMOVED_GEANT_RECONFIG
    } == REMOVED_GEANT_RECONFIG


def test_churn_southbound_work_is_pinned():
    counts = _churn_history_16()
    assert {
        name: getattr(counts, name) for name in PINNED_CHURN_SOUTHBOUND
    } == PINNED_CHURN_SOUTHBOUND


def test_churn_audit_reads_are_pinned():
    counts = _churn_history_16()
    assert {
        name: getattr(counts, name) for name in PINNED_CHURN_AUDIT
    } == PINNED_CHURN_AUDIT


def test_churn_idle_work_is_pinned():
    counts = _churn_history_16()
    assert {
        name: getattr(counts, name) for name in PINNED_CHURN_IDLE
    } == PINNED_CHURN_IDLE
    assert counts.day0_renders == counts.day0s  # one render per day 0
    assert counts.day0_materializations == counts.day0s  # and one instance pass


def dataplane_counts() -> dict:
    """Scalar then columnar walks of ``tools/column_stages.py``'s window.

    The seed-0 window (``DATAPLANE_SIM_S`` sim-seconds of Internet2 CBR
    traffic at the planned rates), and the same packets at ``OVERLOAD``
    times the rates (timestamps divided), go through ``inject`` one packet
    at a time, starting on the freshly deployed network, then through
    ``ShardedDataPlane.inject_columns`` with ``column_stages.Stages``
    installed, on the plans the scalar walks resolved.
    """
    network, window = column_stages.build_window(0, DATAPLANE_SIM_S)
    classes, cls_idx, hashes, ts = window
    windows = {"planned": window, "overload": (classes, cls_idx, hashes, ts / OVERLOAD)}
    ends = {c: (network.class_paths[c][0], network.class_paths[c][-1]) for c in classes}
    tables = [sw.table for sw in network.switches.values()]
    resolve = DataPlaneNetwork._resolve_plan
    out = {"sent": len(ts)}
    for name, (keys, kidx, hs, times) in windows.items():
        network.reset_runtime_state()
        resolved = []

        def counted(net, *args):
            resolved.append(args)
            return resolve(net, *args)

        with mock.patch.object(DataPlaneNetwork, "_resolve_plan", counted):
            for ci, h, now in zip(kidx.tolist(), hs.tolist(), times.tolist()):
                src, dst = ends[keys[ci]]
                network.inject(Packet(keys[ci], h, src, dst), now=now)
        ledger = list(network.stats_snapshot().as_tuple())  # flushes the counters
        out[f"scalar {name}"] = {
            "plan resolutions": len(resolved),
            "tcam lookups": sum(table.lookup_count for table in tables),
            "ledger": ledger,
        }
    for name, columns in windows.items():
        network.reset_runtime_state()
        plane = sharded.ShardedDataPlane(network)
        stages = column_stages.Stages(columns[3])
        with stages.installed():
            plane.inject_columns(*columns)
        out[f"columnar {name}"] = {
            "bulk packets": plane._walker.bulk_packets,
            "sequential packets": plane._walker.seq_packets,
            "instances": stages.instances,
            "instances certified": stages.certified,
            "instances merged": stages.merged,
            "arrivals merged": stages.merged_arrivals,
            "ledger": list(network.stats_snapshot().as_tuple()),
        }
    return out


def test_dataplane_walk_work_is_pinned():
    assert dataplane_counts() == PINNED_DATAPLANE


def rounding_gaps() -> list:
    """(classes, rounded instances, MIP optimum) per seeded instance."""
    topo = internet2()
    router = Router(topo)
    hosts = sorted(topo.hosts)
    cores = {s: h.cores for s, h in topo.hosts.items()}
    memory = {s: h.memory_gb for s, h in topo.hosts.items()}
    out = []
    for seed in range(ROUNDING_GAP_INSTANCES):
        rng = SeededRNG(derive(seed, "tests.placement_gap"))
        classes = []
        for k in range(rng.integer(2, 9)):
            src, dst = rng.choice(hosts, size=2, replace=False)
            chain = STANDARD_CHAINS[rng.integer(0, len(STANDARD_CHAINS))]
            rate = rng.uniform(200.0, 4000.0)
            classes.append(
                TrafficClass(f"c{k}", src, dst, router.path(src, dst), chain, rate)
            )
        engine = OptimizationEngine(DEFAULT_CATALOG)
        plan = engine.place(classes, cores, memory)
        # The same model, assembled and written as place() writes it.
        clamped = engine._clamped(classes)
        template = assemble_placement_lp(
            clamped, cores, memory, cap=engine._cap, catalog=engine.catalog
        )
        template.set_rates(clamped)
        template.set_budgets(cores, memory)
        optimum, solution = solve_milp(template.lp)
        assert template.lp.is_feasible(solution)
        assert plan.lp_bound <= optimum + 1e-6 <= plan.objective + 2e-6
        out.append((len(classes), int(plan.objective), int(round(optimum))))
    return out


def test_rounding_gap_against_the_mip_optimum_is_pinned():
    gaps = rounding_gaps()
    assert gaps == PINNED_ROUNDING_GAP
    assert sum(rounded - optimum for _n, rounded, optimum in gaps) == 60


def test_table5_internet2_mip_optimum_is_pinned():
    """Table V's Internet2 model (132 classes, the engine's own cold
    template on the mean matrix, as ``experiments/table5.py`` places it):
    the exact integer optimum of Eq. 1–6 is 37 instances, while ``place()``
    rounds the LP relaxation to 55 (ROADMAP item 12).  UNIV1's 56 takes
    ≈ 29 s to prove and is not pinned in tier 1."""
    _topo, controller, series = standard_setup("internet2", snapshots=4)
    classes = controller.build_classes(series.mean())
    cores = controller.available_cores()
    engine = controller.engine
    plan = engine.place(classes, cores)
    (template,) = engine._templates.values()
    optimum, solution = solve_milp(template.lp)
    assert template.lp.is_feasible(solution)
    assert len(classes) == 132
    assert (round(optimum), plan.total_instances()) == (37, 55)
