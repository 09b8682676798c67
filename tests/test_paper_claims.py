"""The paper's claims, one test per figure or table, each at its own band.

Every figure and table the paper makes its case with (Figs. 5-12, Tables
I, IV and V), plus the design claims of Sec. IV-A (class aggregation),
Sec. IV-D (LP relaxation), Sec. V-A (hash vs prefix sub-classes) and the
fast-failover reaction time, is asserted here and nowhere else.  The
bands are the paper's, with the slack stated next to each; they are not
to be widened to make a change pass.  Every experiment runs at
``quick=True`` except Fig. 9, whose rollback happens after the quick
horizon.  Wall-clock predicates (Table V) keep generous slack.
"""

import sys
from pathlib import Path

import numpy as np

from repro.classify.split import SubclassSplit
from repro.core.dynamic import FailoverConfig
from repro.core.engine import EngineConfig, OptimizationEngine
from repro.experiments import (
    failure_sweep,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    packet_replay,
    table1,
    table4,
    table5,
)
from repro.experiments.fig6 import MONITOR_CAPACITY_PPS, measure_loss
from repro.experiments.harness import REPLAY_HEADROOM, standard_setup
from repro.traffic.classes import TrafficClass
from repro.traffic.diurnal import aggregate_smoothing_ratio
from repro.traffic.replay import replay_series

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import churn_counts  # noqa: E402


def test_table1_only_apple_has_every_property():
    result = table1.run()
    assert len(result.rows) == 8
    assert [r for r in result.rows if r[0] == "APPLE"][0][1:] == ["yes", "yes", "yes"]
    only_complete = [r[0] for r in result.rows if r[1:] == ["yes", "yes", "yes"]]
    assert only_complete == ["APPLE"]


def test_table4_vnf_datasheets():
    result = table4.run()
    assert len(result.rows) == 4
    by_name = {r[0]: r for r in result.rows}
    assert by_name["firewall"][1] == 4 and by_name["firewall"][3] == "yes"
    assert by_name["ids"][1] == 8 and by_name["ids"][2] == "600 Mbps"
    assert by_name["nat"][1] == 2


def test_table5_engine_time():
    """Sub-second-scale solves on the small and medium topologies (5 s of
    slack for slow machines), Internet2 within 3x UNIV1, and a valid
    AS-3679 plan (the paper's 3.013 s CPLEX row)."""
    result = table5.run(quick=True)
    assert {r[0] for r in result.rows} == {"internet2", "geant", "univ1"}
    for row in result.rows:
        assert row[4] > 0  # measured time
        assert row[6] > 0  # instances
    times = {row[0]: row[4] for row in result.rows}
    assert times["internet2"] <= times["univ1"] * 3  # same order of magnitude

    for topology, snapshots in (
        ("internet2", 4), ("geant", 4), ("univ1", 4), ("as3679", 2),
    ):
        _topo, controller, series = standard_setup(topology, snapshots=snapshots)
        classes = controller.build_classes(series.mean())
        cores = controller.available_cores()
        plan = controller.engine.place(classes, cores)
        assert plan.total_instances() > 0, topology
        assert not plan.validate(cores), topology
        if topology != "as3679":
            assert plan.solve_seconds < 5.0, topology


def test_fig5_boot_pipeline_breakdown():
    rows = {r[0]: r[1] for r in fig5.run(quick=True).rows}
    # Networking orchestration (Steps 1-5) dominates the end-to-end boot.
    assert rows["Steps 1-5 measured (networking orchestration)"] > rows[
        "Steps 6-8 measured (libvirt + image + boot)"
    ]
    assert 3.9 <= rows["end-to-end boot (mean)"] <= 4.6
    assert rows["Step 9 ClickOS reconfigure"] == 0.03
    assert rows["Steps 10-11 rule install"] == 0.07
    # The fast path is two orders of magnitude below the slow path.
    assert rows["fast path (reconfigure spare), measured"] < 0.05


def test_packet_replay_tracks_the_fluid_model():
    planned = {r[0]: r[1] for r in packet_replay.run(quick=True).rows}
    assert planned["policy violations"] == 0
    assert planned["delivered"] > 0
    # At planned load, residual loss is only CBR-superposition burstiness.
    assert planned["measured loss"] < 0.05

    overload = {
        r[0]: r[1]
        for r in packet_replay.run(overload_factor=1.6, quick=True).rows
    }
    assert overload["policy violations"] == 0
    measured, fluid = overload["measured loss"], overload["fluid-model loss"]
    # Same order of magnitude; the fluid model is conservative because it
    # composes per-step losses on the full offered load.
    assert 0.5 * fluid <= measured <= 1.3 * fluid


def test_fig6_loss_knee_is_packet_size_independent():
    result = fig6.run(quick=True)
    rows = {r[0]: r for r in result.rows}
    # Below the knee: no loss at any packet size.
    assert all(r[1] == 0 for r in result.rows if r[0] <= 8.0)
    assert rows[2.0][1] == 0.0 and rows[2.0][2] == 0.0
    # Above the knee: loss soars and is packet-size independent.
    assert all(r[1] > 0 for r in result.rows if r[0] >= 10.0)
    assert rows[14.0][1] > 0.3
    for r in result.rows:
        assert abs(r[1] - r[2]) < 0.02  # 64 B vs 1500 B

    loss = measure_loss(12_000.0, 1500, duration=1.0)
    assert abs(loss - (1.0 - MONITOR_CAPACITY_PPS / 12_000.0)) < 0.05


def test_fig7_boot_gap():
    per_run = [r for r in fig7.run(quick=True).rows if isinstance(r[0], int)]
    boots = [r[1] for r in per_run]
    # Paper: 3.9-4.6 s range, ~4.2 s mean.
    assert 3.7 <= min(boots) and max(boots) <= 4.8
    assert 3.9 <= sum(boots) / len(boots) <= 4.6
    # Throughput is zero for the whole gap: losses ~ gap x rate.
    assert all(r[3] > 0 for r in per_run)


def test_fig8_transfer_time_by_scenario():
    rows = {r[0]: r for r in fig8.run(quick=True).rows}
    assert set(rows) == {"no-failover", "wait-5s", "reconfigure", "naive"}
    medians = {k: rows[k][3] for k in rows}
    # The three no-outage scenarios coincide (within statistical noise).
    base = medians["no-failover"]
    assert abs(medians["wait-5s"] - base) < 0.5 * base
    assert abs(medians["reconfigure"] - base) < 0.5 * base
    # The naive flip-before-boot pays for the ~4.2 s boot (plus RTO backoff).
    assert medians["naive"] > base + 4.0


def test_fig9_overload_failover_and_rollback_lose_nothing():
    rows = fig9.run().rows
    events = [r[1] for r in rows]
    for event in ("rate->10Kpps", "overload-detected", "split-active", "rollback"):
        assert event in events
    # Detection is immediate: within ~0.3 s of the surge.
    surge_t = next(r[0] for r in rows if r[1] == "rate->10Kpps")
    detect_t = next(r[0] for r in rows if r[1] == "overload-detected")
    assert detect_t - surge_t < 0.35
    # Paper: 0% loss during the whole process.
    assert next(r[2] for r in rows if r[1] == "total packet loss") == 0


def test_fig10_tagging_reduces_tcam_at_least_4x():
    medians = {r[0]: r[3] for r in fig10.run(quick=True).rows}
    assert set(medians) == {"internet2", "geant", "univ1"}
    for name, median in medians.items():
        assert median >= 4.0, f"{name}: reduction {median} < 4x"
    # Largest reduction on the multipath data center.
    assert medians["univ1"] >= medians["internet2"]
    assert medians["univ1"] >= medians["geant"]


def test_fig11_core_usage_against_the_ingress_strawman():
    counts = churn_counts.Counts()
    with counts.installed():
        rows = fig11.run(quick=True).rows
    reductions = {r[0]: r[3] for r in rows}
    # Paper shape: ~4x on Internet2, ~2.5x on GEANT, small gap on UNIV1.
    assert 3.0 <= reductions["internet2"] <= 5.5
    assert 2.0 <= reductions["geant"] <= 3.5
    assert reductions["univ1"] < reductions["geant"]
    assert reductions["univ1"] < reductions["internet2"]
    # The work, counted on the same run: one place() per matrix, two per
    # topology.  One GEANT place() gives up on ceiling repair and falls back
    # to solve_with_rounding, which makes 91 of the run's 113 LP solves
    # (ROADMAP items 3 and 12 are to remove that fallback).
    assert {
        "places": counts.places,
        "solves_per_place": dict(sorted(counts.solves_per_place.items())),
        "fallbacks": counts.fallbacks,
        "fallback_solves": counts.fallback_solves,
    } == {
        "places": 6,
        "solves_per_place": {1: 2, 3: 1, 4: 1, 5: 1, 99: 1},
        "fallbacks": 1,
        "fallback_solves": 91,
    }


def test_fig12_failover_loss_and_extra_cores():
    result = fig12.run(quick=True)
    for name, mean_no, max_no, mean_fo, max_fo, extra in result.rows:
        # Failover keeps the loss lower, in the mean and the worst case.
        assert mean_fo <= mean_no, name
        assert max_fo <= max_no, name
        # Few extra ClickOS instances (slack for the non-Internet2 regimes).
        assert extra < 60, f"{name}: {extra} extra cores"
    # The headline Internet2 number matches the paper's < 17 average cores.
    assert {r[0]: r[5] for r in result.rows}["internet2"] < 20


def test_failure_sweep_failover_reduces_loss():
    rows = {r[0]: r for r in failure_sweep.run(quick=True).rows}
    # Failover strictly reduces loss under injected crashes.
    assert rows[2][2] < rows[2][1]


def test_sec4a_aggregation_shrinks_the_model_and_smooths_traffic():
    """Per-class input is a quarter of a 4-flows-per-class input, both
    place validly, and aggregates have a lower coefficient of variation
    than their members (the power-law MVR argument)."""
    _topo, controller, series = standard_setup("internet2", snapshots=2)
    cores = controller.available_cores()
    classes = controller.build_classes(series.mean())
    flows = [
        TrafficClass(
            class_id=f"{c.class_id}/flow{k}",
            src=c.src,
            dst=c.dst,
            path=c.path,
            chain=c.chain,
            rate_mbps=c.rate_mbps / 4,
        )
        for c in classes
        for k in range(4)
    ]
    assert not controller.engine.place(classes, cores).validate(cores)
    assert not controller.engine.place(flows, cores).validate(cores)

    _topo, _controller, series = standard_setup("internet2", snapshots=96)
    ratio = aggregate_smoothing_ratio(series, 8)
    assert ratio < 0.9, f"aggregation did not smooth traffic (ratio={ratio})"


def test_sec4d_lp_relaxation_bounds_the_rounded_plan():
    _topo, controller, series = standard_setup(
        "internet2", snapshots=2, demand_mbps=6000.0
    )
    classes = controller.build_classes(series.mean())[:40]
    cores = controller.available_cores()
    plan = OptimizationEngine().place(classes, cores)
    assert not plan.validate(cores)
    assert plan.lp_bound <= plan.total_instances() + 1e-9


def test_sec5a_prefix_subclasses_inflate_rules_hashing_does_not():
    """Hashing needs one rule per sub-class; the deployable prefix method
    "may need multiple rules to represent a single sub-class"."""
    rng = np.random.default_rng(0)
    splits = []
    for k in range(200):
        n = int(rng.integers(1, 7))
        weights = rng.dirichlet(np.ones(n)).tolist()
        splits.append(SubclassSplit.from_weights(f"10.{k % 256}.0.0/16", weights))
    hashing = sum(s.num_subclasses for s in splits)
    prefix = sum(s.total_prefix_rules() for s in splits)
    assert prefix >= hashing  # prefixes never beat one rule per sub-class
    # Arbitrary fractions need several CIDR blocks each.
    assert prefix / hashing > 1.5

    # Power-of-two even splits have aligned boundaries: no inflation.
    even = [
        SubclassSplit.from_weights(f"10.{k}.0.0/16", [0.25] * 4) for k in range(100)
    ]
    assert sum(s.total_prefix_rules() for s in even) == sum(
        s.num_subclasses for s in even
    )


def test_fast_failover_needs_a_fast_reaction():
    """A full-VM-scale reaction (30 s) forfeits fast failover's benefit:
    why the paper insists on ClickOS reconfiguration for failover."""
    _topo, controller, series = standard_setup(
        "internet2",
        snapshots=60,
        interval=60.0,
        seed=3,
        engine_config=EngineConfig(capacity_headroom=REPLAY_HEADROOM),
    )
    timeline = replay_series(controller.class_builder, series)
    controller.deploy(controller.compute_placement(series.mean()))
    loss = {
        delay: controller.make_dynamic_handler(
            FailoverConfig(enabled=True, detection_delay=delay)
        ).replay(timeline).mean_loss
        for delay in (0.1, 30.0)
    }
    assert loss[0.1] <= loss[30.0]
