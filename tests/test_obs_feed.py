"""The registry is fed once per event and ``obs.span`` is the only clock.

A ledger (``SouthboundMetrics``, ``ChaosMetrics`` and the probe loop's
tallies, a network's delivery and TCAM counters) belongs to one fabric /
run / network; the registry is
process-wide.  Whatever a process ran, every ledger-backed counter must
read the *sum* over the ledgers — not the last one collected — and with
observability off no instrumented path may read the span clock at all.
"""

from collections import Counter

import numpy as np
import pytest

from repro import obs
from repro.core.controller import AppleController
from repro.dataplane.packet import Packet
from repro.dataplane.sharded import ShardedDataPlane
from repro.experiments import (
    controller_crash,
    failure_recovery,
    flash_crowd,
    multi_tenant,
)
from repro.experiments.scenario import World
from repro.obs.collectors import collect_elastic
from repro.obs.metrics import MAX_SERIES_PER_METRIC
from repro.sim.kernel import Simulator
from repro.topology.datasets import internet2
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import STANDARD_CHAINS


@pytest.fixture
def obs_off_after():
    """Leave the process-wide obs state exactly as tier-1 expects it."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _series(name):
    """``{label values: value}`` of one counter family."""
    return {s.label_values: s.value for s in obs.metric(name).series()}


def _deploy():
    """An Internet2 deployment (one ``place()``) and two of its classes."""
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    deployment = controller.run(gravity_matrix(topo, 8000.0, seed=11))
    return deployment, deployment.plan.classes[:2]


def _packets(classes, n):
    return [
        Packet(
            class_id=c.class_id, flow_hash=(k + 0.5) / n, src=c.src, dst=c.dst
        )
        for c in classes
        for k in range(n)
    ]


# ----------------------------------------------------------------------
# (a) ledger == registry, over two runs in one process
# ----------------------------------------------------------------------
def test_registry_equals_sum_of_ledgers_over_two_chaos_rows(
    obs_off_after, monkeypatch
):
    engines = []
    finish = World.finish

    def recorded(world):
        engines.append(world)
        return finish(world)

    monkeypatch.setattr(World, "finish", recorded)
    obs.enable()
    for topology in ("internet2", "geant"):
        failure_recovery._recovery_row(topology, seed=7, quick=True)
    assert len(engines) == 2

    southbound = [e.fabric.metrics for e in engines]
    assert all(sb.messages_sent for sb in southbound)  # not vacuous
    messages = Counter()
    transactions = Counter()
    for sb in southbound:
        messages.update(sent=sb.messages_sent, lost=sb.messages_lost,
                        give_up=sb.give_ups)
        messages.update({f"ack_{k}": v for k, v in sb.acks.items()})
        transactions.update(sb.transactions)
    assert _series("southbound_messages_total") == {
        (k,): float(v) for k, v in messages.items()
    }
    assert _series("southbound_transactions_total") == {
        (k,): float(v) for k, v in transactions.items()
    }
    for name, field in (
        ("southbound_retries_total", "retries"),
        ("southbound_timeouts_total", "timeouts"),
        ("southbound_circuit_opens_total", "circuit_opens"),
        ("southbound_rollback_ops_total", "rollback_ops"),
        ("southbound_reconcile_repairs_total", "reconcile_repairs"),
    ):
        assert obs.metric(name).value == sum(
            getattr(sb, field) for sb in southbound
        ), name
    assert obs.metric("southbound_convergence_seconds").series()[0].count == (
        sum(len(sb.convergences) for sb in southbound)
    )

    chaos = [e.chaos for e in engines]
    kinds = Counter(rec.kind for m in chaos for rec in m.faults.values())
    assert _series("chaos_faults_injected_total") == {
        (k,): float(v) for k, v in kinds.items()
    }
    warm = Counter(
        "true" if c.warm_start else "false"
        for m in chaos for c in m.convergences
    )
    assert _series("chaos_reconvergences_total") == {
        (k,): float(v) for k, v in warm.items()
    }
    assert obs.metric("chaos_faults_detected_total").value == sum(
        m.detected_count() for m in chaos
    )
    probes = [e.probes for e in engines]
    assert obs.metric("chaos_probes_sent_total").value == sum(
        p.probes_sent for p in probes
    )
    assert obs.metric("chaos_probes_dropped_total").value == sum(
        p.probes_dropped for p in probes
    )
    assert obs.metric("chaos_downtime_seconds_total").value == pytest.approx(
        sum(p.downtime_seconds for p in probes)
    )

    networks = [e.worker.deployment.network for e in engines]
    tables = [sw.table for n in networks for sw in n.switches.values()]
    for name, total in (
        ("dataplane_packets_delivered_total",
         sum(n.delivered_count for n in networks)),
        ("dataplane_packets_dropped_total",
         sum(n.dropped_count for n in networks)),
        ("dataplane_policy_violations_total",
         sum(n.violation_count for n in networks)),
        ("dataplane_tcam_lookups_total", sum(t.lookup_count for t in tables)),
        ("dataplane_tcam_misses_total", sum(t.miss_count for t in tables)),
        ("dataplane_flow_cache_hits_total", sum(t.cache_hits for t in tables)),
    ):
        assert obs.metric(name).value == total, name
    assert all(n.delivered_count for n in networks)


def test_registry_equals_the_probe_loop_over_a_multi_tenant_run(obs_off_after):
    # The one probe loop feeds the chaos_* traffic-plane families on every
    # played scenario, seeded tenant intents included.
    obs.enable()
    world = World(multi_tenant.history(3), 0)
    result = world.play()
    probes = world.probes
    assert probes.probes_sent  # not vacuous
    assert obs.metric("chaos_probes_sent_total").value == probes.probes_sent
    assert obs.metric("chaos_probes_dropped_total").value == probes.probes_dropped
    assert obs.metric("chaos_downtime_seconds_total").value == pytest.approx(
        probes.downtime_seconds
    )
    assert obs.metric(
        "chaos_policy_violation_seconds_total"
    ).value == pytest.approx(probes.policy_violation_seconds)
    # No fault schedule: the event-plane families stay empty.
    assert _series("chaos_faults_injected_total") == {}
    assert obs.metric("chaos_faults_detected_total").value == 0
    # Every delivered packet of the run is a probe, and each tenant's
    # network ledger adds up to the registry's.
    assert obs.metric("dataplane_packets_delivered_total").value == (
        result.network_stats.delivered
    ) == sum(t.delivered for t in probes.ticks)


def test_two_networks_add_up_and_a_reset_loses_nothing(obs_off_after):
    obs.enable()
    delivered = 0
    for _ in range(2):
        deployment, classes = _deploy()
        network = deployment.network
        for packet in _packets(classes, 10):
            network.inject(packet)
        delivered += network.stats_snapshot().delivered
        network.stats_snapshot()  # a second read adds nothing
    assert delivered == 40
    assert obs.metric("dataplane_packets_delivered_total").value == 40
    lookups = obs.metric("dataplane_tcam_lookups_total").value

    # Not yet collected when the reset zeroes the ledger: still counted.
    for packet in _packets(classes, 10):
        network.inject(packet)
    network.reset_runtime_state()
    for packet in _packets(classes, 15):
        network.inject(packet)
    assert network.stats_snapshot().delivered == 30
    assert obs.metric("dataplane_packets_delivered_total").value == 90
    assert obs.metric("dataplane_tcam_lookups_total").value == lookups / 40 * 90


def test_elastic_and_resilience_series_add_up_over_runs(
    obs_off_after, monkeypatch
):
    # Run-level collectors add each run's ledger: two elastic histories and
    # a crash sweep (many journals) in one process read the sums, not the
    # last run's totals.
    obs.enable()
    ledgers = []

    def recorded(em, **kwargs):
        ledgers.append(em)
        collect_elastic(em, **kwargs)

    monkeypatch.setattr(flash_crowd, "collect_elastic", recorded)
    for amplitude in (2.0, 8.0):
        flash_crowd._flash_row(amplitude, seed=1, quick=True)
    assert obs.metric("elastic_ticks_total").value == sum(
        em.ticks_total for em in ledgers
    ) > max(em.ticks_total for em in ledgers)
    assert _series("elastic_resolves_total")[("true",)] == sum(
        em.resolves_warm for em in ledgers
    )
    assert obs.metric("elastic_instances_drained_total").value == sum(
        em.drained_total for em in ledgers
    )

    journals = []
    play = controller_crash.play

    def journaled(*args, **kwargs):
        out = play(*args, **kwargs)
        journals.append(out.journal)
        return out

    monkeypatch.setattr(controller_crash, "play", journaled)
    controller_crash.run(seed=1, quick=True)
    kinds = Counter()
    for journal in journals:
        kinds.update(rec.kind for rec in journal)
    assert len(journals) > 2 and kinds["checkpoint"] > 0
    assert _series("resilience_journal_records_total") == {
        (k,): float(v) for k, v in kinds.items()
    }
    assert obs.metric("resilience_checkpoints_total").value == kinds["checkpoint"]
    # A gauge: the journal of the run that ended last.
    assert obs.metric("resilience_journal_length").value == len(journals[-1])


def test_two_simulators_add_up(obs_off_after):
    # Each run adds the events it fired: a second simulator in the same
    # process, with a shorter life than the first, does not move the
    # counter backwards.
    obs.enable()
    first, second = Simulator(seed=1), Simulator(seed=2)
    for k in range(5):
        first.schedule(float(k), lambda: None)
    first.run()
    second.schedule(0.0, lambda: None)
    second.run()
    second.schedule(1.0, lambda: None)
    second.run()
    assert obs.metric("sim_events_fired_total").value == 7


def test_reset_restores_the_series_cap(obs_off_after):
    obs.REGISTRY.max_series = 4096  # what multi_tenant / controller_crash do
    obs.reset()
    assert obs.REGISTRY.max_series == MAX_SERIES_PER_METRIC


# ----------------------------------------------------------------------
# (b) obs off: no instrumented path reads the span clock
# ----------------------------------------------------------------------
def test_no_span_reads_the_clock_with_obs_off(obs_off_after, monkeypatch):
    def no_clock():
        raise AssertionError("obs.span read the clock with obs off")

    monkeypatch.setattr("repro.obs.state._clock", no_clock)

    deployment, classes = _deploy()  # place()
    network = deployment.network
    packets = _packets(classes, 8)
    for packet in packets:
        assert network.inject(packet).delivered
    ids = [c.class_id for c in classes]
    column = (
        ids,
        np.array([ids.index(p.class_id) for p in packets]),
        np.array([p.flow_hash for p in packets]),
        np.zeros(len(packets)),
    )
    ShardedDataPlane(network).inject_columns(*column)
    assert network.stats_snapshot().delivered == 2 * len(packets)

    row = failure_recovery._recovery_row("internet2", seed=7, quick=True)
    assert row[-1] == "OK"

    # The same paths do read it once observability is on.
    obs.enable()
    with pytest.raises(AssertionError, match="read the clock"):
        ShardedDataPlane(network).inject_columns(*column)
