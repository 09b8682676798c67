"""Collectors: ledgers with no inline emitter, read into the registry.

A subsystem whose events are rare (solver, southbound, tenancy, rule
generation, verify) updates the registry at the event, behind the one
``enabled`` check.  The ones here cannot: the data plane counts per packet
and must not pay for metrics there, and the chaos / elastic accounting (time
to repair, probe tallies, time to absorb) is only known once the run is
over.  Their ledgers are read at a snapshot point —
``stats_snapshot()`` for a network, finalization for a run — and each
collector is a no-op while observability is disabled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.obs import state
from repro.obs.state import metric as _metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.chaos.metrics import ChaosMetrics
    from repro.dataplane.network import DataPlaneNetwork
    from repro.elastic.metrics import ElasticMetrics
    from repro.experiments.scenario import ProbeLoop, ProbeTick

#: The registry counters one network feeds, in the order of its
#: ``_collected`` baseline: the delivery ledger, then the TCAM counters.
_NETWORK_COUNTERS = (
    "dataplane_packets_delivered_total",
    "dataplane_packets_dropped_total",
    "dataplane_policy_violations_total",
    "dataplane_tcam_lookups_total",
    "dataplane_tcam_misses_total",
    "dataplane_flow_cache_hits_total",
)


def collect_network(network: "DataPlaneNetwork") -> None:
    """Data-plane ground truth → registry (ledger, TCAM, plan replays).

    The registry is process-wide and there may be many networks, so each
    adds what it has counted since it was last collected.
    """
    if not state.REGISTRY.enabled:
        return
    lookups = misses = hits = hw = 0
    for sw in network.switches.values():
        table = sw.table
        lookups += table.lookup_count
        misses += table.miss_count
        hits += table.cache_hits
        hw += table.entry_count()
    totals = (
        network.delivered_count, network.dropped_count,
        network.violation_count, lookups, misses, hits,
    )
    for name, total, seen in zip(_NETWORK_COUNTERS, totals, network._collected):
        _metric(name).inc(total - seen)
    network._collected = totals
    _metric("dataplane_tcam_hw_entries").set(hw)


def collect_chaos(metrics: "ChaosMetrics", probes: "ProbeLoop") -> None:
    """Live-run accounting → registry (TTR, PV-seconds, probe counts).

    Called once at run finalization; all values derive from the
    deterministic event plane and the probe loop's tallies, so a traced
    run collects exactly what an untraced run would have measured.
    """
    if not state.REGISTRY.enabled:
        return
    for fid in sorted(metrics.faults):
        rec = metrics.faults[fid]
        _metric("chaos_faults_injected_total").labels(kind=rec.kind).inc()
        if rec.detected_at is not None:
            _metric("chaos_faults_detected_total").inc()
        dl = rec.detection_latency
        if dl is not None:
            _metric("chaos_detection_latency_seconds").observe(dl)
        ttr = rec.time_to_repair
        if ttr is not None:
            _metric("chaos_time_to_repair_seconds").observe(ttr)
    for conv in metrics.convergences:
        warm = "true" if conv.warm_start else "false"
        _metric("chaos_reconvergences_total").labels(warm=warm).inc()
    _metric("chaos_downtime_seconds_total").inc(probes.downtime_seconds)
    _metric("chaos_policy_violation_seconds_total").inc(
        probes.policy_violation_seconds
    )
    _metric("chaos_probes_sent_total").inc(probes.probes_sent)
    _metric("chaos_probes_dropped_total").inc(probes.probes_dropped)


def collect_elastic(
    metrics: "ElasticMetrics",
    absorb_seconds: Sequence[float] = (),
) -> None:
    """Elastic-loop ledger → registry (called at run finalization).

    Each call adds one run's ledger, so the counters read the sum over
    every run in the process.

    Args:
        absorb_seconds: per-spike time-to-absorb samples (unabsorbed
            spikes are the caller's problem to report — ``None`` entries
            must be filtered out before calling).
    """
    if not state.REGISTRY.enabled:
        return
    _metric("elastic_ticks_total").inc(metrics.ticks_total)
    scale = _metric("elastic_scale_actions_total")
    scale.labels(direction="out").inc(metrics.scale_out_total)
    scale.labels(direction="in").inc(metrics.scale_in_total)
    resolves = _metric("elastic_resolves_total")
    resolves.labels(warm="true").inc(metrics.resolves_warm)
    resolves.labels(warm="false").inc(metrics.resolves_cold)
    _metric("elastic_instances_drained_total").inc(metrics.drained_total)
    _metric("elastic_slo_violation_seconds_total").inc(
        metrics.slo_violation_seconds
    )
    decisions = _metric("elastic_admission_decisions_total")
    decisions.labels(action="admit").inc(sum(a.admitted for a in metrics.actions))
    decisions.labels(action="degrade").inc(sum(a.degraded for a in metrics.actions))
    decisions.labels(action="shed").inc(sum(a.shed for a in metrics.actions))
    for sample in absorb_seconds:
        _metric("elastic_time_to_absorb_seconds").observe(sample)


def trace_chaos_timeline(
    metrics: "ChaosMetrics", ticks: Sequence["ProbeTick"]
) -> None:
    """Render a finished live run's deterministic timeline into the trace.

    Faults become spans (applied → repaired/lifted) on the simulation
    track; detections and convergences become instants, probe ticks with
    a violation counters.  Everything is
    derived from the already-recorded deterministic timeline, so tracing
    cannot perturb the run it describes.
    """
    tracer = state.TRACER
    if not tracer.enabled:
        return
    for fid in sorted(metrics.faults):
        rec = metrics.faults[fid]
        if rec.applied_at is None:
            continue
        end = rec.repaired_at
        if end is None:
            end = rec.lifted_at if rec.lifted_at is not None else rec.applied_at
        tracer.complete(
            f"fault:{rec.kind}",
            rec.applied_at,
            end - rec.applied_at,
            cat="chaos.fault",
            args={
                "target": rec.target,
                "detected_at": rec.detected_at,
                "repaired_at": rec.repaired_at,
            },
        )
        if rec.detected_at is not None:
            tracer.instant(
                f"detect:{rec.kind}",
                rec.detected_at,
                cat="chaos.detect",
                args={"target": rec.target},
            )
    for conv in metrics.convergences:
        tracer.instant(
            "recovery.converge",
            conv.time,
            cat="chaos.recovery",
            args={
                "classes": conv.classes,
                "rerouted": conv.rerouted,
                "stranded": conv.stranded,
                "warm_start": conv.warm_start,
                "flow_mods": conv.flow_mods,
                "failed": conv.failed,
            },
        )
    for tick in ticks:
        if tick.dropped or tick.policy_violations or tick.interference_violations:
            tracer.counter(
                "probe.violations",
                tick.time,
                {
                    "dropped": tick.dropped,
                    "policy": tick.policy_violations,
                    "interference": tick.interference_violations,
                },
                cat="chaos.probe",
            )
