"""The central metric catalog: every metric the reproduction registers.

One declarative list, one place to look.  Subsystems fetch instruments
with :func:`repro.obs.metric`, which registers the whole catalog on first
use — so the registry's contents always equal this table, and the metric
catalog in ``docs/OBSERVABILITY.md`` is diffed against it by
``tests/test_obs_docs.py`` (adding a metric here without documenting it
fails tier-1).

Conventions (Prometheus-style):

* ``*_total`` — cumulative counters;
* ``*_seconds`` — durations; histograms use the shared time buckets;
* a counter is incremented at the event it counts; only where there is
  no event to emit at (the per-packet data plane, run-level chaos /
  elastic / resilience accounting) does :mod:`repro.obs.collectors` read
  the subsystem's own ledger at a snapshot point instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.metrics import Metric, MetricsRegistry


@dataclass(frozen=True)
class MetricDef:
    """One catalog row: everything needed to register the instrument."""

    kind: str  # "counter" | "gauge" | "histogram"
    name: str
    help: str
    labels: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None


CATALOG: Tuple[MetricDef, ...] = (
    # ------------------------------------------------------------- solver
    MetricDef("counter", "solver_solves_total",
              "Placement solves by the Optimization Engine", ("mode",)),
    MetricDef("histogram", "solver_solve_seconds",
              "Wall time of one place() call", ("mode",)),
    MetricDef("histogram", "solver_lp_assembly_seconds",
              "Wall time of the structure phase (assembling the placement LP's arrays)"),
    MetricDef("histogram", "solver_rate_update_seconds",
              "Wall time of the in-place Eq. 5 rate rewrite"),
    MetricDef("gauge", "solver_warm_hit_ratio",
              "Warm-start template hits / total solves (this engine)"),
    MetricDef("gauge", "solver_classes",
              "Traffic classes in the most recent solve"),
    MetricDef("gauge", "solver_instances_planned",
              "VNF instances in the most recent placement plan"),
    # --------------------------------------------------------- data plane
    MetricDef("counter", "dataplane_tcam_lookups_total",
              "TCAM lookups across all switches (collected)"),
    MetricDef("counter", "dataplane_tcam_misses_total",
              "TCAM lookups matching no entry (collected)"),
    MetricDef("counter", "dataplane_flow_cache_hits_total",
              "Hop lookups answered from a resolved walk plan, without a "
              "TCAM priority scan (collected)"),
    MetricDef("gauge", "dataplane_tcam_hw_entries",
              "Hardware TCAM slots occupied by APPLE rules (collected)"),
    MetricDef("counter", "dataplane_packets_delivered_total",
              "Packets delivered end to end (delivery ledger, collected)"),
    MetricDef("counter", "dataplane_packets_dropped_total",
              "Packets dropped in the data plane (delivery ledger, collected)"),
    MetricDef("counter", "dataplane_policy_violations_total",
              "Delivered packets whose chain was incomplete (collected)"),
    MetricDef("gauge", "dataplane_packets_per_sim_second",
              "Offered packet rate of the most recent replay (sim clock)"),
    MetricDef("counter", "dataplane_shard_bulk_packets_total",
              "Packets applied by the columnar walker's bulk path"),
    MetricDef("counter", "dataplane_shard_sequential_packets_total",
              "Columnar walker packets processed on the sequential fallback"),
    # --------------------------------------------------------- controller
    MetricDef("counter", "controller_rule_installs_total",
              "Data-plane rules installed", ("kind",)),
    MetricDef("counter", "controller_installs_total",
              "Cold (day-0) rule installs onto an empty network"),
    MetricDef("counter", "controller_verify_calls_total",
              "verify_deployment audits", ("result",)),
    MetricDef("counter", "controller_verify_probes_total",
              "Cells of verify_deployment audits, one per installed hash "
              "cell; no packet is sent"),
    # -------------------------------------------------------------- chaos
    MetricDef("counter", "chaos_faults_injected_total",
              "Faults applied by the chaos injector", ("kind",)),
    MetricDef("counter", "chaos_faults_detected_total",
              "Faults noticed by the heartbeat detector"),
    MetricDef("counter", "chaos_reconvergences_total",
              "Recovery convergences (re-place + delta push + verify)",
              ("warm",)),
    MetricDef("histogram", "chaos_detection_latency_seconds",
              "Fault applied -> detected (simulated seconds)"),
    MetricDef("histogram", "chaos_time_to_repair_seconds",
              "Fault applied -> rules converged (simulated seconds)"),
    MetricDef("counter", "chaos_downtime_seconds_total",
              "Probe intervals with at least one black-holed probe"),
    MetricDef("counter", "chaos_policy_violation_seconds_total",
              "Probe intervals with a policy/interference violation"),
    MetricDef("counter", "chaos_probes_sent_total",
              "Probes injected by the probe loop"),
    MetricDef("counter", "chaos_probes_dropped_total",
              "Probes that black-holed"),
    # --------------------------------------------------------- southbound
    MetricDef("counter", "southbound_messages_total",
              "Southbound control messages by terminal result", ("result",)),
    MetricDef("counter", "southbound_retries_total",
              "Southbound retransmissions (attempts beyond the first)"),
    MetricDef("counter", "southbound_timeouts_total",
              "Southbound delivery attempts that timed out"),
    MetricDef("counter", "southbound_circuit_opens_total",
              "Circuit-breaker openings (switch marked degraded)"),
    MetricDef("counter", "southbound_transactions_total",
              "Make-before-break transactions by outcome", ("outcome",)),
    MetricDef("counter", "southbound_rollback_ops_total",
              "Inverse ops sent rolling back failed add phases"),
    MetricDef("counter", "southbound_reconcile_repairs_total",
              "Anti-entropy passes that repaired desired-state drift"),
    MetricDef("histogram", "southbound_convergence_seconds",
              "Desired-state push -> every switch at zero drift"),
    # ------------------------------------------------------------ tenancy
    MetricDef("counter", "tenancy_intents_total",
              "Tenant intents reaching a terminal state",
              ("kind", "outcome")),
    MetricDef("histogram", "tenancy_intent_latency_seconds",
              "Intent submit -> converged terminal state (simulated seconds)"),
    MetricDef("gauge", "tenancy_active_tenants",
              "Tenants with a live deployment or queued work"),
    MetricDef("gauge", "tenancy_worker_queue_depth",
              "Intents pending per tenant lifecycle worker", ("tenant",)),
    MetricDef("counter", "tenancy_grants_total",
              "Capacity-arbiter admission decisions", ("outcome",)),
    MetricDef("gauge", "tenancy_granted_cores",
              "Host cores currently reserved across all tenants"),
    MetricDef("counter", "tenancy_convergence_verifies_total",
              "Per-tenant deployment audits at epoch convergence",
              ("result",)),
    MetricDef("counter", "tenancy_cross_tenant_violation_seconds_total",
              "Audit intervals with a cross-tenant isolation violation"),
    # ------------------------------------------------------------ elastic
    MetricDef("counter", "elastic_ticks_total",
              "Control-loop observation ticks"),
    MetricDef("counter", "elastic_scale_actions_total",
              "Executed scaling decisions by direction", ("direction",)),
    MetricDef("counter", "elastic_resolves_total",
              "Re-placements run by scale actions", ("warm",)),
    MetricDef("counter", "elastic_instances_drained_total",
              "Retired instances shut down at epoch convergence"),
    MetricDef("counter", "elastic_slo_violation_seconds_total",
              "Sim seconds the bottleneck NF exceeded the SLO ceiling"),
    MetricDef("counter", "elastic_admission_decisions_total",
              "Admission-oracle verdicts across scale actions", ("action",)),
    MetricDef("histogram", "elastic_time_to_absorb_seconds",
              "Spike start -> back under the high watermark, converged"),
    # --------------------------------------------------------- resilience
    MetricDef("counter", "resilience_journal_records_total",
              "Write-ahead journal records appended", ("kind",)),
    MetricDef("counter", "resilience_checkpoints_total",
              "Desired-state checkpoints written to the journal"),
    MetricDef("counter", "resilience_crashes_total",
              "Controller crashes injected"),
    MetricDef("counter", "resilience_recoveries_total",
              "Controller recoveries completed (checkpoint + replay)"),
    MetricDef("counter", "resilience_intents_replayed_total",
              "Journaled intents redelivered by recovery"),
    MetricDef("counter", "resilience_intents_skipped_total",
              "Journaled intents already terminal at the checkpoint"),
    MetricDef("gauge", "resilience_journal_length",
              "Records in the write-ahead journal (collected)"),
    MetricDef("histogram", "resilience_recovery_seconds",
              "Wall time of one recover() call (host clock)"),
    MetricDef("counter", "resilience_downtime_seconds_total",
              "Simulated seconds the controller was dead"),
    # ---------------------------------------------------------- simulator
    MetricDef("counter", "sim_events_fired_total",
              "Events executed by every simulator run in the process"),
    # -------------------------------------------------------- experiments
    MetricDef("counter", "experiment_runs_total",
              "Experiment invocations through the CLI", ("experiment",)),
    MetricDef("gauge", "experiment_wall_seconds",
              "Wall time of the most recent run of each experiment",
              ("experiment",)),
    MetricDef("gauge", "experiment_rows",
              "Result rows produced by the most recent run", ("experiment",)),
)


def register_all(registry: MetricsRegistry) -> Dict[str, Metric]:
    """Register (idempotently) every catalog metric; returns name → metric."""
    out: Dict[str, Metric] = {}
    for d in CATALOG:
        if d.kind == "counter":
            out[d.name] = registry.counter(d.name, d.help, d.labels)
        elif d.kind == "gauge":
            out[d.name] = registry.gauge(d.name, d.help, d.labels)
        else:
            out[d.name] = registry.histogram(
                d.name, d.help, d.labels, buckets=d.buckets
            )
    return out

