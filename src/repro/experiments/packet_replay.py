"""Packet-level cross-validation: drive the deployed data plane with sources.

Beyond the paper's figures: injects real packets (CBR per class, rates
proportional to the traffic matrix) through the installed TCAM rules and
VNF instances, and cross-checks the measured loss against the fluid model
the Fig. 12 replay uses.  This exercises the entire stack — classification,
tagging, vSwitch pipelines, per-instance packet admission — under load, and
verifies the two abstraction levels agree.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.dataplane.flowhash import cycling_hashes
from repro.dataplane.sharded import ShardedDataPlane
from repro.experiments.harness import ExperimentResult, standard_setup
from repro.sim.kernel import Simulator
from repro.sim.sources import merge_cbr_timeline
from repro.vnf.types import NFType, NFTypeCatalog

#: Packets per second per Mbps of class rate (scaled down so packet-level
#: simulation stays cheap while utilisations match the fluid model; large
#: enough that sliding-window admission budgets are not quantised away).
PPS_PER_MBPS = 0.5


def scaled_catalog(base: NFTypeCatalog) -> NFTypeCatalog:
    """A catalog whose pps capacities mirror the Mbps capacities."""
    return NFTypeCatalog(
        [
            NFType(
                t.name,
                cores=t.cores,
                capacity_mbps=t.capacity_mbps,
                clickos=t.clickos,
                capacity_pps=t.capacity_mbps * PPS_PER_MBPS,
                modifies_headers=t.modifies_headers,
                memory_gb=t.memory_gb,
            )
            for t in base
        ]
    )


def deploy(topology: str):
    """The deployed placement of ``topology``'s mean matrix, pps-scaled.

    Returns ``(controller, plan, sim, deployment)``; ``sim`` (seed 11) is
    the one the deployment was built on and whose RNG the replay's start
    phases come from.
    """
    topo, controller, series = standard_setup(topology, snapshots=2)
    controller.catalog = scaled_catalog(controller.catalog)
    controller.engine.catalog = controller.catalog
    controller.rule_generator.catalog = controller.catalog
    plan = controller.compute_placement(series.mean())
    sim = Simulator(seed=11)
    deployment = controller.deploy(plan, sim=sim)
    return controller, plan, sim, deployment


def run(
    topology: str = "internet2",
    duration: float = 4.0,
    overload_factor: float = 1.0,
    quick: bool = False,
) -> ExperimentResult:
    """Replay one snapshot at packet level and compare with the fluid model.

    One CBR stream per class at a rate proportional to its planned rate,
    each class's flow hashes cycling (``(k * 0.137) % 1``) so every
    sub-class sees traffic proportional to its hash-range width.  The
    merged timeline
    (:func:`~repro.sim.sources.merge_cbr_timeline`) is walked as one
    column through :class:`~repro.dataplane.sharded.ShardedDataPlane`:
    the packets, order and timestamps of one event-per-packet
    ``CBRSource`` per class feeding ``network.inject``, which the tests
    replay as the reference.

    Args:
        overload_factor: scales every class's packet rate relative to the
            planned rate; > 1 drives instances into overload, where the
            packet-level loss should match the fluid ``1 - cap/load``.
    """
    if quick:
        duration = 1.5
    controller, plan, sim, deployment = deploy(topology)
    rng = sim.rng.child("packet-replay-phases")
    streams = []
    for cls in plan.classes:
        pps = cls.rate_mbps * PPS_PER_MBPS * overload_factor
        if pps <= 0.5:
            continue
        # Stagger start phases: synchronized CBR streams would otherwise
        # burst together and overflow admission windows artificially.
        streams.append((cls.class_id, rng.uniform(0.0, 1.0 / pps), 1.0 / pps))
    keys, kidx, ts = merge_cbr_timeline(streams, duration)
    hashes = np.empty(len(ts))
    for ci in range(len(keys)):
        mask = kidx == ci
        hashes[mask] = cycling_hashes(int(mask.sum()))
    sent = len(ts)
    ShardedDataPlane(deployment.network).inject_columns(keys, kidx, hashes, ts)

    stats = deployment.network.stats_snapshot()
    delivered, dropped, violations = stats.as_tuple()
    measured_loss = stats.loss_ratio
    if obs.REGISTRY.enabled:
        # Offered rate over the *simulated* clock — deterministic, unlike
        # any wall-clock throughput figure.
        obs.metric("dataplane_packets_per_sim_second").set(sent / duration)

    # Fluid prediction for the same offered load.
    handler = controller.make_dynamic_handler()
    handler.config.enabled = False
    rates = {
        c.class_id: c.rate_mbps * overload_factor for c in plan.classes
    }
    fluid_loss = handler._network_loss(rates)

    rows = [
        ["packets sent", sent, ""],
        ["delivered", delivered, ""],
        ["dropped", dropped, ""],
        ["policy violations", violations, "must be 0"],
        ["measured loss", round(measured_loss, 4), ""],
        ["fluid-model loss", round(fluid_loss, 4), "cross-check"],
    ]
    return ExperimentResult(
        experiment="packet-replay",
        description=f"packet-level replay on {topology} "
        f"(x{overload_factor} offered load)",
        paper_expectation=(
            "zero policy violations; packet-measured loss tracks the fluid "
            "model used by the Fig. 12 replay"
        ),
        columns=["Metric", "Value", "Note"],
        rows=rows,
    )
