"""Packet-level cross-validation: drive the deployed data plane with sources.

Beyond the paper's figures: injects real packets (CBR per class, rates
proportional to the traffic matrix) through the installed TCAM rules and
VNF instances, and cross-checks the measured loss against the fluid model
the Fig. 12 replay uses.  This exercises the entire stack — classification,
tagging, vSwitch pipelines, per-instance packet admission — under load, and
verifies the two abstraction levels agree.
"""

from __future__ import annotations

from typing import List, Optional

from repro import obs
from repro.experiments.harness import ExperimentResult, standard_setup
from repro.sim.kernel import Simulator
from repro.sim.sources import BatchedCBRMux, CBRSource
from repro.dataplane.packet import Packet
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


def run(
    topology: str = "internet2",
    duration: float = 4.0,
    overload_factor: float = 1.0,
    quick: bool = False,
    batch: int = 1,
    columnar: bool = False,
) -> ExperimentResult:
    """Replay one snapshot at packet level and compare with the fluid model.

    Args:
        overload_factor: scales every class's packet rate relative to the
            planned rate; > 1 drives instances into overload, where the
            packet-level loss should match the fluid ``1 - cap/load``.
        batch: packets per simulator event.  1 replays event-per-packet
            through the scalar walker; > 1 merges all class streams in
            global arrival order (:class:`BatchedCBRMux`) and drives the
            network's batched walker.  Results are bit-identical — same
            per-packet timestamps, processing order, delivery counts —
            only wall-clock time changes.
        columnar: precompute the whole merged timeline (same floats as
            the mux) and walk it as one column through
            :class:`~repro.dataplane.sharded.ShardedDataPlane`.  Rows are
            bit-identical to the scalar and batched paths; ``batch`` is
            ignored.
    """
    if quick:
        duration = 1.5
    topo, controller, series = standard_setup(topology, snapshots=2)
    controller.catalog = scaled_catalog(controller.catalog)
    controller.engine.catalog = controller.catalog
    controller.rule_generator.catalog = controller.catalog

    mean = series.mean()
    plan = controller.compute_placement(mean)
    sim = Simulator(seed=11)
    deployment = controller.deploy(plan, sim=sim)

    # One CBR source per class; flow hashes cycle so every sub-class sees
    # traffic proportional to its hash-range width.
    counters = {"sent": 0}

    def make_consumer(cls):
        state = {"k": 0}

        def consume(size: int, now: float) -> None:
            state["k"] += 1
            h = (state["k"] * 0.137) % 1.0
            packet = Packet(
                class_id=cls.class_id, flow_hash=h, src=cls.src, dst=cls.dst
            )
            counters["sent"] += 1
            deployment.network.inject(packet, now=now)

        return consume

    if columnar:
        # Columnar replay: no simulator events at all.  The merged CBR
        # timeline is built by the same float left-folds the mux performs
        # (merge_cbr_timeline), flow hashes cycle per class exactly as the
        # scalar consumers count them, and the phase RNG is drawn in the
        # same order — so the packet sequence is identical and the columnar
        # walker's bit-identity discipline does the rest.
        import numpy as np

        from repro.dataplane.flowhash import cycling_hashes
        from repro.dataplane.sharded import ShardedDataPlane
        from repro.sim.sources import merge_cbr_timeline

        network = deployment.network
        rng = sim.rng.child("packet-replay-phases")
        streams = []
        for cls in plan.classes:
            pps = cls.rate_mbps * PPS_PER_MBPS * overload_factor
            if pps <= 0.5:
                continue
            # Same stagger as the scalar path (and the same RNG draws).
            streams.append(
                (cls.class_id, rng.uniform(0.0, 1.0 / pps), 1.0 / pps)
            )
        keys, kidx, ts = merge_cbr_timeline(streams, duration)
        hashes = np.empty(len(ts))
        for ci in range(len(keys)):
            mask = kidx == ci
            m = int(mask.sum())
            if m:
                hashes[mask] = cycling_hashes(m)
        counters["sent"] = len(ts)
        ShardedDataPlane(network).inject_columns(keys, kidx, hashes, ts)
    elif batch > 1:
        # Batched fast path: one mux merges every class's CBR stream in
        # global arrival order, and the network walks each batch through
        # cached per-interval plans.  Flow hashes cycle exactly as in the
        # scalar consumers (per-class k counter), and the phase RNG is
        # consumed in the same order, so the packet sequence is identical.
        network = deployment.network
        hash_state = {}

        def on_batch(pairs) -> None:
            items = []
            append = items.append
            state = hash_state
            for cid, t in pairs:
                k = state[cid] = state[cid] + 1
                append((cid, (k * 0.137) % 1.0, t))
            counters["sent"] += len(items)
            network.inject_stream(items)

        mux = BatchedCBRMux(sim, on_batch, chunk=batch, horizon=duration)
        rng = sim.rng.child("packet-replay-phases")
        for cls in plan.classes:
            pps = cls.rate_mbps * PPS_PER_MBPS * overload_factor
            if pps <= 0.5:
                continue
            hash_state[cls.class_id] = 0
            # Same stagger as the scalar path (and the same RNG draws).
            mux.add_stream(cls.class_id, pps, rng.uniform(0.0, 1.0 / pps))
        mux.start()
        sim.run(until=duration)
        mux.stop()
    else:
        sources: List[CBRSource] = []
        rng = sim.rng.child("packet-replay-phases")
        for cls in plan.classes:
            pps = cls.rate_mbps * PPS_PER_MBPS * overload_factor
            if pps <= 0.5:
                continue
            src = CBRSource(sim, make_consumer(cls), pps, name=cls.class_id)
            # Stagger start phases: synchronized CBR streams would otherwise
            # burst together and overflow admission windows artificially.
            sim.schedule(rng.uniform(0.0, 1.0 / pps), src.start)
            sources.append(src)

        sim.run(until=duration)
        for src in sources:
            src.stop()

    stats = deployment.network.stats_snapshot()
    delivered, dropped, violations = stats.as_tuple()
    measured_loss = stats.loss_ratio
    if obs.REGISTRY.enabled:
        # Offered rate over the *simulated* clock — deterministic, unlike
        # any wall-clock throughput figure.
        obs.metric("dataplane_packets_per_sim_second").set(
            counters["sent"] / duration
        )

    # Fluid prediction for the same offered load.
    handler = controller.make_dynamic_handler()
    handler.config.enabled = False
    rates = {
        c.class_id: c.rate_mbps * overload_factor for c in plan.classes
    }
    fluid_loss = handler._network_loss(rates)

    rows = [
        ["packets sent", counters["sent"], ""],
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
