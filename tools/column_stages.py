#!/usr/bin/env python
"""Time the stages of the columnar walker on a seeded Internet2 replay window.

Builds the deployment and the CBR packet window the way the pipeline
benchmark's ``internet2_replay_columnar`` workload does — Internet2 with
``scaled_catalog`` placed at ``REPLAY_HEADROOM``, one stream per class at
its planned rate with phases drawn from the simulator's
``packet-replay-phases`` stream, hashes cycling per class — walks it
``--repeats`` times through ``ShardedDataPlane.inject_columns`` on a reset
network, and prints the median milliseconds of each stage of
``_ColumnWalker.run``: *group* (class sort and per-class interval
regrouping), *gather* (``ts`` through the sort order), *certify* (the
run-peak bound, ``_certify``), *merge* (timestamp runs of the instances the
bound left), *check* (``_check_bulk``) and *apply* (``_bulk_apply``), next
to the counts that size them: groups, instances, arrivals per packet, and
the instances and arrivals merged.  The counts are exact and repeat; the
milliseconds are a measurement, raw on whatever box this runs on.  The
gather is one expression inside ``run``, so the tool times its own gather
through the order the group stage returns (and takes it off the walk it ran
inside).  Nothing is imported from ``benchmarks/``.

Usage::

    PYTHONPATH=src python tools/column_stages.py --seed 0
    PYTHONPATH=src python tools/column_stages.py --sim-seconds 3 --repeats 3 --check

``--check`` exits 1 unless every walk left the ledger ``[sent, 0, 0]``, sent
no packet down the sequential path and merged exactly the instances the
certificate left (certified + merged = instances; the CI smoke assertion).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import ExitStack
from statistics import median
from typing import Dict, List, Optional
from unittest import mock

import numpy as np

import repro.dataplane.sharded as sharded
from repro.core.engine import EngineConfig
from repro.dataplane.flowhash import cycling_hashes
from repro.experiments.harness import REPLAY_HEADROOM, standard_setup
from repro.experiments.packet_replay import PPS_PER_MBPS, scaled_catalog
from repro.sim.kernel import Simulator
from repro.sim.sources import merge_cbr_timeline

STAGES = ("group", "gather", "certify", "merge", "check", "apply")


def build_window(seed: int, sim_s: float):
    """``(network, (classes, cls_idx, hashes, ts))`` of the seeded window."""
    _, ctl, series = standard_setup(
        "internet2",
        snapshots=2,
        seed=seed,
        engine_config=EngineConfig(capacity_headroom=REPLAY_HEADROOM),
    )
    ctl.catalog = scaled_catalog(ctl.catalog)
    ctl.engine.catalog = ctl.catalog
    ctl.rule_generator.catalog = ctl.catalog
    plan = ctl.compute_placement(series.mean())
    sim = Simulator(seed=seed)
    network = ctl.deploy(plan, sim=sim).network
    rng = sim.rng.child("packet-replay-phases")
    streams = []
    for cls in plan.classes:
        pps = cls.rate_mbps * PPS_PER_MBPS
        if pps > 0.5:
            streams.append((cls.class_id, rng.uniform(0.0, 1.0 / pps), 1.0 / pps))
    classes, cls_idx, ts = merge_cbr_timeline(streams, sim_s)
    hashes = np.empty(len(ts))
    for ci in range(len(classes)):
        mask = cls_idx == ci
        count = int(mask.sum())
        if count:
            hashes[mask] = cycling_hashes(count)
    return network, (classes, cls_idx, hashes, ts)


class Stages:
    """Per-walk stage seconds, fed by wrappers around the walker's internals."""

    def __init__(self, ts: np.ndarray) -> None:
        self.ts = ts
        self.seconds: Dict[str, float] = dict.fromkeys(STAGES, 0.0)
        self.groups = self.instances = self.arrivals = 0
        self.certified = self.merged = self.merged_arrivals = 0

    def _timed(self, stack: ExitStack, owner, name: str, stage: str, after=None) -> None:
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            out = inner(*args, **kwargs)
            self.seconds[stage] += time.perf_counter() - started
            if after is not None:
                after(out, *args)
            return out

        stack.enter_context(mock.patch.object(owner, name, wrapper))

    def installed(self) -> ExitStack:
        stack = ExitStack()
        walker = sharded._ColumnWalker

        def grouped(out, *args) -> None:
            order, plans, _ = out
            self.groups = len(plans)
            started = time.perf_counter()
            self.ts[order]
            self.seconds["gather"] += time.perf_counter() - started

        def certified(out, walker_, entries, runs) -> None:
            self.instances = len(entries)
            self.arrivals = sum(k * len(runs[g]) for _, _, parts in entries for g, k in parts)
            self.certified = len(entries) - len(out)

        def checked(out, walker_, inst_cols) -> None:
            self.merged = len(inst_cols)
            self.merged_arrivals = sum(len(col[2]) for col in inst_cols)

        self._timed(stack, walker, "_group", "group", grouped)
        self._timed(stack, walker, "_certify", "certify", certified)
        self._timed(stack, sharded, "_merge_runs", "merge")
        self._timed(stack, walker, "_check_bulk", "check", checked)
        self._timed(stack, walker, "_bulk_apply", "apply")
        return stack


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sim-seconds", type=float, default=120.0)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless every walk is loss-free and all bulk",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    network, window = build_window(args.seed, args.sim_seconds)
    ts = window[3]
    sent = len(ts)
    walks: List[Dict[str, float]] = []
    failures: List[str] = []
    for _ in range(args.repeats):
        stages = Stages(ts)
        network.reset_runtime_state()
        plane = sharded.ShardedDataPlane(network)
        with stages.installed():
            started = time.perf_counter()
            plane.inject_columns(*window)
            walk = time.perf_counter() - started - stages.seconds["gather"]
        walks.append({**stages.seconds, "walk": walk})
        ledger = list(network.stats_snapshot().as_tuple())
        sequential = plane._walker.seq_packets
        if ledger != [sent, 0, 0] or sequential:
            failures.append(
                f"ledger {ledger}, sequential_packets {sequential} "
                f"(wanted [{sent}, 0, 0] and 0)"
            )
        if stages.certified + stages.merged != stages.instances:
            failures.append(
                f"certified {stages.certified} + merged {stages.merged} "
                f"!= {stages.instances} instances"
            )

    mid = {key: 1e3 * median(w[key] for w in walks) for key in walks[0]}
    lines = [
        f"window               seed {args.seed}, {args.sim_seconds:g} sim-s, "
        f"{sent} packets, {len(window[0])} classes",
        f"groups               {stages.groups}",
        f"instances            {stages.instances}",
        f"instances certified  {stages.certified}",
        f"instances merged     {stages.merged}",
        f"arrivals per packet  {stages.arrivals / sent:.3f} ({stages.arrivals})",
        f"arrivals merged      {stages.merged_arrivals}",
        f"walk                 {mid['walk']:.2f} ms (median of {args.repeats}, "
        f"{sent / mid['walk'] / 1e3:.1f}M packets/s)",
    ]
    lines += [f"  {stage:<18} {mid[stage]:.2f} ms" for stage in STAGES]
    other = mid["walk"] - sum(mid[stage] for stage in STAGES)
    lines.append(f"  {'other':<18} {other:.2f} ms")
    lines.append(f"ledger               {ledger}, sequential_packets {sequential}")
    print("\n".join(lines))
    if args.check and failures:
        print(f"FAIL: {failures[0]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
