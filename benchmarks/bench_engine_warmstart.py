"""Warm-start engine benchmarks: cold vs warm ``place()`` and parallel replay.

Two acceptance targets of the warm-start/vectorization work:

* writing the placement LP down is cheap next to solving it: on GEANT the
  template build takes no longer than one warm solve, and a cold
  ``place()`` (build + solve) at most twice a warm one (cached
  :class:`PlacementTemplate`, rate-only rewrite).  Before the LP was
  assembled straight into solver-native arrays the build was 3x the solve
  and this gate read "warm is at least 3x faster than cold";
* a Fig. 12-style replay (120 snapshots over the three LP-scale
  topologies) with ``jobs="auto"`` is at least 1.5x faster than serial on
  hosts with >= 4 cores, and never materially slower (>= 0.95x) anywhere —
  the auto tuner measures the first row's cost and stays serial when a
  pool cannot pay for itself, which is what fixed the 0.29x "speedup"
  this trajectory once recorded for a blanket ``jobs=4`` pool on a
  single-core host.

Both measurements are appended to the ``BENCH_engine.json`` trajectory at
the repo root via the ``record_bench`` fixture, together with the engine's
own spans (template build, warm solve, rate update), read off the wall
track of the traced run.
"""

import os
import statistics
import time

from repro import obs
from repro.experiments import fig12
from repro.experiments.harness import standard_setup

#: Timing repetitions for the cold/warm comparison (min-of-N).
REPEATS = 7


def test_warm_vs_cold_place_geant(record_bench):
    _topo, controller, series = standard_setup("geant", snapshots=REPEATS + 1)
    cores = controller.available_cores()
    class_sets = [controller.build_classes(m) for m in series.snapshots]

    # Warm-up solve: first-call scipy/HiGHS overhead is not the engine's.
    controller.engine.place(class_sets[0], cores)
    obs.reset()
    obs.enable(trace=True)
    try:
        cold = []
        for classes in class_sets[1:]:
            controller.engine.clear_templates()
            started = time.perf_counter()
            plan = controller.engine.place(classes, cores)
            cold.append(time.perf_counter() - started)
            assert not plan.warm_start

        controller.engine.clear_templates()
        controller.engine.place(class_sets[0], cores)  # build the template once
        warm = []
        for classes in class_sets[1:]:
            started = time.perf_counter()
            plan = controller.engine.place(classes, cores)
            warm.append(time.perf_counter() - started)
            assert plan.warm_start
        events = obs.TRACER.to_chrome()["traceEvents"]
    finally:
        obs.disable()
        obs.reset()

    def span_min(name):
        """Shortest wall-track span of this name, in seconds."""
        return min(e["dur"] for e in events if e["name"] == name) / 1e6

    speedup_min = min(cold) / min(warm)
    speedup_median = statistics.median(cold) / statistics.median(warm)
    template_build_min = span_min("engine.template_build")
    warm_solve_min = span_min("engine.warm_solve")
    record_bench(
        "engine_warm_vs_cold_geant",
        {
            "repeats": REPEATS,
            "cold_place_min_s": round(min(cold), 5),
            "cold_place_median_s": round(statistics.median(cold), 5),
            "warm_place_min_s": round(min(warm), 5),
            "warm_place_median_s": round(statistics.median(warm), 5),
            "speedup_min": round(speedup_min, 2),
            "speedup_median": round(speedup_median, 2),
            "template_build_min_s": round(template_build_min, 5),
            "warm_solve_min_s": round(warm_solve_min, 5),
            "rate_update_min_s": round(span_min("engine.rate_update"), 5),
        },
    )
    assert template_build_min <= warm_solve_min, (
        f"template build {template_build_min * 1e3:.1f} ms exceeds one warm "
        f"solve {warm_solve_min * 1e3:.1f} ms: LP assembly is no longer cheap"
    )
    assert min(cold) <= 2.0 * min(warm), (
        f"cold place() {min(cold) * 1e3:.1f} ms is more than twice a warm "
        f"one {min(warm) * 1e3:.1f} ms"
    )


def test_parallel_replay_speedup(record_bench):
    kwargs = dict(topologies=("internet2", "geant", "univ1"), snapshots=120)

    started = time.perf_counter()
    serial = fig12.run(**kwargs)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = fig12.run(jobs="auto", **kwargs)
    parallel_s = time.perf_counter() - started

    # Same rows in the same order: the fan-out must not change results.
    assert parallel.rows == serial.rows

    speedup = serial_s / parallel_s
    cores = os.cpu_count() or 1
    record_bench(
        "fig12_replay_fanout",
        {
            "topologies": len(kwargs["topologies"]),
            "snapshots": kwargs["snapshots"],
            "host_cores": cores,
            "jobs": "auto",
            "serial_s": round(serial_s, 2),
            "auto_s": round(parallel_s, 2),
            "speedup": round(speedup, 2),
        },
    )
    # The tuner's whole contract: never materially slower than serial, on
    # any host — on one core it must stay in-process entirely.
    assert speedup >= 0.95, (
        f"jobs='auto' replay {speedup:.2f}x vs serial — the tuner fanned "
        "out when a pool could not pay for itself"
    )
    if cores >= 4:
        assert speedup >= 1.5, (
            f"jobs='auto' replay only {speedup:.2f}x faster than serial "
            f"on a {cores}-core host"
        )
