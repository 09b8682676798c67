#!/usr/bin/env python3
"""The pipeline benchmark: one command, five workloads, named metrics.

Two ways to call it (README.md in this directory has the glossary):

``run.py --workload NAME --seed S --seconds T --trace 0|1``
    One workload in this process.  Prints every metric by name with its
    unit, then — as the last line — one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
    metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics
    with ``--trace 1``.  Exits 1 when a check failed.  End-to-end times
    are seconds at reference speed (see :class:`Calibrator`).

``run.py [--runs K] [--trace] [--seed S] [--seconds T]``
    Every workload (or the ``--workload`` ones, repeatable), each run in a
    fresh subprocess of the first form, one at a time; ``--trace`` adds
    one traced run per workload.  Checks that the deterministic values of
    the K runs are bit-equal, prints medians and quartiles, and writes
    them with a machine block to ``out/results-<time>.json`` for
    ``compare.py``.
"""

from time import perf_counter

_STARTED = perf_counter()  # "process start" for setup_s: before any import

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: A run times at least this many units, so a traced run always has one
#: traced and one untraced unit to compare.
MIN_UNITS = 2
DETAIL_PREFIX = "detail: "
#: What one :meth:`Calibrator.tick` takes on this box when nothing
#: disturbs it; times are reported as if every tick took this long.
REFERENCE_TICK_S = 1.0e-3


def load_spec() -> dict:
    """BENCHMARK.json: the one place metric names, units and bounds live."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class Calibrator:
    """A fixed pure-Python loop and a fixed numpy loop, timed again and again.

    The speed of this box (a small VM on a shared host) wanders by tens of
    percent over tens of seconds, for the benchmark's loops exactly as for
    the program.  One :meth:`tick` (about 2 ms) is taken right before and
    right after everything that is timed, and the end-to-end times are
    reported at reference speed: wall seconds x REFERENCE_TICK_S / the
    tick's seconds.  The same loops make numbers from different machines
    comparable (``calibration.python_s`` / ``calibration.numpy_s``).
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._values = np.arange(20_000, dtype=np.float64)
        self.python_s: List[float] = []
        self.numpy_s: List[float] = []

    def tick(self) -> float:
        """Run both loops once; the geometric mean of their seconds."""
        np, values = self._np, self._values
        t0 = perf_counter()
        acc = 0
        for i in range(20_000):
            acc += (i * i) % 7
        t1 = perf_counter()
        for _ in range(3):
            np.sort((values * 1.0001 + 0.5) % 97.0).sum()
        t2 = perf_counter()
        self.python_s.append(t1 - t0)
        self.numpy_s.append(t2 - t1)
        return ((t1 - t0) * (t2 - t1)) ** 0.5

    def factor(self, before: float) -> float:
        """Ticks again; what turns the wall seconds between ``before`` and
        now into seconds at reference speed."""
        return REFERENCE_TICK_S / ((before + self.tick()) / 2.0)


def tail(samples: List[float]) -> Optional[dict]:
    """The highest of p99 / p90 that has at least ten samples beyond it."""
    ordered = sorted(samples)
    for q in (0.99, 0.90):
        if len(ordered) * (1.0 - q) >= 10:
            return {
                "percentile": round(q * 100),
                "value": ordered[int(q * len(ordered))],
                "samples": len(ordered),
            }
    return None


def run_workload(
    name: str,
    seed: int = 0,
    seconds: float = 15.0,
    trace: bool = False,
    scale: float = 1.0,
    setup_repeats: int = 3,
    started: Optional[float] = None,
) -> dict:
    """Run one workload here; returns its result (see :func:`main`).

    ``started`` is the ``perf_counter`` reading at process start; set-up
    time counts from it to the end of the imports, plus the median of
    ``setup_repeats`` builds of the workload's inputs and warm-up.
    """
    if started is None:
        started = perf_counter()
    spec = load_spec()
    from tracing import UNIT_SPAN, Tracer
    from workloads import WORKLOADS

    import_s = perf_counter() - started
    cal = Calibrator()
    import_ref_s = import_s * cal.factor(cal.tick())

    tracer = Tracer(active=trace)
    errors: List[str] = []
    setup_runs: List[float] = []  # wall seconds of each set-up
    setup_ref: List[float] = []  # the same at reference speed
    for repeat in range(setup_repeats):
        tracer.unit = -1 - repeat
        tracer.enabled = trace
        before = cal.tick()
        t = perf_counter()
        workload = WORKLOADS[name](seed, scale, tracer)
        workload.setup()
        setup_runs.append(perf_counter() - t)
        setup_ref.append(setup_runs[-1] * cal.factor(before))
        errors.extend(workload.errors)
        workload.errors.clear()
    tracer.enabled = False

    attempted = failed = 0
    plain: List[float] = []  # wall seconds of the untraced units
    traced: List[float] = []
    unit_ref: List[float] = []  # seconds at reference speed of every unit
    rates: List[float] = []  # ops per reference second of every unit
    aborted = False
    loop_started = perf_counter()
    i = 0
    while i < MIN_UNITS or perf_counter() - loop_started < seconds:
        workload.prepare(i)
        tracer.unit = i
        # A traced run alternates, so both kinds of unit see the same
        # inputs and the same drift of the machine.
        tracer.enabled = trace and i % 2 == 1
        before = cal.tick()
        t = perf_counter()
        try:
            with tracer.span(UNIT_SPAN):
                workload.unit(i)
        except Exception:
            # The state a half-run unit leaves behind is unknown: count
            # the failure and stop.
            tracer.enabled = False
            errors.append(f"{name}: unit {i} raised\n{traceback.format_exc()}")
            attempted += 1
            failed += 1
            aborted = True
            break
        wall = perf_counter() - t
        (traced if tracer.enabled else plain).append(wall)
        tracer.enabled = False
        unit_ref.append(wall * cal.factor(before))
        ops, bad = workload.check(i)
        rates.append(ops / unit_ref[-1])
        attempted += ops
        failed += bad
        i += 1
    if not aborted:
        tracer.unit = -1 - setup_repeats
        tracer.enabled = trace
        workload.final_check()
        tracer.enabled = False
    errors.extend(workload.errors)

    units = plain + traced
    if aborted:
        values = {}
    elif trace:
        values = workload.layers()
        values["trace.unattributed_share"] = tracer.unattributed_share()
        # Units 2k (untraced) and 2k+1 (traced) are neighbours in time
        # and, where the workload can arrange it, run the same input.
        values["trace.overhead_share"] = (
            median(t / u for u, t in zip(plain, traced)) - 1.0 if traced else 0.0
        )
        values["calibration.python_s"] = median(cal.python_s)
        values["calibration.numpy_s"] = median(cal.numpy_s)
    else:
        # All times at reference speed (see Calibrator).
        values = {
            "unit_s_p50": median(unit_ref),
            # The median unit's rate: one stalled unit does not move it.
            "ops_per_s": median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_ref_s + median(setup_ref),
        }
    group = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[group]}
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    # A layer this workload never enters spends 0 s and does 0 work there.
    metrics = {
        metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
        for metric, unit in declared.items()
    }

    trace_lines: List[str] = []
    if trace:
        tracer.write(OUT / f"trace-{name}.json")
        trace_lines = tracer.table(workload.work())
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            "workload": name,
            "op": workload.op,
            "seed": seed,
            "input_seed": workload.seed,
            "seconds": seconds,
            "scale": scale,
            "trace": trace,
            "units": len(units),
            "unit_s_tail": tail(unit_ref),
            "ops_per_s_mean": attempted / sum(units) if units else 0.0,
            "unit_s": {"untraced": plain, "traced": traced, "reference": unit_ref},
            "import_s": import_s,
            "setup_runs_s": setup_runs,
            "calibration": {
                "python_s": median(cal.python_s),
                "numpy_s": median(cal.numpy_s),
                "reference_tick_s": REFERENCE_TICK_S,
            },
            "deterministic": None if aborted else workload.deterministic(),
            "errors": errors,
        },
        "trace_table": trace_lines,
    }


def print_result(result: dict) -> None:
    """Human-readable part, then the detail line, then the result line."""
    detail = result["detail"]
    print(
        f"== {detail['workload']}  seed {detail['seed']}  "
        f"{detail['units']} units  {result['attempted']} {detail['op']}s attempted, "
        f"{result['failed']} failed  {'traced' if detail['trace'] else 'untraced'}"
    )
    for name, m in result["metrics"].items():
        if m["value"]:  # 0: a layer this workload does not enter
            print(f"  {name:<42}{m['value']:>16.6g} {m['unit']}")
    tail_ = detail["unit_s_tail"]
    if tail_:
        print(
            f"  unit_s_p{tail_['percentile']} (informational)"
            f"{tail_['value']:>16.6g} s over {tail_['samples']} units"
        )
    for line in result["trace_table"]:
        print("  " + line)
    for error in detail["errors"]:
        print("FAILED CHECK " + error)
    print(DETAIL_PREFIX + json.dumps(detail))
    print(
        json.dumps(
            {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        )
    )


# ---------------------------------------------------------------------------
# The suite: every workload in its own fresh subprocess, one at a time
# ---------------------------------------------------------------------------
def _child(name: str, args: argparse.Namespace, trace: bool) -> dict:
    """One run of the single-workload form; returns result + detail."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--scale", str(args.scale),
        "--trace", "1" if trace else "0",
    ]  # fmt: skip
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name}: run printed no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    detail_line = next(ln for ln in reversed(lines) if ln.startswith(DETAIL_PREFIX))
    result["detail"] = json.loads(detail_line[len(DETAIL_PREFIX) :])
    if trace:
        print("\n".join(lines[:-2]))
    return result


def spread(values: List[float]) -> dict:
    """Median and quartiles, as compare.py and the acceptance check read them."""
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median(values), "q1": q1, "q3": q3, "values": values}


def machine() -> dict:
    import numpy
    import scipy

    from repro.obs.manifest import git_sha, machine_info

    info = machine_info()
    info.update(
        nproc=len(os.sched_getaffinity(0)),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        git_sha=git_sha(ROOT),
    )
    return info


def summarise(runs: List[dict]) -> dict:
    """One workload's entry of a result file, from its untraced runs.

    The deterministic values of the runs (one seed) must be bit-equal;
    a difference is recorded as a failed check.
    """
    first = runs[0]
    blocks = [r["detail"]["deterministic"] for r in runs]
    entry = {
        "metrics": {
            metric: {
                "unit": first["metrics"][metric]["unit"],
                **spread([r["metrics"][metric]["value"] for r in runs]),
            }
            for metric in first["metrics"]
        },
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "calibration": [r["detail"]["calibration"] for r in runs],
        # None: a run was shorter than the fixed prefix the values cover.
        "deterministic": None if None in blocks else blocks[0],
        "errors": [e for r in runs for e in r["detail"]["errors"]],
    }
    if None not in blocks and any(block != blocks[0] for block in blocks):
        entry["errors"].append(
            f"{first['detail']['workload']}: deterministic values differ "
            f"between runs of one seed: {blocks}"
        )
    return entry


def run_suite(args: argparse.Namespace, names: List[str]) -> int:
    report = {
        "machine": machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "runs": args.runs,
        "workloads": {},
    }
    ok = True
    for name in names:
        entry = summarise([_child(name, args, trace=False) for _ in range(args.runs)])
        print(
            f"== {name}: {args.runs} runs, {entry['attempted']} ops, "
            f"{entry['failed']} failed"
        )
        for metric, m in entry["metrics"].items():
            print(
                f"  {metric:<16} median {m['median']:>12.6g} {m['unit']:<5}"
                f" quartiles {m['q1']:.6g} .. {m['q3']:.6g}"
            )
        if args.trace:
            traced = _child(name, args, trace=True)
            entry["per_layer"] = traced["metrics"]
            entry["errors"].extend(traced["detail"]["errors"])
        if entry["deterministic"] is None:
            print("  determinism not checked: a run ended before its fixed prefix")
        for error in entry["errors"]:
            print("FAILED CHECK " + error)
        ok = ok and not entry["errors"] and entry["failed"] == 0
        report["workloads"][name] = entry
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1)
    )
    parser.add_argument("--runs", type=int, help="suite: untraced runs per workload")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrink unit sizes (smoke tests)"
    )
    args = parser.parse_args(argv)
    if args.runs is None and args.workload and len(args.workload) == 1:
        result = run_workload(
            args.workload[0],
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            scale=args.scale,
            started=_STARTED,
        )
        print_result(result)
        return 0 if result["correct"] else 1
    if args.runs is None:
        args.runs = 3
    return run_suite(args, args.workload or names)


if __name__ == "__main__":
    sys.exit(main())
