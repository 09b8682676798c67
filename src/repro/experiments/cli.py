"""Command-line entry point: regenerate every table and figure.

Usage::

    apple-experiments                 # everything, paper-scale where feasible
    apple-experiments --quick         # smoke-scale versions
    apple-experiments table5 fig10    # a subset

Observability (see ``docs/OBSERVABILITY.md``)::

    apple-experiments failure-recovery --seed 7 --trace
        # trace.json (Chrome trace_event JSON) + run.json (manifest)
    apple-experiments fig12 --quick --manifest out/run.json
    apple-experiments table5 --metrics -        # Prometheus text on stdout
"""

from __future__ import annotations

import argparse
import sys
import textwrap
import time
from typing import Callable, Dict, List

from repro import obs
from repro.experiments import fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12
from repro.experiments import controller_crash, failure_recovery, failure_sweep
from repro.experiments import packet_replay
from repro.experiments import flash_crowd, multi_tenant, southbound_chaos
from repro.experiments import table1, table4, table5
from repro.experiments.harness import (
    ExperimentResult,
    display_name,
    normalize_name,
)
from repro.parallel import resolve_jobs

EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig5": fig5.run,
    "packet_replay": packet_replay.run,
    "failure_recovery": failure_recovery.run,
    "failure_sweep": failure_sweep.run,
    "southbound_chaos": southbound_chaos.run,
    "controller_crash": controller_crash.run,
    "multi_tenant": multi_tenant.run,
    "flash_crowd": flash_crowd.run,
    "table1": table1.run,
    "table4": table4.run,
    "table5": table5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "fig8": fig8.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "fig11": fig11.run,
    "fig12": fig12.run,
}

#: Experiments whose run() accepts a quick flag.
_QUICKABLE = {
    "table5", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "packet_replay", "failure_recovery", "failure_sweep",
    "southbound_chaos", "multi_tenant", "flash_crowd",
    "controller_crash",
}

#: Experiments whose run() accepts a jobs flag (process fan-out over
#: independent rows).
_JOBSABLE = {"fig12", "table5", "failure_recovery", "failure_sweep",
             "southbound_chaos"}

#: Experiments whose run() accepts a seed (deterministic chaos runs).
_SEEDABLE = {"failure_recovery", "southbound_chaos", "multi_tenant",
             "flash_crowd", "controller_crash"}


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text without splitting a hyphenated experiment name."""

    def _split_lines(self, text, width):
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def _jobs_arg(value: str):
    """argparse type for --jobs: positive int or 'auto'."""
    try:
        return resolve_jobs(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="apple-experiments",
        description="Regenerate the APPLE paper's tables and figures.",
        formatter_class=_HelpFormatter,
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        type=normalize_name,
        choices=sorted(EXPERIMENTS) + [[]],
        metavar="EXPERIMENT",
        help="subset to run (default: all): "
        f"{', '.join(display_name(n) for n in sorted(EXPERIMENTS))}; "
        "hyphens and underscores are interchangeable — every name is "
        "folded through harness.normalize_name, the single source of "
        "experiment-name spelling (see EXPERIMENTS.md)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="smoke-scale parameters"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="run seed for seeded experiments "
        f"({', '.join(display_name(n) for n in sorted(_SEEDABLE))}); same seed, same fault "
        "schedule and recovery timeline, bit for bit",
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        metavar="N",
        help="worker processes for experiments with independent rows "
        f"({', '.join(display_name(n) for n in sorted(_JOBSABLE))}); default 1 (serial); 'auto' "
        "measures the first row's cost and fans out only when a pool "
        "pays for itself (never slower than serial)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="also write the rendered results to FILE (markdown-friendly)",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="trace.json",
        default=None,
        metavar="FILE",
        help="enable observability with event tracing and write Chrome "
        "trace_event JSON to FILE (default trace.json); open in Perfetto "
        "or chrome://tracing; also writes a run manifest (see --manifest)",
    )
    parser.add_argument(
        "--manifest",
        nargs="?",
        const="run.json",
        default=None,
        metavar="FILE",
        help="enable observability and write a run manifest (seed, git "
        "sha, config, metric snapshot) to FILE (default run.json)",
    )
    parser.add_argument(
        "--metrics",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="enable observability and dump the metrics registry in "
        "Prometheus text format to FILE ('-' = stdout)",
    )
    args = parser.parse_args(argv)
    names = args.experiments or sorted(EXPERIMENTS)

    obs_on = any(x is not None for x in (args.trace, args.manifest, args.metrics))
    manifest_file = args.manifest
    if obs_on:
        obs.enable(trace=args.trace is not None)
        if manifest_file is None:
            manifest_file = "run.json"
        if args.jobs != 1:
            print(
                "warning: --jobs > 1 runs rows in worker processes; their "
                "metrics stay in the workers and will be missing from the "
                "snapshot",
                file=sys.stderr,
            )

    run_started = time.perf_counter()
    sections = []
    snapshots = []
    for name in names:
        runner = EXPERIMENTS[name]
        started = time.perf_counter()
        kwargs = {}
        if args.quick and name in _QUICKABLE:
            kwargs["quick"] = True
        if args.jobs != 1 and name in _JOBSABLE:
            kwargs["jobs"] = args.jobs
        if name in _SEEDABLE:
            kwargs["seed"] = args.seed
        result = runner(**kwargs)
        result.elapsed_seconds = time.perf_counter() - started
        snap = result.metrics_snapshot()
        snapshots.append(snap)
        if obs.REGISTRY.enabled:
            label = display_name(name)
            obs.metric("experiment_runs_total").labels(experiment=label).inc()
            obs.metric("experiment_wall_seconds").labels(experiment=label).set(
                snap["elapsed_seconds"]
            )
            obs.metric("experiment_rows").labels(experiment=label).set(
                snap["rows"]
            )
        rendered = result.format()
        sections.append(rendered)
        print(rendered)
        print()
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            "# APPLE reproduction — experiment results\n\n```\n"
            + "\n\n".join(sections)
            + "\n```\n"
        )

    if obs_on:
        wall = time.perf_counter() - run_started
        if args.trace is not None:
            obs.TRACER.write(args.trace)
            print(f"trace written to {args.trace}", file=sys.stderr)
        if args.metrics is not None:
            text = obs.REGISTRY.to_prometheus()
            if args.metrics == "-":
                print(text, end="")
            else:
                from pathlib import Path

                Path(args.metrics).write_text(text)
                print(f"metrics written to {args.metrics}", file=sys.stderr)
        manifest = obs.build_manifest(
            experiments=snapshots,
            argv=list(sys.argv[1:] if argv is None else argv),
            seed=args.seed,
            config={
                "quick": args.quick,
                "jobs": args.jobs,
                "experiments": [display_name(n) for n in names],
            },
            metrics=obs.REGISTRY.snapshot(),
            wall_seconds=wall,
            trace_file=args.trace,
        )
        obs.write_json(manifest_file, manifest)
        print(f"run manifest written to {manifest_file}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
