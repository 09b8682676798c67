#!/usr/bin/env python
"""Census of the ``src/repro`` functions that the repo's drivers reach.

A function in the library exists only if a driver runs it: an
experiment, an example, a pipeline workload or the artifact validator.
This tool runs every driver with a profile hook installed through a
``sitecustomize`` on ``PYTHONPATH`` (so subprocesses and forked pool
workers are counted too), records ``(file, co_firstlineno)`` for every
call into ``src/repro/``, matches the records against an AST list of
every ``def`` under ``src/repro``, read before the first driver starts (a
decorated function starts at its first decorator, as ``co_firstlineno``
does), and prints reached / unreached per module.

The drivers are exactly :func:`drivers`: ``apple-experiments --quick
--seed 1`` with ``--jobs 1``, ``--jobs 2``, ``--jobs auto`` and traced
(``--trace / --manifest / --metrics``); ``apple-experiments --seed 0
--jobs 2`` at full scale (the circuit breaker, host failures, degraded
links and AS-3679 are reached only there); every ``examples/*.py``;
``benchmarks/pipeline/run.py --workload W --seed 1 --seconds 2 --trace
0|1`` for every workload; and ``python -m repro.obs.validate`` over the
traced run's artifacts.  A driver that exits
non-zero stops the census (exit 2): a crashed driver reaches less.

Dunder protocol methods (``__repr__``, ``__eq__``, ``__reduce__``, ...)
are exempt: a class is judged by its ``__init__`` and its other
methods.  Every other unreached function must be named in
:data:`ALLOWED` with the reason it stays.

Usage::

    python tools/driver_census.py           # print the census
    python tools/driver_census.py --check   # also exit 1 on a violation

``--check`` exits 1 when a function is unreached and not allow-listed,
or when an allow-list entry names a function that is reached or no
longer exists.  The whole driver list takes several minutes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Drivers run side by side; the full-scale run forks two workers itself.
CONCURRENCY = 2

_SAFETY = "safety: "
_ORACLE = "test oracle: "
_REFERENCE = _ORACLE + "the reference interpreter, "
_ISOLATION = "test-isolation hook: "
_CLAIM = "paper claim: tests/test_paper_claims.py::"
_SMOOTHING = _CLAIM + "test_sec4a_aggregation_shrinks_the_model_and_smooths_traffic"
_SPLIT = _CLAIM + "test_sec5a_prefix_subclasses_inflate_rules_hashing_does_not"
_WAL = _SAFETY + "FileJournal is the durable WAL (tests/test_resilience.py)"
_ROLLBACK = _SAFETY + "the fault path of an epoch; ROADMAP item 10(a) drives it"
_FEASIBLE = _SAFETY + "the feasibility check of every solver test; ROADMAP item 12 uses it"
_PROGRAMS = _REFERENCE + "tests/test_dataplane_programs.py"
_ORIGIN = _REFERENCE + "host-originated traffic (Fig. 3), tests/test_fig3_scenarios.py"
_MUTATOR = (
    _ORACLE + "a vSwitch mutator that drifts installed state in "
    "tests/test_southbound_differential.py and tests/test_dataplane_generation.py"
)
_PREDICATE = _ORACLE + "the set algebra tests/test_classify_predicates_prop.py checks subtract with"
_TAGS = _ORACLE + "the tag values tests/test_core_rulegen.py checks installed rules against"

#: "module:qualname" -> why the function stays although no driver runs it.
ALLOWED: Dict[str, str] = {
    # Safety.
    "repro.southbound.transaction:Transaction._rollback": _ROLLBACK,
    "repro.southbound.transaction:_inverse": _ROLLBACK,
    "repro.solver.lp:_solve_linprog": _SAFETY
    + "the only LP path on a scipy without the private HiGHS binding",
    "repro.solver.lp:LinearProgram.is_feasible": _FEASIBLE,
    "repro.solver.lp:LinearProgram.row_activity": _FEASIBLE,
    "repro.resilience.journal:FileJournal.__init__": _WAL,
    "repro.resilience.journal:FileJournal._persist": _WAL,
    "repro.resilience.journal:FileJournal.load": _WAL,
    "repro.southbound.metrics:SouthboundMetrics.record_give_up": _SAFETY
    + "counts a channel that exhausts its retries",
    "repro.core.constraints:assemble_placement_lp.<locals>.var_name": _SAFETY
    + "names the variable in a rounding failure's SolverError (no driver "
    "reaches one since make-before-break left the re-solve loop)",
    # Test oracles: the reference interpreter.
    "repro.dataplane.network:DataPlaneNetwork.walk_reference": _PROGRAMS,
    "repro.dataplane.network:DataPlaneNetwork.inject_from_host": _REFERENCE
    + "tests/test_dataplane.py",
    "repro.dataplane.network:DataPlaneNetwork._record": _PROGRAMS,
    "repro.dataplane.network:DataPlaneNetwork.flush_counters": _PROGRAMS
    + " (reads switch counters after inject)",
    "repro.dataplane.packet:Packet.tagged": _PROGRAMS,
    "repro.dataplane.packet:Packet.visit": _PROGRAMS,
    "repro.dataplane.switch:PhysicalSwitch.process": _PROGRAMS,
    "repro.dataplane.vswitch:VSwitch.process": _PROGRAMS,
    "repro.dataplane.vswitch:VSwitch.process_origin": _ORIGIN,
    "repro.dataplane.vswitch:VSwitch.install_origin_rule": _ORIGIN,
    "repro.dataplane.vswitch:VSwitch.clear_origin_rules": _ORIGIN,
    "repro.dataplane.vswitch:VSwitch.origin_rule_count": _ORIGIN,
    "repro.dataplane.vswitch:VSwitch.deregister_instance": _MUTATOR,
    "repro.dataplane.vswitch:VSwitch.clear_rules": _MUTATOR,
    "repro.dataplane.tcam:TcamTable.clear": _ORACLE
    + "a TCAM mutator that wipes a switch behind the fabric's back in "
    "tests/test_idle_passes.py and tests/test_dataplane_generation.py (day 0 "
    "writes a fresh network through the applier, which never clears)",
    "repro.dataplane.tcam:TcamTable.lookup": _REFERENCE
    + "tests/test_dataplane_flowcache.py",
    "repro.dataplane.tcam:TcamTable._scan_all": _REFERENCE
    + "tests/test_dataplane_flowcache.py",
    "repro.dataplane.tcam:TcamEntry.matches": _PROGRAMS,
    "repro.dataplane.tcam:TcamEntry.matches_fields": _PROGRAMS,
    # Other test oracles.
    "repro.core.subclasses:SubclassPlan.subclass_for_hash": _ORACLE
    + "the hash -> sub-class lookup tests/test_verify_cells.py audits cells with",
    "repro.core.subclasses:Subclass.covers": _ORACLE
    + "the hash -> sub-class lookup tests/test_verify_cells.py audits cells with",
    "repro.core.placement:PlacementPlan.memory_by_switch": _ORACLE
    + "validate(available_memory_gb=), the memory check of tests/test_extensions.py",
    "repro.classify.predicates:Predicate.nothing": _PREDICATE,
    "repro.classify.predicates:Predicate.complement": _PREDICATE,
    "repro.classify.predicates:Predicate.union": _PREDICATE,
    "repro.classify.predicates:Predicate.equals": _PREDICATE,
    "repro.dataplane.tagging:TagAllocator.host_id": _TAGS,
    "repro.dataplane.tagging:TagAllocator.host_field": _TAGS,
    "repro.dataplane.tagging:TagAllocator.subclass_field": _TAGS,
    "repro.dataplane.flowhash:suffix_hash": _ORACLE
    + "tests/test_prefix_hash_agreement.py holds SubclassSplit's prefixes to it",
    # Test isolation.
    "repro.obs:reset": _ISOLATION + "tests/test_obs_feed.py",
    "repro.obs.trace:Tracer.clear": _ISOLATION + "tests/test_obs_trace.py",
    "repro.obs.metrics:MetricsRegistry.clear": _ISOLATION + "tests/test_obs_metrics.py",
    "repro.obs.metrics:MetricsRegistry.reset_values": _ISOLATION
    + "tests/test_obs_metrics.py",
    "repro.sim.kernel:Simulator.reset": _ISOLATION + "tests/test_sim_kernel.py",
    "repro.sim.events:EventQueue.clear": _ISOLATION + "tests/test_sim_events.py",
    # Paper claims that no experiment prints.
    "repro.traffic.diurnal:aggregate_smoothing_ratio": _SMOOTHING,
    "repro.traffic.diurnal:aggregate_smoothing_ratio.<locals>.cv": _SMOOTHING,
    "repro.classify.split:fraction_to_prefixes": _SPLIT,
    "repro.classify.rules:format_prefix": _SPLIT,
    "repro.classify.split:SubclassSplit.from_weights": _SPLIT,
    "repro.classify.split:SubclassSplit.num_subclasses": _SPLIT,
    "repro.classify.split:SubclassSplit.hash_range": _SPLIT,
    "repro.classify.split:SubclassSplit.weight": _SPLIT,
    "repro.classify.split:SubclassSplit.prefixes": _SPLIT,
    "repro.classify.split:SubclassSplit.total_prefix_rules": _SPLIT,
    "repro.classify.split:SubclassSplit.subclass_of_hash": _ORACLE
    + "the hash side tests/test_prefix_hash_agreement.py holds a split's "
    "prefixes to",
    # Not a census driver.
    "repro.experiments.cli:_HelpFormatter._split_lines": "the CLI's --help "
    "rendering, which no driver asks for "
    "(tests/test_cli.py::test_help_text_uses_hyphenated_names)",
}


@dataclass(frozen=True)
class Function:
    """One ``def`` under ``src/repro``."""

    module: str
    qualname: str
    first: int  # co_firstlineno: the first decorator line, if any
    last: int
    outermost: bool

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def exempt(self) -> bool:
        return exempt(self.qualname)


def exempt(qualname: str) -> bool:
    """A dunder protocol method: exempt, its class is judged by the rest.

    ``__init__`` and ``__post_init__`` are judged like any other method.
    """
    name = qualname.rsplit(".", 1)[-1]
    return (
        name.startswith("__")
        and name.endswith("__")
        and name not in ("__init__", "__post_init__")
    )


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def functions(package: Path = PACKAGE) -> Dict[Tuple[str, int], Function]:
    """``{(path relative to src, first line): Function}`` for every def."""
    found: Dict[Tuple[str, int], Function] = {}
    for path in sorted(package.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        module = module_name(path)

        def visit(node: ast.AST, prefix: str, depth: int) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    qualname = prefix + child.name
                    found[(rel, first)] = Function(
                        module, qualname, first, child.end_lineno, depth == 0
                    )
                    visit(child, qualname + ".<locals>.", depth + 1)
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", depth)
                else:
                    visit(child, prefix, depth)

        visit(ast.parse(path.read_text()), "", 0)
    return found


# The hook every driver process loads: records (file, co_firstlineno) of
# each call into src/repro and writes them out at exit.  A forked
# multiprocessing child clears the inherited finalizer registry, so the
# dump is re-registered after every fork.
_SITECUSTOMIZE = '''
import atexit, os, sys, threading
import multiprocessing.util as _mp_util

_PREFIX = {prefix!r}
_OUT = {out!r}
_hits = set()


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code.co_filename.startswith(_PREFIX):
            _hits.add((code.co_filename, code.co_firstlineno))


def _dump():
    path = os.path.join(_OUT, "%d.txt" % os.getpid())
    with open(path, "w") as fh:
        for filename, line in _hits:
            fh.write("%s\\t%d\\n" % (os.path.realpath(filename), line))


class _Anchor:
    pass


_ANCHOR = _Anchor()
_mp_util.register_after_fork(
    _ANCHOR, lambda _: _mp_util.Finalize(None, _dump, exitpriority=0)
)
atexit.register(_dump)
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def drivers() -> List[Tuple[str, List[str]]]:
    """``(label, argv)`` of every driver but the validator, which reads the
    traced run's artifacts and so runs after them (:func:`run_drivers`)."""
    py = sys.executable
    quick = [py, "-m", "repro", "--quick", "--seed", "1"]
    runs = [
        ("full --seed 0 --jobs 2", [py, "-m", "repro", "--seed", "0", "--jobs", "2"]),
        (
            "quick traced",
            quick + ["--trace", "trace.json", "--manifest", "run.json",
                     "--metrics", "metrics.prom"],
        ),
        ("quick --jobs 1", quick + ["--jobs", "1"]),
        ("quick --jobs 2", quick + ["--jobs", "2"]),
        ("quick --jobs auto", quick + ["--jobs", "auto"]),
    ]
    for example in sorted((ROOT / "examples").glob("*.py")):
        runs.append((f"examples/{example.name}", [py, str(example)]))
    run_py = ROOT / "benchmarks" / "pipeline" / "run.py"
    for workload in _workloads():
        for trace in ("0", "1"):
            runs.append((
                f"pipeline {workload} --trace {trace}",
                [py, str(run_py), "--workload", workload, "--seed", "1",
                 "--seconds", "2", "--trace", trace],
            ))
    return runs


def _workloads() -> List[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def run_drivers(work: Path) -> Set[Tuple[str, int]]:
    """Run every driver under the hook; ``{(path relative to src, line)}``."""
    hook, hits, cwd = work / "hook", work / "hits", work / "cwd"
    for d in (hook, hits, cwd):
        d.mkdir()
    prefix = str(PACKAGE.resolve()) + os.sep
    (hook / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(prefix=prefix, out=str(hits))
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(hook), str(SRC.resolve())])

    def run(job: Tuple[str, List[str]]) -> Tuple[str, subprocess.CompletedProcess]:
        label, argv = job
        done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
        print(f"  ran {label}: exit {done.returncode}", flush=True)
        return label, done

    with ThreadPoolExecutor(CONCURRENCY) as pool:
        results = list(pool.map(run, drivers()))
    results.append(run((
        "repro.obs.validate",
        [sys.executable, "-m", "repro.obs.validate", "run.json", "trace.json"],
    )))
    failed = [(label, done) for label, done in results if done.returncode != 0]
    for label, done in failed:
        print(f"driver failed: {label} (exit {done.returncode})", file=sys.stderr)
        print(textwrap.indent(done.stderr[-3000:], "    "), file=sys.stderr)
    if failed:
        raise SystemExit(2)
    reached: Set[Tuple[str, int]] = set()
    src = str(SRC.resolve()) + os.sep
    for dump in hits.iterdir():
        for row in dump.read_text().splitlines():
            filename, line = row.split("\t")
            if filename.startswith(src):
                reached.add((filename[len(src):], int(line)))
    return reached


def report(rows: List[Tuple[Function, bool]]) -> List[str]:
    """Print reached / unreached per module; return the violations."""
    by_module: Dict[str, List[Tuple[Function, bool]]] = defaultdict(list)
    for fn, hit in rows:
        by_module[fn.module].append((fn, hit))
    violations: List[str] = []
    unreached_keys = set()
    for module in sorted(by_module):
        entries = by_module[module]
        hits = sum(hit for _, hit in entries)
        print(f"{module}: {hits}/{len(entries)} reached")
        for fn, hit in entries:
            if hit:
                continue
            unreached_keys.add(fn.key)
            if fn.exempt:
                tag = "exempt (dunder)"
            elif fn.key in ALLOWED:
                tag = "allowed: " + ALLOWED[fn.key]
            else:
                tag = "UNREACHED"
                violations.append(f"unreached and not allow-listed: {fn.key}")
            print(f"    {fn.qualname} (line {fn.first}, {fn.last - fn.first + 1} lines) {tag}")
    known = {fn.key for fn, _ in rows}
    for key in sorted(ALLOWED):
        if key not in known:
            violations.append(f"allow-listed but no such function: {key}")
        elif key not in unreached_keys:
            violations.append(f"allow-listed but reached: {key}")
    outer = [fn for fn, hit in rows if not hit and fn.outermost]
    total = len(rows)
    hit_count = sum(hit for _, hit in rows)
    print(
        f"\n{total} functions, {hit_count} reached, {total - hit_count} unreached "
        f"({len(outer)} outermost, {sum(f.last - f.first + 1 for f in outer)} lines)"
    )
    return violations


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on an unreached function that is not allow-listed, or "
        "on an allow-list entry that is reached or names no function",
    )
    args = parser.parse_args(argv)
    # The definitions are read before the first driver starts, so the
    # lines the drivers record are matched against the code they ran.
    defined = functions()
    with tempfile.TemporaryDirectory(prefix="driver-census-") as tmp:
        reached = run_drivers(Path(tmp))
    violations = report([(fn, where in reached) for where, fn in defined.items()])
    for line in violations:
        print(line)
    if args.check and violations:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
