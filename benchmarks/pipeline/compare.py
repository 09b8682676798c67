#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the parent, B the change (or a second set of runs of the same
commit: the A/A check).  For every workload and end-to-end metric the
verdict comes from each side's median and quartiles and the regression
bound fixed in BENCHMARK.json:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B wins at least nine tenths of the run pairs and the
  medians differ by more than the distance between A's quartiles;
* ``unresolved`` — a side's quartiles are further apart than the bound,
  so the runs cannot tell (unless every run of one side beats every run
  of the other, which settles it);
* ``unchanged`` — none of the above.

Exits 1 on any ``worse`` and on any rise in the share of failed ops.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """One (metric, workload) cell; ``a`` / ``b`` as ``run.spread`` writes them."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"]) or 1.0
    worse_by = sign * (b["median"] - a["median"]) / base
    a_vals = [sign * v for v in a["values"]]
    b_vals = [sign * v for v in b["values"]]
    b_always_better = max(b_vals) < min(a_vals)
    b_always_worse = min(b_vals) > max(a_vals)
    noisy = max(
        (side["q3"] - side["q1"]) / (abs(side["median"]) or 1.0) for side in (a, b)
    ) > bound
    if worse_by > bound:
        return "worse" if b_always_worse or not noisy else "unresolved"
    pairs = [(x, y) for x, y in zip(a_vals, b_vals) if x != y]
    wins = sum(1 for x, y in pairs if y < x)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]
    ):
        return "better"
    if noisy and not b_always_better:
        return "unresolved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> int:
    for key in ("seed", "seconds", "scale"):
        if a[key] != b[key]:
            print(f"not comparable: {key} is {a[key]} in A and {b[key]} in B")
            return 2
    bad = 0
    print(
        f"{'workload':<28}{'metric':<14}{'A median':>12}{'B median':>12}"
        f"{'B vs A':>9}  verdict"
    )
    for name in (w["name"] for w in spec["workloads"]):
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            ma, mb = wa["metrics"][metric["name"]], wb["metrics"][metric["name"]]
            result = verdict(ma, mb, metric["better"], metric["bound"])
            change = (mb["median"] - ma["median"]) / (abs(ma["median"]) or 1.0)
            print(
                f"{name:<28}{metric['name']:<14}{ma['median']:>12.5g}"
                f"{mb['median']:>12.5g}{change:>+9.1%}  {result}"
            )
            bad += result == "worse"
        share_a = wa["failed"] / wa["attempted"]
        share_b = wb["failed"] / wb["attempted"]
        if share_b > share_a:
            print(f"{name:<28}failed share rose from {share_a:.3g} to {share_b:.3g}")
            bad += 1
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0])
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(a, b, spec)


if __name__ == "__main__":
    sys.exit(main())
