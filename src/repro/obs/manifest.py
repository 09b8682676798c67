"""Run manifests: one ``run.json`` per experiment invocation.

A manifest makes a run reproducible and diffable: it records *what* ran
(experiments, seed, config, CLI argv), *where* (git sha, machine), *how
long* (wall seconds), and *what came out* (per-experiment metric
snapshots plus the full metrics-registry snapshot).  The pipeline
benchmark stamps its reports with the same provenance helpers
(:func:`git_sha` / :func:`machine_info`).

Validation is hand-rolled (no jsonschema dependency): the schema is the
code in :func:`validate_manifest`, mirrored in prose in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: Schema tag embedded in (and checked on) every run manifest.
RUN_SCHEMA = "apple-run/v1"

_ROOT = Path(__file__).resolve().parents[3]


def git_sha(cwd: Optional[Path] = None) -> str:
    """HEAD commit of the enclosing checkout, or ``"unknown"``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or _ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------
def build_manifest(
    *,
    experiments: Sequence[dict],
    argv: Sequence[str],
    seed: int,
    config: Dict[str, Any],
    metrics: Dict[str, Any],
    wall_seconds: float,
    trace_file: Optional[str] = None,
) -> dict:
    """Assemble a run manifest (see :func:`validate_manifest` for schema).

    Args:
        experiments: one :meth:`ExperimentResult.metrics_snapshot` dict per
            experiment that ran, in run order.
        argv: the CLI argument vector as invoked.
        seed: the run seed handed to seeded experiments.
        config: remaining invocation knobs (quick/jobs/batch/...).
        metrics: a :meth:`MetricsRegistry.snapshot` dict.
        wall_seconds: whole-invocation wall time.
        trace_file: path of the Chrome trace written alongside, if any.
    """
    return {
        "schema": RUN_SCHEMA,
        "created_unix": round(time.time(), 3),
        "argv": list(argv),
        "seed": int(seed),
        "config": dict(config),
        "git_sha": git_sha(),
        "machine": machine_info(),
        "experiments": [dict(e) for e in experiments],
        "metrics": metrics,
        "wall_seconds": round(float(wall_seconds), 6),
        "trace_file": trace_file,
    }


def validate_manifest(obj: Any) -> List[str]:
    """Structural validation of a run manifest; returns errors (empty = ok)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["manifest must be a JSON object"]
    if obj.get("schema") != RUN_SCHEMA:
        errors.append(f"schema must be {RUN_SCHEMA!r}, got {obj.get('schema')!r}")
    for key, types in (
        ("created_unix", (int, float)),
        ("argv", list),
        ("seed", int),
        ("config", dict),
        ("git_sha", str),
        ("machine", dict),
        ("experiments", list),
        ("metrics", dict),
        ("wall_seconds", (int, float)),
    ):
        if not isinstance(obj.get(key), types):
            errors.append(f"missing or mistyped field {key!r}")
    tf = obj.get("trace_file")
    if tf is not None and not isinstance(tf, str):
        errors.append("trace_file must be a string or null")
    machine = obj.get("machine")
    if isinstance(machine, dict):
        for key in ("platform", "python", "cpus"):
            if key not in machine:
                errors.append(f"machine missing {key!r}")
    experiments = obj.get("experiments")
    if isinstance(experiments, list):
        for i, e in enumerate(experiments):
            where = f"experiments[{i}]"
            if not isinstance(e, dict):
                errors.append(f"{where}: not an object")
                continue
            if not isinstance(e.get("experiment"), str):
                errors.append(f"{where}: missing experiment name")
            if not isinstance(e.get("elapsed_seconds"), (int, float)):
                errors.append(f"{where}: missing elapsed_seconds")
            if not isinstance(e.get("rows"), int):
                errors.append(f"{where}: missing rows")
    return errors


def write_json(path, obj: Any) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
