"""CLI: validate observability artifacts against their schemas.

Usage::

    python -m repro.obs.validate run.json trace.json

The artifact kind is sniffed from content (``schema`` tag / shape): run
manifests and Chrome trace JSON are recognised.  Exit status 0 when
every file validates, 1 otherwise — CI's docs job runs this over the
smoke run's outputs.
"""

from __future__ import annotations

import json
import sys
from typing import Any, List, Tuple

from repro.obs.manifest import RUN_SCHEMA, validate_manifest
from repro.obs.trace import validate_trace


def classify_and_validate(obj: Any) -> Tuple[str, List[str]]:
    """(artifact kind, errors) for one parsed JSON document."""
    if isinstance(obj, dict) and "traceEvents" in obj:
        return "chrome-trace", validate_trace(obj)
    if isinstance(obj, dict) and obj.get("schema") == RUN_SCHEMA:
        return "run-manifest", validate_manifest(obj)
    return "unknown", ["unrecognised artifact (no schema tag / traceEvents)"]


def main(argv: List[str] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__)
        return 2
    failures = 0
    for path in paths:
        try:
            obj = json.loads(open(path).read())
        except (OSError, ValueError) as exc:
            print(f"FAIL {path}: unreadable ({exc})")
            failures += 1
            continue
        kind, errors = classify_and_validate(obj)
        if errors:
            failures += 1
            print(f"FAIL {path} ({kind}):")
            for e in errors[:20]:
                print(f"  - {e}")
        else:
            print(f"ok   {path} ({kind})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
