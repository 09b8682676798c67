"""Shared benchmark fixtures: result reporting and the perf trajectories.

Every ``BENCH_*.json`` file at the repo root is a *trajectory*: a JSON
list that grows by one entry per recorded benchmark run, so successive
commits can be compared without re-running history.  Entries are built by
:func:`repro.obs.manifest.bench_entry` — the same provenance helpers
(git sha, machine info, schema tag) that run manifests use, so every JSON
artifact the repo emits shares one schema family.  See
``docs/OBSERVABILITY.md`` for the ``apple-bench/v1`` schema, and validate
files with ``python -m repro.obs.validate BENCH_engine.json``.

``record_bench`` targets ``BENCH_engine.json``, ``record_bench_dataplane``
``BENCH_dataplane.json``, ``record_bench_chaos`` ``BENCH_chaos.json``,
``record_bench_southbound`` ``BENCH_southbound.json``,
``record_bench_tenancy`` ``BENCH_tenancy.json``, ``record_bench_elastic``
``BENCH_elastic.json``, and ``record_bench_resilience``
``BENCH_resilience.json``.
"""

import json
from pathlib import Path

import pytest

from repro.obs.manifest import bench_entry

_ROOT = Path(__file__).resolve().parent.parent
BENCH_FILE = _ROOT / "BENCH_engine.json"
BENCH_DATAPLANE_FILE = _ROOT / "BENCH_dataplane.json"
BENCH_CHAOS_FILE = _ROOT / "BENCH_chaos.json"
BENCH_SOUTHBOUND_FILE = _ROOT / "BENCH_southbound.json"
BENCH_TENANCY_FILE = _ROOT / "BENCH_tenancy.json"
BENCH_ELASTIC_FILE = _ROOT / "BENCH_elastic.json"
BENCH_RESILIENCE_FILE = _ROOT / "BENCH_resilience.json"


def report(result) -> None:
    """Print a reproduced table/figure under the benchmark output."""
    print()
    print(result.format())


@pytest.fixture(scope="session")
def print_result():
    return report


def _append_to(path: Path, name: str, metrics: dict) -> None:
    entries = []
    if path.exists():
        try:
            entries = json.loads(path.read_text())
        except (ValueError, OSError):
            entries = []
        if not isinstance(entries, list):
            entries = [entries]
    entries.append(bench_entry(name, metrics))
    path.write_text(json.dumps(entries, indent=2) + "\n")


def _appender(path: Path):
    def _append(name: str, metrics: dict) -> None:
        _append_to(path, name, metrics)

    return _append


@pytest.fixture(scope="session")
def record_bench():
    """Append a unified-schema entry to the BENCH_engine.json trajectory."""
    return _appender(BENCH_FILE)


@pytest.fixture(scope="session")
def record_bench_dataplane():
    """Same appender, targeting ``BENCH_dataplane.json``."""
    return _appender(BENCH_DATAPLANE_FILE)


@pytest.fixture(scope="session")
def record_bench_chaos():
    """Same appender, targeting ``BENCH_chaos.json``."""
    return _appender(BENCH_CHAOS_FILE)


@pytest.fixture(scope="session")
def record_bench_southbound():
    """Same appender, targeting ``BENCH_southbound.json``."""
    return _appender(BENCH_SOUTHBOUND_FILE)


@pytest.fixture(scope="session")
def record_bench_tenancy():
    """Same appender, targeting ``BENCH_tenancy.json``."""
    return _appender(BENCH_TENANCY_FILE)


@pytest.fixture(scope="session")
def record_bench_elastic():
    """Same appender, targeting ``BENCH_elastic.json``."""
    return _appender(BENCH_ELASTIC_FILE)


@pytest.fixture(scope="session")
def record_bench_resilience():
    """Same appender, targeting ``BENCH_resilience.json``."""
    return _appender(BENCH_RESILIENCE_FILE)
