"""Tests for run manifests, BENCH entries, and the validation CLI."""

import json

import pytest

from repro import obs
from repro.obs.manifest import (
    BENCH_SCHEMA,
    RUN_SCHEMA,
    bench_entry,
    build_manifest,
    git_sha,
    machine_info,
    validate_bench_entry,
    validate_manifest,
    write_json,
)
from repro.obs.validate import classify_and_validate, main as validate_main


@pytest.fixture
def manifest():
    return build_manifest(
        experiments=[
            {"experiment": "failure-recovery", "rows": 1, "columns": 15,
             "elapsed_seconds": 0.4}
        ],
        argv=["failure-recovery", "--seed", "7", "--trace"],
        seed=7,
        config={"quick": True, "jobs": 1, "experiments": ["failure-recovery"]},
        metrics={},
        wall_seconds=0.41,
        trace_file="trace.json",
    )


def test_build_manifest_validates(manifest):
    assert manifest["schema"] == RUN_SCHEMA
    assert validate_manifest(manifest) == []
    assert manifest["seed"] == 7
    assert manifest["trace_file"] == "trace.json"


def test_manifest_provenance_fields(manifest):
    assert len(manifest["git_sha"]) == 40 or manifest["git_sha"] == "unknown"
    for key in ("platform", "python", "cpus"):
        assert key in manifest["machine"]


def test_validate_manifest_catches_problems(manifest):
    assert validate_manifest([]) == ["manifest must be a JSON object"]
    bad = dict(manifest)
    bad["schema"] = "nope"
    del bad["seed"]
    bad["experiments"] = [{"rows": "x"}]
    errors = validate_manifest(bad)
    assert any("schema" in e for e in errors)
    assert any("seed" in e for e in errors)
    assert any("experiments[0]" in e for e in errors)


def test_bench_entry_unified_schema():
    entry = bench_entry("engine_warm", {"solves": 10, "seconds": 0.5})
    assert entry["schema"] == BENCH_SCHEMA
    assert validate_bench_entry(entry) == []
    # Pre-unification entries (no schema tag) stay valid.
    legacy = {k: v for k, v in entry.items() if k != "schema"}
    assert validate_bench_entry(legacy) == []
    legacy["schema"] = "wrong"
    assert validate_bench_entry(legacy) != []


def test_git_sha_and_machine_info_shapes():
    sha = git_sha()
    assert isinstance(sha, str) and sha
    info = machine_info()
    assert set(info) == {"platform", "python", "cpus"}


def test_classify_and_validate_sniffing(manifest):
    assert classify_and_validate(manifest)[0] == "run-manifest"
    assert classify_and_validate({"traceEvents": []})[0] == "chrome-trace"
    entry = bench_entry("x", {})
    kind, errors = classify_and_validate([entry])
    assert (kind, errors) == ("bench-trajectory", [])
    kind, errors = classify_and_validate({"what": "ever"})
    assert kind == "unknown" and errors


def test_validate_cli(tmp_path, manifest, capsys):
    good = tmp_path / "run.json"
    write_json(good, manifest)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": RUN_SCHEMA}))
    missing = tmp_path / "missing.json"

    assert validate_main([str(good)]) == 0
    assert validate_main([str(good), str(bad)]) == 1
    assert validate_main([str(missing)]) == 1
    assert validate_main([]) == 2
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" in out


def test_cli_trace_run_emits_valid_artifacts(tmp_path):
    """End to end: --trace writes a valid trace + manifest (quick config)."""
    from repro.experiments.cli import main as cli_main

    trace = tmp_path / "t.json"
    manifest = tmp_path / "r.json"
    try:
        rc = cli_main(
            ["failure-recovery", "--quick", "--seed", "7",
             "--trace", str(trace), "--manifest", str(manifest)]
        )
        assert rc == 0
        assert validate_main([str(trace), str(manifest)]) == 0
        run = json.loads(manifest.read_text())
        assert run["seed"] == 7
        assert run["config"]["experiments"] == ["failure-recovery"]
        assert run["experiments"][0]["experiment"] == "failure-recovery"
        # The metric snapshot made it into the manifest.
        assert run["metrics"]["chaos_faults_injected_total"]["series"]
        trace_obj = json.loads(trace.read_text())
        names = {e["name"] for e in trace_obj["traceEvents"]}
        assert any(n.startswith("fault:") for n in names)
    finally:
        obs.disable()
        obs.reset()
