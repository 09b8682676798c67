"""Smoke test of the pipeline benchmark (not part of tier-1).

Run with ``python -m pytest -q benchmarks/pipeline``.  Every workload runs
here, in this process, at a small scale and for a fraction of a second,
once untraced and once traced; the test checks the shape of what they
report, not the numbers.
"""

import json
import re

import pytest

import compare
import run

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]
SCALE = 0.05
SECONDS = 0.2


@pytest.fixture(scope="module")
def results():
    return {
        (name, trace): run.run_workload(
            name, seed=0, seconds=SECONDS, trace=trace, scale=SCALE, setup_repeats=1
        )
        for name in NAMES
        for trace in (False, True)
    }


def test_benchmark_json_lists_the_workloads_and_setup_metric():
    from workloads import WORKLOADS

    assert NAMES == list(WORKLOADS)
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    assert SPEC["paths"] == ["benchmarks/pipeline"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_reported_with_its_unit(results, name):
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        result = results[name, trace]
        assert result["correct"], result["detail"]["errors"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    # End-to-end metrics may never read 0.
    assert all(m["value"] > 0 for m in results[name, False]["metrics"].values())


def test_each_per_layer_metric_is_filled_by_some_workload(results):
    filled = {
        metric
        for name in NAMES
        for metric, m in results[name, True]["metrics"].items()
        if m["value"]
    }
    # Zero by nature: no message is lost on a fault-free channel, the
    # timed columnar windows are loss-free and never leave the bulk path,
    # and at this scale a handful of tenants never queue for capacity and
    # a thousand new flows never share a cache bucket.
    quiet = {
        "southbound.retries",
        "dataplane.columnar.sequential_packets",
        "dataplane.columnar.fallback_share",
        "dataplane.tcam.fresh_cache_hit_share",
        "tenancy.queued_grants",
        "tenancy.intents_rejected",
        "tenancy.intent_converge_sim_s_p50",
    }
    assert {m["name"] for m in SPEC["per_layer"]} - filled <= quiet


def test_traced_units_are_attributed(results):
    for name in NAMES:
        metrics = results[name, True]["metrics"]
        assert metrics["trace.unattributed_share"]["value"] < 0.05, name
        trace_file = run.OUT / f"trace-{name}.json"
        spans = json.loads(trace_file.read_text())
        assert {"id", "name", "start", "end", "parent", "unit"} == set(spans[0])


def test_compare_accepts_a_file_against_itself_and_flags_a_regression(
    results, tmp_path
):
    report = {
        "seed": 0,
        "seconds": SECONDS,
        "scale": SCALE,
        "workloads": {
            name: run.summarise([results[name, False]] * 2) for name in NAMES
        },
    }
    same = tmp_path / "a.json"
    same.write_text(json.dumps(report))
    assert compare.main([str(same), str(same)]) == 0

    slow = json.loads(json.dumps(report))
    cell = slow["workloads"][NAMES[0]]["metrics"]["unit_s_p50"]
    for key in ("median", "q1", "q3"):
        cell[key] *= 1.5
    cell["values"] = [v * 1.5 for v in cell["values"]]
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slow))
    assert compare.main([str(same), str(worse)]) == 1
