"""The work placement costs, pinned: same plans, same solves, less time.

Two seeded inputs go through ``OptimizationEngine.place()`` by public calls
with ``tools/churn_counts.py``'s :class:`Counts` installed (the one
counter, so the tool and this test cannot disagree on what a count is):

* the 24 seed-0 GEANT snapshots (the ``geant_cold_deploy`` inputs), each
  placed from a cold engine, then the series again on the same engine,
  re-solving whatever template it kept;
* one 16-tenant churn history (seed 0, history 0) of the tenant platform,
  built as ``internet2_tenant_churn`` builds its histories.

For each, the numbers below are what the program did: ``place()`` calls,
the histogram of LP solves per call, LP assemblies, template re-solves,
``PlacementError``s, the instances dust consolidation removed, the summed
objective and a digest of every plan's ``distribution`` items and
``quantities`` in order (or the error's message).  A change that makes
placement faster must leave every number here exactly as it is.
"""

import sys
from pathlib import Path

from repro.experiments.harness import standard_setup
from repro.sim.rng import derive

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

import churn_counts  # noqa: E402

PINNED_GEANT = {
    "places": 48,
    "solves_per_place": {1: 48},
    "assemblies": 24,
    "warm_places": 24,
    "failed_places": 0,
    "consolidated": 310,
    "objective": 4824.0,
    "plans": "82154cf14cb50bfd",
}

PINNED_CHURN = {
    "places": 50,
    "solves_per_place": {1: 1, 2: 22, 3: 19, 4: 4, 5: 4},
    "assemblies": 30,
    "warm_places": 20,
    "failed_places": 3,
    "consolidated": 1,
    "objective": 148.0,
    "plans": "e81c06b83dee44ec",
}


def _pinned(counts: "churn_counts.Counts") -> dict:
    return {
        "places": counts.places,
        "solves_per_place": dict(sorted(counts.solves_per_place.items())),
        "assemblies": counts.assemblies,
        "warm_places": counts.warm_places,
        "failed_places": counts.failed_places,
        "consolidated": counts.consolidated,
        "objective": counts.objective,
        "plans": counts.plans.hexdigest()[:16],
    }


def geant_counts() -> dict:
    _topo, controller, series = standard_setup("geant", snapshots=24, seed=0)
    engine = controller.engine
    cores = controller.available_cores()
    memory = controller.available_memory_gb()
    class_sets = [controller.build_classes(m) for m in series.snapshots]
    counts = churn_counts.Counts()
    with counts.installed():
        for classes in class_sets:
            engine.clear_templates()
            engine.place(classes, cores, available_memory_gb=memory)
        for classes in class_sets:
            engine.place(classes, cores, available_memory_gb=memory)
    return _pinned(counts)


def churn_counts_16() -> dict:
    counts = churn_counts.Counts()
    churn_counts.run_history(counts, 16, derive(0, "pipeline.history.0"))
    return _pinned(counts)


def test_geant_placement_work_is_pinned():
    assert geant_counts() == PINNED_GEANT


def test_churn_placement_work_is_pinned():
    assert churn_counts_16() == PINNED_CHURN
