"""Seeded placement plans shared by the realisation and audit suites.

Built once per test process through public calls only: the standard
GEANT setup with its 24-snapshot diurnal series, each snapshot's classes
placed cold (the benchmark's ``geant_cold_deploy`` inputs), and one
Internet2 plan of the series mean.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.core.controller import AppleController
from repro.core.placement import PlacementPlan
from repro.experiments.harness import standard_setup
from repro.topology.graph import Topology

GEANT_SNAPSHOTS = 24


@lru_cache(maxsize=1)
def geant_cold_plans() -> Tuple[Topology, AppleController, List[PlacementPlan]]:
    """The first 24 seed-0 GEANT snapshots, each placed from a cold engine."""
    topo, controller, series = standard_setup(
        "geant", snapshots=GEANT_SNAPSHOTS, seed=0
    )
    cores = controller.available_cores()
    memory = controller.available_memory_gb()
    plans = []
    for matrix in series.snapshots:
        classes = controller.build_classes(matrix)
        controller.engine.clear_templates()
        plans.append(
            controller.engine.place(classes, cores, available_memory_gb=memory)
        )
    return topo, controller, plans


@lru_cache(maxsize=1)
def internet2_plan() -> Tuple[Topology, AppleController, PlacementPlan]:
    topo, controller, series = standard_setup("internet2", snapshots=2, seed=0)
    return topo, controller, controller.compute_placement(series.mean())
