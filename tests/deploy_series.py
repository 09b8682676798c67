"""Seeded placement plans shared by the realisation and audit suites.

Built once per test process through public calls only: the standard
GEANT setup with its 24-snapshot diurnal series, each snapshot's classes
placed cold (the benchmark's ``geant_cold_deploy`` inputs), and one
Internet2 plan of the series mean.  :class:`GeantReconfigSeries` drives
the same series as a reconfiguration loop, as the benchmark's
``geant_reconfig_loop`` drives it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.core.controller import AppleController
from repro.core.placement import PlacementPlan
from repro.core.reconfigure import Deployment
from repro.core.subclasses import assign_subclasses
from repro.core.verify import verify_deployment
from repro.experiments.harness import standard_setup
from repro.sim.kernel import Simulator
from repro.southbound import SouthboundFabric
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


class GeantReconfigSeries:
    """The seeded GEANT series as a control loop, one epoch per snapshot.

    Set-up deploys snapshot 0 cold and adopts it into a loss-free fabric
    that drains retired instances; each :meth:`epoch` then places the next
    snapshot warm, generates its rules, pushes them as one acked epoch, runs
    the simulator until it drains and audits the result — the timed unit of
    the benchmark's ``geant_reconfig_loop``, whose first (warm-up) unit is
    epoch 1.
    """

    def __init__(self, seed: int = 0) -> None:
        self.topo, self.controller, series = standard_setup(
            "geant", snapshots=GEANT_SNAPSHOTS, seed=seed
        )
        self.snapshots = series.snapshots
        self.cores = self.controller.available_cores()
        self.memory = self.controller.available_memory_gb()
        self.sim = Simulator(seed=seed)
        deployment = self.controller.run(self.snapshots[0], sim=self.sim)
        self.fabric = SouthboundFabric(
            self.sim,
            deployment.network,
            seed,
            self.controller.rule_generator,
            drain_retired=True,
        )
        self.controller.attach_southbound(self.fabric)
        self.step = 0

    def next_rules(self):
        """(plan, sub-class plan, rules) of the next snapshot."""
        self.step += 1
        controller = self.controller
        classes = controller.build_classes(
            self.snapshots[self.step % len(self.snapshots)]
        )
        plan = controller.engine.place(
            classes, self.cores, available_memory_gb=self.memory
        )
        subs = assign_subclasses(plan)
        return plan, subs, controller.rule_generator.generate(plan.classes, subs)

    def epoch(self, on_pushed=None):
        """Push, converge and audit one epoch: (plan, convergence, report).

        ``on_pushed(plan, rules)`` runs between the push and the simulator.
        """
        plan, subs, rules = self.next_rules()
        converged = []
        fabric = self.fabric
        fabric.push_desired(rules, plan.classes, on_converged=converged.append)
        if on_pushed is not None:
            on_pushed(plan, rules)
        self.sim.run()
        fabric.network.reset_runtime_state()
        report = verify_deployment(
            Deployment(plan, subs, rules, fabric.network, dict(fabric.instances)),
            self.topo,
        )
        assert converged and fabric.converged and fabric.drift_count() == 0
        return plan, converged[0], report
