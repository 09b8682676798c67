#!/usr/bin/env python3
"""Online flow admission on top of a global plan, then consolidation.

Shows the two placement time-scales working together (Sec. IV + Sec. VI):

1. the Optimization Engine computes a global plan for the known traffic;
2. new flows arrive one by one and are admitted *online* — riding spare
   capacity where possible, launching instances only when needed, never
   moving existing assignments (installed rules stay valid);
3. the periodic re-optimization loop then recomputes a global plan for the
   grown traffic, consolidating the online placer's incremental decisions.

Usage::

    python examples/online_admission.py
"""

from repro.core.controller import AppleController
from repro.core.online import OnlinePlacementError, OnlinePlacer
from repro.core.placement import diff_plans
from repro.topology.datasets import geant
from repro.traffic.classes import hashed_assignment, TrafficClass
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import ChainGenerator, STANDARD_CHAINS


def main() -> None:
    topo = geant()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    base_matrix = gravity_matrix(topo, 10_000.0, seed=2)
    base_plan = controller.compute_placement(base_matrix)
    print(f"global plan: {len(controller.classes)} classes -> "
          f"{base_plan.total_instances()} instances "
          f"({base_plan.total_cores()} cores)")

    placer = OnlinePlacer(
        controller.available_cores(), controller.catalog, base_plan=base_plan
    )
    gen = ChainGenerator(min_len=1, max_len=3, seed=7)
    switches = topo.switches
    arrivals = []
    for k in range(60):
        src = switches[k % len(switches)]
        dst = switches[(k * 7 + 3) % len(switches)]
        if src == dst:
            continue
        path = controller.router.path(src, dst)
        arrivals.append(
            TrafficClass(
                f"new-{k}", src, dst, path, gen.generate(), 250.0 + (k % 5) * 150
            )
        )

    print(f"\nadmitting {len(arrivals)} new flows online...")
    rode_spare = launched = rejected = 0
    for cls in arrivals:
        try:
            decision = placer.admit(cls)
        except OnlinePlacementError:
            rejected += 1
            continue
        if decision.new_instances:
            launched += len(decision.new_instances)
        else:
            rode_spare += 1
    online_plan = placer.to_plan()
    print(f"   {rode_spare} flows rode existing spare capacity")
    print(f"   {launched} new instances launched (30 ms ClickOS "
          f"reconfigures where possible)")
    print(f"   {rejected} rejected (would need global re-optimisation)")
    print(f"   deployment now: {online_plan.total_instances()} instances")

    print("\nperiodic re-optimization consolidates the grown traffic...")
    all_classes = list(base_plan.classes) + placer.to_plan().classes
    consolidated = controller.engine.place(
        all_classes, controller.available_cores()
    )
    migration = diff_plans(online_plan, consolidated)
    delta = online_plan.total_instances() - consolidated.total_instances()
    print(f"   global re-solve: {consolidated.total_instances()} instances "
          f"({consolidated.total_cores()} cores) in "
          f"{consolidated.solve_seconds*1000:.0f} ms")
    print(f"   migration vs online state: launch {len(migration.added)}, "
          f"retire {len(migration.retired)}")
    if delta > 0:
        print(f"   {delta} instances reclaimed by consolidating online "
              f"decisions globally")
    else:
        print("   online admission was already near-optimal for this load")


if __name__ == "__main__":
    main()
