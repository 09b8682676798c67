#!/usr/bin/env python3
"""Quickstart: place VNFs on Internet2 and push packets through the result.

Runs the whole APPLE pipeline in ~a second:

1. build a gravity-model traffic matrix for the Internet2 backbone;
2. aggregate demands into traffic classes (path + policy chain);
3. run the Optimization Engine (ILP via LP relaxation + rounding);
4. realise the plan as sub-classes and data-plane rules;
5. inject packets and verify the three APPLE properties by observation.

Usage::

    python examples/quickstart.py
"""

from repro import AppleController, internet2, STANDARD_CHAINS
from repro.core.baselines import ingress_placement
from repro.traffic.gravity import gravity_matrix
from repro.traffic.classes import hashed_assignment


def main() -> None:
    topo = internet2()
    print(f"topology: {topo.name} ({topo.num_switches} switches, "
          f"{topo.num_links} links, 64 cores per APPLE host)")

    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    matrix = gravity_matrix(topo, total_mbps=12_000.0, seed=7)
    print(f"traffic: {matrix.total():.0f} Mbps aggregate demand")

    plan = controller.compute_placement(matrix)
    print(f"\nOptimization Engine: {len(controller.classes)} classes -> "
          f"{plan.total_instances()} VNF instances "
          f"({plan.total_cores()} cores) in {plan.solve_seconds*1000:.0f} ms")
    print(f"LP bound {plan.lp_bound:.1f}; constraint check: "
          f"{plan.validate(controller.available_cores()) or 'all of Eq. 2-8 hold'}")

    ingress = ingress_placement(plan.classes)
    print(f"ingress strawman would burn {ingress.total_cores()} cores "
          f"({ingress.total_cores() / plan.total_cores():.1f}x APPLE)")

    deployment = controller.deploy(plan)
    print(f"\ndeployed: {deployment.subclass_plan.total_subclasses()} sub-classes, "
          f"{deployment.network.total_tcam_usage()} TCAM entries, "
          f"{len(deployment.instances)} VM instances")

    print("\npushing packets through every class...")
    ok = 0
    for cls in plan.classes:
        for flow_hash in (0.1, 0.5, 0.9):
            record = controller.send_packet(cls.class_id, flow_hash)
            assert record.delivered, "packet dropped!"
            assert record.policy_satisfied, "policy chain incomplete!"
            assert tuple(record.packet.switches_visited()) == cls.path, \
                "forwarding path changed — interference!"
            ok += 1
    print(f"{ok} packets delivered; every one traversed its full policy "
          f"chain in order, on its original routing path.")

    sample = plan.classes[0]
    record = controller.send_packet(sample.class_id, 0.5)
    print(f"\nexample walk for class {sample.class_id} "
          f"(chain {' -> '.join(sample.chain.names)}):")
    for kind, name in record.packet.trace:
        print(f"   {kind:8s} {name}")


if __name__ == "__main__":
    main()
