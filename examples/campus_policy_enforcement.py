#!/usr/bin/env python3
"""Campus network with operator-written prefix policies (Sec. IV-A flow).

Demonstrates the *classification* side of APPLE: operator policies are
written as 5-tuple match rules, atomic-predicate analysis [44][42] derives
the equivalence classes, and the per-class chains drive placement.

Scenario (a campus like Internet2's):

* all HTTP traffic:             firewall -> ids -> proxy
* traffic from the dorm prefix: nat -> firewall
* traffic to the datacenter:    firewall -> ids
* everything else:              firewall

Usage::

    python examples/campus_policy_enforcement.py
"""

from repro import AppleController, internet2
from repro.classify.atomic import compute_atomic_predicates
from repro.classify.fields import DEFAULT_FIELDS
from repro.classify.rules import MatchRule
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import PolicyChain

# Operator policy table: (rule, chain), first match wins.
POLICIES = [
    (MatchRule(proto="tcp", dst_port=(80, 80)),
     PolicyChain(["firewall", "ids", "proxy"])),
    (MatchRule(src="10.20.0.0/16"),
     PolicyChain(["nat", "firewall"])),
    (MatchRule(dst="10.99.0.0/16"),
     PolicyChain(["firewall", "ids"])),
    (MatchRule(),
     PolicyChain(["firewall"])),
]


def analyse_policies() -> None:
    """Atomic predicates: how many equivalence classes do the rules induce?"""
    predicates = [rule.to_predicate() for rule, _ in POLICIES]
    atoms = compute_atomic_predicates(DEFAULT_FIELDS, predicates)
    print(f"{len(POLICIES)} policy rules -> {atoms.num_atoms} atomic predicates")
    assert atoms.verify_partition()

    samples = {
        "HTTP from campus": {"src_ip": 0x0A100101, "proto": 6, "dst_port": 80},
        "dorm SSH": {"src_ip": 0x0A140101, "proto": 6, "dst_port": 22},
        "to datacenter": {"src_ip": 0x0A300101, "dst_ip": 0x0A630101},
        "other": {"src_ip": 0x0B000001, "dst_ip": 0x0C000001},
    }
    for label, header in samples.items():
        key = atoms.equivalence_key(header)
        first = min(key) if key else None
        chain = POLICIES[first][1] if first is not None else None
        print(f"   {label:16s} matches rules {sorted(key) or '[]'} -> "
              f"chain {' -> '.join(chain.names) if chain else '(none)'}")


def chain_for_pair(src: str, dst: str):
    """Per-pair policy: campus semantics mapped onto switch pairs.

    Pairs are deterministically mapped onto the four policy buckets so the
    placement sees the same chain mix the rule table would induce.
    """
    import zlib

    bucket = zlib.crc32(f"{src}>{dst}".encode()) % 4
    return [(POLICIES[bucket][1], 1.0)]


def main() -> None:
    print("== policy analysis via atomic predicates ==")
    analyse_policies()

    print("\n== placement under these policies ==")
    topo = internet2()
    controller = AppleController(topo, chain_for_pair, min_rate_mbps=1.0)
    matrix = gravity_matrix(topo, total_mbps=10_000.0, seed=3)
    deployment = controller.run(matrix)
    plan = deployment.plan
    print(f"{len(plan.classes)} classes -> {plan.total_instances()} instances "
          f"({plan.total_cores()} cores) in {plan.solve_seconds*1000:.0f} ms")

    by_nf = {}
    for (switch, nf), count in plan.quantities.items():
        by_nf[nf] = by_nf.get(nf, 0) + count
    for nf, count in sorted(by_nf.items()):
        print(f"   {nf:9s} x{count}")

    print("\nverifying enforcement per chain kind...")
    by_chain = {}
    for cls in plan.classes:
        by_chain.setdefault(cls.chain.names, []).append(cls)
    for chain_names, group in sorted(by_chain.items()):
        cls = group[0]
        record = controller.send_packet(cls.class_id, 0.5)
        visited = [v.split("[")[0] for v in record.packet.vnfs_visited()]
        status = "OK" if visited == list(chain_names) else "VIOLATION"
        print(f"   {' -> '.join(chain_names):30s} {len(group):3d} classes  {status}")


if __name__ == "__main__":
    main()
