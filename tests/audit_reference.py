"""The deployment audit as first written: the oracle of its rewrite.

A copy of ``verify_deployment`` and of the hop-by-hop walk under it
(``DataPlaneNetwork.walk_reference`` → ``PhysicalSwitch.process`` →
``TcamTable.lookup`` → ``VSwitch.process``) as they stood before the
realisation stages were rewritten for speed.  It shares no code with them:
the TCAM lookup is a plain priority scan over the installed entries, and
every counter the walk writes (switch, table, vSwitch, ledger) is written
here.  Instance admission is the instances' own ``consume``.
``tests/test_audit_equivalence.py`` runs it next to the program on twin
deployments and compares reports and counters.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.verify import VerificationReport, Violation
from repro.dataplane.network import DataPlaneNetwork, DeliveryRecord
from repro.dataplane.packet import FIN, Packet
from repro.dataplane.tcam import ActionKind, TcamEntry

MAX_HOPS = 1024


def entry_matches(
    entry: TcamEntry, class_id: Optional[str], tag: str, flow_hash: float
) -> bool:
    if entry.host_tag_is is not None and tag != entry.host_tag_is:
        return False
    if entry.class_id is not None and entry.class_id != class_id:
        return False
    if entry.hash_range is not None:
        lo, hi = entry.hash_range
        if not lo <= flow_hash < hi:
            return False
    return True


def switch_process(network: DataPlaneNetwork, name: str, packet: Packet) -> str:
    """Table III at one switch: "to-host", "forward" or "drop"."""
    switch = network.switches[name]
    switch.packets_seen += 1
    packet.visit("switch", name)
    table = switch.table
    table.lookup_count += 1
    tag = packet.host_tag if packet.host_tag is not None else "EMPTY"
    entry = None
    for candidate in table.entries():
        if entry_matches(candidate, packet.class_id, tag, packet.flow_hash):
            entry = candidate
            break
    if entry is None:
        table.miss_count += 1
        return "forward"
    action = entry.action
    if action.kind is ActionKind.FORWARD_TO_HOST:
        return "to-host"
    if action.kind is ActionKind.TAG_SUBCLASS_AND_FORWARD_TO_HOST:
        packet.subclass_tag = action.subclass_id
        return "to-host"
    if action.kind is ActionKind.TAG_SUBCLASS_AND_HOST:
        packet.subclass_tag = action.subclass_id
        packet.host_tag = action.next_host
        return "forward"
    if action.kind is ActionKind.GOTO_NEXT_TABLE:
        return "forward"
    return "drop"


def vswitch_process(
    network: DataPlaneNetwork, name: str, packet: Packet, now: float
) -> bool:
    """The host's instance sequence; False when an instance refuses."""
    vsw = network.vswitches[name]
    vsw.packets_in += 1
    packet.visit("vswitch", f"ovs-{name}")
    key = ("uplink", packet.class_id, packet.subclass_tag)
    rule = vsw.installed_rules().get(key)
    if rule is None:
        raise KeyError(f"vSwitch at {name!r}: no rule for {key!r}")
    for iid in rule.instance_ids:
        if not vsw._instances[iid].consume(packet.size_bytes, now):
            vsw.packets_dropped += 1
            return False
        packet.visit("vnf", iid)
    packet.host_tag = rule.exit_host_tag
    return True


def record(network: DataPlaneNetwork, packet: Packet, delivered: bool, dropped_at):
    result = DeliveryRecord(packet, delivered, dropped_at)
    if delivered:
        network.delivered_count += 1
        if packet.host_tag != FIN:
            network.violation_count += 1
    else:
        network.dropped_count += 1
    network.recent_records.append(result)
    return result


def reference_walk(
    network: DataPlaneNetwork, packet: Packet, now: float = 0.0
) -> DeliveryRecord:
    """``walk_reference`` as first written."""
    if now - now != 0.0:
        raise ValueError(f"now must be finite, got {now}")
    path = network.class_paths.get(packet.class_id)
    if path is None:
        raise KeyError(f"class {packet.class_id!r} has no registered path")
    if path[0] != packet.src or path[-1] != packet.dst:
        raise ValueError("src/dst disagree with class path")
    hops = 0
    for i, name in enumerate(path):
        if hops > MAX_HOPS:
            raise RuntimeError("hop limit exceeded (loop?)")
        hops += 1
        if network.failed_links and i:
            prev = path[i - 1]
            key = (prev, name) if prev <= name else (name, prev)
            if key in network.failed_links:
                return record(network, packet, False, prev)
        decision = switch_process(network, name, packet)
        if decision == "to-host":
            if not vswitch_process(network, name, packet, now):
                return record(network, packet, False, name)
            if packet.host_tag == name:
                raise RuntimeError(
                    f"packet re-tagged for the host it just left ({name})"
                )
        elif decision == "drop":
            return record(network, packet, False, name)
    return record(network, packet, True, None)


def installed_cuts(
    network: DataPlaneNetwork,
) -> Tuple[Dict[str, Set[float]], Dict[str, Set[float]]]:
    own: Dict[str, Set[float]] = {}
    wild: Dict[str, Set[float]] = {}
    paths = network.class_paths
    for name, switch in network.switches.items():
        for entry in switch.table.entries():
            if entry.hash_range is None:
                continue
            interior = [b for b in entry.hash_range if 0.0 < b < 1.0]
            if not interior:
                continue
            if entry.class_id is None:
                wild.setdefault(name, set()).update(interior)
            elif name in paths.get(entry.class_id, ()):
                own.setdefault(entry.class_id, set()).update(interior)
    return own, wild


def cell_probes(lo: float, hi: float, cuts: List[float]) -> Iterator[float]:
    edges = [lo, *cuts[bisect_right(cuts, lo) : bisect_left(cuts, hi)], hi]
    for left, right in zip(edges, edges[1:]):
        mid = left + (right - left) / 2
        yield mid if left <= mid < right else left


def reference_verify(
    deployment, topo, expect_no_loss: bool = True
) -> VerificationReport:
    """``verify_deployment`` as first written, walking ``reference_walk``."""
    report = VerificationReport()
    network = deployment.network
    own, wild = installed_cuts(network)
    for cls in deployment.plan.classes:
        class_id = cls.class_id
        chain = cls.chain.names
        bounds = own.get(class_id, set())
        if wild:
            path = network.class_paths.get(class_id, ())
            bounds = bounds.union(*(wild[s] for s in path if s in wild))
        cuts = sorted(bounds)
        for sub in deployment.subclass_plan.subclasses(class_id):
            lo, hi = sub.hash_range
            if hi <= lo:
                continue
            for h in cell_probes(lo, hi, cuts):
                report.probes_sent += 1
                packet = Packet(
                    class_id=class_id, flow_hash=h, src=cls.src, dst=cls.dst
                )
                result = reference_walk(network, packet)
                if not result.delivered:
                    if expect_no_loss:
                        report.violations.append(
                            Violation(
                                "delivery",
                                class_id,
                                f"probe at hash {h:.6f} dropped at {result.dropped_at}",
                            )
                        )
                    continue
                report.probes_delivered += 1
                visited = [v.split("[")[0] for v in packet.vnfs_visited()]
                switches = packet.switches_visited()
                if tuple(visited) != chain:
                    report.violations.append(
                        Violation(
                            "policy",
                            class_id,
                            f"hash {h:.6f}: traversed {visited}, policy "
                            f"requires {list(chain)}",
                        )
                    )
                if tuple(switches) != cls.path:
                    report.violations.append(
                        Violation(
                            "interference",
                            class_id,
                            f"hash {h:.6f}: path {switches} "
                            f"differs from routing path {list(cls.path)}",
                        )
                    )
    cores_used: Dict[str, int] = {}
    seen_ids = set()
    for key, inst in deployment.instances.items():
        if id(inst) in seen_ids:
            report.violations.append(
                Violation("isolation", "-", f"instance object shared for {key}")
            )
        seen_ids.add(id(inst))
        cores_used[inst.switch] = cores_used.get(inst.switch, 0) + inst.nf_type.cores
    for switch, used in cores_used.items():
        budget = topo.host_cores(switch)
        if used > budget:
            report.violations.append(
                Violation(
                    "isolation",
                    "-",
                    f"switch {switch}: {used} cores allocated, budget {budget}",
                )
            )
    return report
