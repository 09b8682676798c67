"""Deployment verification: prove the three properties, one probe per hash cell.

Table I's properties are behavioural claims; this module checks them on a
live deployment the way an operator (or the AP Verifier the paper builds
on) would — by exhaustively probing the data plane.  Everything Table III
does to a packet is piecewise-constant in its flow hash, so the audit
probes every *piece* rather than sample points:

* per class, cut ``[0, 1)`` at the interior hash-range bounds of every
  installed TCAM entry the class can match (its own and the
  ``class_id=None`` wildcards) on every switch of its registered path.
  The bounds are read from the tables' installed entries in one pass per
  audit, never from the network's cache of resolved walks: an audit must
  not trust the cache it audits (a rule table rewritten behind its
  generation counter is exactly what the probes are there to catch);
* split each sub-class's ``[lo, hi)`` at the cuts strictly inside it and
  walk **one** probe per resulting cell hop by hop through
  :meth:`DataPlaneNetwork.walk_reference`.  A correct deployment has one
  cell per sub-class; a mis-cut rule anywhere inside a sub-class's range
  makes a cell of its own and is probed;
* verify each delivered probe traversed its chain in order
  (**policy enforcement**), on the class's exact routing path
  (**interference freedom**) — :func:`probe_faults`, which the chaos
  probe loop shares;
* audit instance-to-host core accounting (**isolation**).

Why one probe proves its whole cell: every hop's match is a conjunction of
``lo <= h < hi`` comparisons whose bounds are all cuts, vSwitch dispatch is
keyed by (class, sub-class tag), and **nothing rewrites ``flow_hash`` in
flight** (``tests/test_verify_cells.py`` pins that on a NAT chain).  The
data plane's cache of resolved walks rests on the same assumption — one
plan per (class, hash interval), every packet of the interval replayed in
bulk (:mod:`repro.dataplane.network`).  A VNF that did rewrite the hash
would make the cells downstream of its host depend on the rewritten value:
the audit and the plans would both have to re-cut after that hop.

Probes are real packets on a live network: each is stamped ``now=0.0``,
counts in the delivery ledger and occupies the admission window of every
instance it crosses.  Audits repeated on one network without
:meth:`DataPlaneNetwork.reset_runtime_state` in between pile up in those
windows until probes are dropped (``benchmarks/pipeline/workloads.py``
resets before every audit for that reason); one probe per cell keeps that
footprint at a third of what three samples per sub-class left behind.

The result is a structured report rather than a pass/fail, so partial
deployments and injected faults show up with precise locations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import Packet
from repro.topology.graph import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.reconfigure import Deployment


@dataclass
class Violation:
    """One observed property violation."""

    kind: str  # "policy", "interference", "isolation", "delivery"
    class_id: str
    detail: str


@dataclass
class VerificationReport:
    """Outcome of a deployment audit."""

    probes_sent: int = 0
    probes_delivered: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATIONS"
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(self.by_kind().items()))
        return (
            f"{status}: {self.probes_delivered}/{self.probes_sent} probes "
            f"delivered{'; ' + kinds if kinds else ''}"
        )


def _installed_cuts(
    network: DataPlaneNetwork,
) -> Tuple[Dict[str, Set[float]], Dict[str, Set[float]]]:
    """Interior hash-range bounds of the installed entries, in one pass.

    Returns ``(own, wild)``: per class, the bounds of its own entries on
    the switches of its registered path; per switch, the bounds of the
    wildcard (``class_id=None``) entries, which cut every class crossing it.
    """
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


def _cell_probes(lo: float, hi: float, cuts: List[float]) -> List[float]:
    """One probe hash per cell of ``[lo, hi)`` split at the cuts inside it."""
    probes = []
    left = lo
    inside = cuts[bisect_right(cuts, lo) : bisect_left(cuts, hi)] if cuts else ()
    for right in (*inside, hi):
        mid = left + (right - left) / 2
        # A cell a few ulps wide: its midpoint may round onto the right
        # edge, which belongs to the next cell.
        probes.append(mid if left <= mid < right else left)
        left = right
    return probes


def probe_faults(
    packet: Packet, chain: Tuple[str, ...], path: Optional[Tuple[str, ...]]
) -> Tuple[Optional[List[str]], Optional[List[str]]]:
    """Chain-order and routing-path checks of one delivered probe.

    Returns ``(visited, switches)``: the VNF types the probe traversed if
    they are not exactly ``chain`` (a **policy** violation), and the
    switches it crossed if they are not exactly ``path`` (an
    **interference** violation; ``path=None`` skips the check).  Each is
    None when its check passes.
    """
    visited: List[str] = []
    switches: List[str] = []
    for kind, name in packet.trace:
        if kind == "switch":
            switches.append(name)
        elif kind == "vnf":
            visited.append(name.split("[")[0])
    return (
        visited if tuple(visited) != chain else None,
        switches if path is not None and tuple(switches) != path else None,
    )


def verify_deployment(
    deployment: Deployment,
    topo: Topology,
    expect_no_loss: bool = True,
) -> VerificationReport:
    """Audit a deployment; returns the structured report.

    Args:
        expect_no_loss: count dropped probes as delivery violations (set
            False when probing a deliberately overloaded deployment).
    """
    report = VerificationReport()
    violations = report.violations
    network = deployment.network
    walk = network.walk_reference
    subclasses = deployment.subclass_plan.subclasses
    own, wild = _installed_cuts(network)
    sent = delivered = 0

    for cls in deployment.plan.classes:
        class_id = cls.class_id
        chain = cls.chain.names
        src, dst, path = cls.src, cls.dst, cls.path
        bounds = own.get(class_id, ())
        if wild:
            # An unregistered class has no path to cut; its first probe raises.
            registered = network.class_paths.get(class_id, ())
            bounds = set(bounds).union(*(wild[s] for s in registered if s in wild))
        cuts = sorted(bounds)
        for sub in subclasses(class_id):
            lo, hi = sub.hash_range
            if hi <= lo:
                continue
            for h in _cell_probes(lo, hi, cuts):
                sent += 1
                packet = Packet(class_id, h, src, dst)
                record = walk(packet)
                if not record.delivered:
                    if expect_no_loss:
                        violations.append(
                            Violation(
                                "delivery",
                                class_id,
                                f"probe at hash {h:.6f} dropped at "
                                f"{record.dropped_at}",
                            )
                        )
                    continue
                delivered += 1
                visited, switches = probe_faults(packet, chain, path)
                if visited is not None:
                    violations.append(
                        Violation(
                            "policy",
                            class_id,
                            f"hash {h:.6f}: traversed {visited}, policy "
                            f"requires {list(chain)}",
                        )
                    )
                if switches is not None:
                    violations.append(
                        Violation(
                            "interference",
                            class_id,
                            f"hash {h:.6f}: path {switches} "
                            f"differs from routing path {list(path)}",
                        )
                    )
    report.probes_sent = sent
    report.probes_delivered = delivered

    # Isolation: distinct instance objects, host budgets respected.
    cores_used: Dict[str, int] = {}
    seen_ids = set()
    for key, inst in deployment.instances.items():
        if id(inst) in seen_ids:
            report.violations.append(
                Violation("isolation", "-", f"instance object shared for {key}")
            )
        seen_ids.add(id(inst))
        cores_used[inst.switch] = (
            cores_used.get(inst.switch, 0) + inst.nf_type.cores
        )
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

    if obs.REGISTRY.enabled:
        result = "ok" if report.ok else "violations"
        obs.metric("controller_verify_calls_total").labels(result=result).inc()
        obs.metric("controller_verify_probes_total").inc(report.probes_sent)
    return report
