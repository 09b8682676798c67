"""Deployment verification: prove the three properties by systematic probing.

Table I's properties are behavioural claims; this module checks them on a
live deployment the way an operator (or the AP Verifier the paper builds
on) would — by exhaustively probing the data plane:

* for every class and every sub-class, walk probes at the sub-class's
  hash midpoint and at both interval boundaries — hop by hop through
  :meth:`DataPlaneNetwork.walk_reference`, never through the network's
  cache of resolved walks: an audit must not trust the cache it audits
  (a rule table rewritten behind its generation counter is exactly what
  the probes are there to catch);
* verify each delivered probe traversed its chain in order
  (**policy enforcement**), on the class's exact routing path
  (**interference freedom**);
* audit instance-to-host core accounting (**isolation**).

The result is a structured report rather than a pass/fail, so partial
deployments and injected faults show up with precise locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import obs
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


def _probe_hashes(lo: float, hi: float) -> List[float]:
    """Midpoint plus near-boundary points of a hash interval."""
    eps = min(1e-6, (hi - lo) / 4) or 1e-9
    points = [(lo + hi) / 2, lo, max(lo, hi - eps)]
    return sorted({min(max(p, 0.0), 1.0 - 1e-12) for p in points})


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
    plan = deployment.plan

    for cls in plan.classes:
        for sub in deployment.subclass_plan.subclasses(cls.class_id):
            lo, hi = sub.hash_range
            if hi <= lo:
                continue
            for h in _probe_hashes(lo, hi):
                report.probes_sent += 1
                packet = Packet(
                    class_id=cls.class_id, flow_hash=h, src=cls.src, dst=cls.dst
                )
                record = deployment.network.walk_reference(packet)
                if not record.delivered:
                    if expect_no_loss:
                        report.violations.append(
                            Violation(
                                "delivery",
                                cls.class_id,
                                f"probe at hash {h:.6f} dropped at "
                                f"{record.dropped_at}",
                            )
                        )
                    continue
                report.probes_delivered += 1
                visited = [v.split("[")[0] for v in packet.vnfs_visited()]
                if visited != list(cls.chain.names):
                    report.violations.append(
                        Violation(
                            "policy",
                            cls.class_id,
                            f"hash {h:.6f}: traversed {visited}, policy "
                            f"requires {list(cls.chain.names)}",
                        )
                    )
                if tuple(packet.switches_visited()) != cls.path:
                    report.violations.append(
                        Violation(
                            "interference",
                            cls.class_id,
                            f"hash {h:.6f}: path {packet.switches_visited()} "
                            f"differs from routing path {list(cls.path)}",
                        )
                    )

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
