"""Heartbeat/threshold failure detection, layered on cloud monitoring.

The detector models the orchestrator's monitoring plane (Fig. 1's
"monitors the available resource on APPLE hosts and reports"): every
:data:`HEARTBEAT_INTERVAL` seconds each monitored entity — VNF VM, APPLE
host, link — is expected to report.  A dead VM, crashed host, or downed
link reports nothing; after :data:`MISS_THRESHOLD` consecutive silent
ticks the entity is declared failed (once), giving the detection-latency
model

    detection latency ≈ HEARTBEAT_INTERVAL × MISS_THRESHOLD

Health thresholds ride on the same heartbeats: a VM whose reported
effective capacity drops below :data:`DEGRADED_CAPACITY_RATIO` × nominal
for :data:`MISS_THRESHOLD` consecutive reports is declared degraded (a
brownout).  Link recovery (a flap lifting) is detected symmetrically when
a suspect link resumes beating, so the controller can converge back onto
primary paths.

The suspicion book-keeping is :class:`repro.cloud.monitoring.LivenessTracker`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.chaos.schedule import LINK_SEP
from repro.cloud.monitoring import LivenessTracker
from repro.sim.kernel import Timer
from repro.topology.graph import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.tenancy.worker import TenantWorker


#: Seconds between heartbeat rounds.
HEARTBEAT_INTERVAL = 0.5
#: Consecutive silent (or unhealthy) reports before a verdict.
MISS_THRESHOLD = 2
#: A VM reporting less than this fraction of nominal capacity is (after
#: MISS_THRESHOLD consecutive reports) declared degraded.
DEGRADED_CAPACITY_RATIO = 0.9


@dataclass(frozen=True)
class Detection:
    """One detector verdict."""

    time: float
    kind: str  # "instance" | "host" | "link" | "brownout" | "link-restored"
    target: str


class FailureDetector:
    """Periodic heartbeat scan over the live deployment.

    Args:
        worker: the tenant worker owning the monitored deployment; its
            orchestrator's topology is the ground truth.
        on_detect: callback receiving each tick's fresh detections
            (recovery's entry point).
    """

    def __init__(
        self,
        worker: "TenantWorker",
        on_detect: Callable[[List[Detection]], None],
    ) -> None:
        self.sim = worker.orch.sim
        self.worker = worker
        self.on_detect = on_detect
        self._instances = LivenessTracker(MISS_THRESHOLD)
        self._hosts = LivenessTracker(MISS_THRESHOLD)
        self._links = LivenessTracker(MISS_THRESHOLD)
        self._health = LivenessTracker(MISS_THRESHOLD)
        self.detections: List[Detection] = []
        self._timer: Optional[Timer] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._timer = self.sim.every(HEARTBEAT_INTERVAL, self.tick)

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ------------------------------------------------------------------
    def tick(self) -> List[Detection]:
        """One heartbeat round; returns (and dispatches) fresh detections."""
        now = self.sim.now
        topo = self.worker.orch.topo
        deployment = self.worker.deployment
        found: List[Detection] = []

        for key in sorted(deployment.instances):
            inst = deployment.instances[key]
            alive = inst.running and not topo.host_failed(inst.switch)
            if alive:
                self._instances.beat(key, now)
                # The heartbeat carries a capacity self-report.
                nominal = inst.nf_type.capacity_mbps
                if inst.effective_capacity_mbps < DEGRADED_CAPACITY_RATIO * nominal:
                    if self._health.miss(key):
                        found.append(Detection(now, "brownout", key))
                else:
                    self._health.beat(key, now)
            elif self._instances.miss(key):
                found.append(Detection(now, "instance", key))

        for switch in sorted(topo.hosts):
            if topo.host_failed(switch):
                if self._hosts.miss(switch):
                    found.append(Detection(now, "host", switch))
            else:
                self._hosts.beat(switch, now)

        for link in topo.links:
            u, v = Topology.link_key(link.u, link.v)
            key = f"{u}{LINK_SEP}{v}"
            if topo.link_failed(u, v):
                if self._links.miss(key):
                    found.append(Detection(now, "link", key))
            else:
                if self._links.is_suspect(key):
                    # The flap lifted: converge back onto primary paths.
                    found.append(Detection(now, "link-restored", key))
                self._links.beat(key, now)

        if found:
            self.detections.extend(found)
            self.on_detect(found)
        return found
