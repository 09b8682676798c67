"""The Resource Orchestrator — APPLE's middleware between control plane and VMs.

Sec. III: "It allocates sufficient resources and launches VNF instances
according to the result of the Optimization Engine.  In addition, it
monitors the available resource on APPLE hosts and reports this information
to the Optimization Engine."

Two launch paths exist, with very different latency (Sec. VIII):

* **slow path** — boot a fresh VM through OpenStack: ~4.2 s for ClickOS
  (dominated by networking orchestration), followed by Step 9
  configuration;
* **fast path** — reconfigure an idle, pre-booted ClickOS VM: ~30 ms.
  This is what makes fast failover (Sec. VI) viable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cloud.host import AppleHost, HostResourceError
from repro.cloud.hypervisor import VM, XenHypervisor
from repro.cloud.opendaylight import OpenDaylight
from repro.cloud.openstack import BootTimeline, OpenStack
from repro.sim.kernel import Simulator
from repro.topology.graph import Topology
from repro.vnf.clickos import (
    CLICKOS_RECONFIGURE_SECONDS,
    ClickOSConfig,
    ROLE_CONFIGS,
)
from repro.vnf.instance import VNFInstance
from repro.vnf.types import NFType

#: Configuring a freshly booted full VM with generic tools (Step 9 for
#: non-ClickOS images), seconds.
FULL_VM_CONFIGURE_SECONDS = 2.0


@dataclass
class LaunchRequest:
    """A pending instance launch and its completion bookkeeping."""

    nf_type: NFType
    switch: str
    fast: bool
    requested_at: float
    instance: Optional[VNFInstance] = None
    ready_at: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        if self.ready_at is None:
            return None
        return self.ready_at - self.requested_at


class ResourceOrchestrator:
    """Manages APPLE hosts, launches/retires VNF instances, reports A_v.

    Args:
        sim: shared simulator.
        topo: topology whose ``hosts`` map defines where APPLE hosts exist
            and how many cores each offers.
        spare_clickos: idle ClickOS VMs pre-booted per host for the fast
            path (each idles on a nominal 1 core until configured).
    """

    def __init__(self, sim: Simulator, topo: Topology, spare_clickos: int = 0) -> None:
        self.sim = sim
        self.topo = topo
        self.odl = OpenDaylight(sim)
        self.hosts: Dict[str, AppleHost] = {}
        self.hypervisors: Dict[str, XenHypervisor] = {}
        self.openstacks: Dict[str, OpenStack] = {}
        self._spares: Dict[str, List[VM]] = {}
        self._ids = itertools.count()
        self.launches: List[LaunchRequest] = []

        for switch, spec in topo.hosts.items():
            host = AppleHost(f"host-{switch}", switch, total_cores=spec.cores)
            hyp = XenHypervisor(sim, name=f"xen-{switch}")
            self.hosts[switch] = host
            self.hypervisors[switch] = hyp
            self.openstacks[switch] = OpenStack(sim, self.odl, hyp)
            self._spares[switch] = []
            for _ in range(spare_clickos):
                self._preboot_spare(switch)

    # ------------------------------------------------------------------
    # Resource reporting (polled by the Optimization Engine)
    # ------------------------------------------------------------------
    def available_resources(self) -> Dict[str, int]:
        """A_v: free cores per switch with an APPLE host."""
        return {s: h.free_cores for s, h in self.hosts.items()}

    def host_at(self, switch: str) -> AppleHost:
        try:
            return self.hosts[switch]
        except KeyError:
            raise KeyError(f"no APPLE host at switch {switch!r}") from None

    # ------------------------------------------------------------------
    # Launch paths
    # ------------------------------------------------------------------
    def launch_instance(
        self,
        nf_type: NFType,
        switch: str,
        on_ready: Optional[Callable[[VNFInstance], None]] = None,
        fast: bool = False,
    ) -> LaunchRequest:
        """Launch one instance of ``nf_type`` at ``switch``.

        ``fast=True`` uses the reconfigure path when a spare ClickOS VM is
        available at the host (only valid for ClickOS-capable NF types);
        otherwise falls back to the slow OpenStack path.

        Raises:
            HostResourceError: not enough free cores at the host.
            KeyError: no APPLE host at the switch.
        """
        host = self.host_at(switch)
        if not host.can_fit(nf_type):
            raise HostResourceError(
                f"switch {switch!r}: {nf_type.name} needs {nf_type.cores} cores, "
                f"{host.free_cores} free"
            )
        req = LaunchRequest(nf_type, switch, fast, requested_at=self.sim.now)
        self.launches.append(req)

        use_fast = fast and nf_type.clickos and bool(self._spares[switch])
        if use_fast:
            self._launch_fast(req, host, on_ready)
        else:
            self._launch_slow(req, host, on_ready)
        return req

    def _make_instance(self, req: LaunchRequest, host: AppleHost) -> VNFInstance:
        instance = VNFInstance(
            instance_id=f"{req.nf_type.name}-{next(self._ids)}@{req.switch}",
            nf_type=req.nf_type,
            switch=req.switch,
            sim=self.sim,
        )
        host.allocate(instance)
        return instance

    def _finish(
        self,
        req: LaunchRequest,
        instance: VNFInstance,
        on_ready: Optional[Callable[[VNFInstance], None]],
    ) -> None:
        req.instance = instance
        req.ready_at = self.sim.now
        if on_ready is not None:
            on_ready(instance)

    def _launch_fast(
        self,
        req: LaunchRequest,
        host: AppleHost,
        on_ready: Optional[Callable[[VNFInstance], None]],
    ) -> None:
        spare = self._spares[req.switch].pop()
        config = ROLE_CONFIGS.get(req.nf_type.name, ClickOSConfig(role=req.nf_type.name))
        assert spare.image is not None
        cost = spare.image.reconfigure(config)

        def ready() -> None:
            instance = self._make_instance(req, host)
            self._finish(req, instance, on_ready)

        self.sim.schedule(cost, ready)

    def _launch_slow(
        self,
        req: LaunchRequest,
        host: AppleHost,
        on_ready: Optional[Callable[[VNFInstance], None]],
    ) -> None:
        stack = self.openstacks[req.switch]
        config = (
            ROLE_CONFIGS.get(req.nf_type.name, ClickOSConfig(role=req.nf_type.name))
            if req.nf_type.clickos
            else None
        )

        def booted(vm: VM, timeline: BootTimeline) -> None:
            # Step 9: configure the guest into the desired VNF.
            cost = (
                CLICKOS_RECONFIGURE_SECONDS
                if req.nf_type.clickos
                else FULL_VM_CONFIGURE_SECONDS
            )
            self.sim.schedule(cost, configured)

        def configured() -> None:
            instance = self._make_instance(req, host)
            self._finish(req, instance, on_ready)

        stack.boot_vm(
            cores=req.nf_type.cores,
            clickos=req.nf_type.clickos,
            vswitch=f"ovs-{req.switch}",
            on_running=booted,
            config=config,
        )

    # ------------------------------------------------------------------
    # Spare pool and teardown
    # ------------------------------------------------------------------
    def _preboot_spare(self, switch: str) -> None:
        hyp = self.hypervisors[switch]
        vm = hyp.define_domain(cores=1, clickos=True)
        hyp.attach_bridge(vm)
        hyp.boot(vm, lambda v: self._spares[switch].append(v))

    def spare_count(self, switch: str) -> int:
        """Idle pre-booted ClickOS VMs at a switch's host."""
        return len(self._spares.get(switch, []))
