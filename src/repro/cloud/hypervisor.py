"""Xen-like hypervisor: VM lifecycle with realistic boot latencies.

Models the bottom of the Fig. 5 stack — domain creation via libvirt
(Step 6), image fetch (Step 7) and the guest boot itself.  A raw ClickOS
domain boots in ~30 ms [28]; a full VM (proxy/IDS images) takes seconds.
The multi-second end-to-end time of the prototype comes from the
*orchestration* above this layer (see :mod:`repro.cloud.openstack`).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.sim.kernel import Simulator
from repro.vnf.clickos import CLICKOS_BOOT_SECONDS, ClickOSConfig, ClickOSImage

#: libvirt domain definition + device model setup (Step 6), seconds.
LIBVIRT_CREATE_SECONDS = 0.9
#: Fetching the (tiny) ClickOS image from Glance (Step 7), seconds.
IMAGE_FETCH_SECONDS = 0.17
#: A conventional full-VM guest boot (non-ClickOS), seconds.
FULL_VM_BOOT_SECONDS = 8.0


class VmState(enum.Enum):
    """Lifecycle states of a domain."""

    REQUESTED = "requested"
    DEFINED = "defined"
    BOOTING = "booting"
    RUNNING = "running"
    DESTROYED = "destroyed"


@dataclass
class VM:
    """A hypervisor domain.

    Attributes:
        vm_id: unique domain identifier.
        cores: vCPUs pinned to the domain (isolation: dedicated cores).
        clickos: whether the guest is a ClickOS unikernel.
        image: the attached ClickOS image when ``clickos`` is True.
    """

    vm_id: str
    cores: int
    clickos: bool
    state: VmState = VmState.REQUESTED
    image: Optional[ClickOSImage] = None
    boot_completed_at: Optional[float] = None
    bridge_attached: bool = False


class XenHypervisor:
    """The per-host hypervisor managing domains.

    All operations are asynchronous on the shared simulator; completion is
    reported through callbacks, mirroring how OpenStack polls libvirt.
    """

    def __init__(self, sim: Simulator, name: str = "xen0") -> None:
        self.sim = sim
        self.name = name
        self.domains: Dict[str, VM] = {}
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    def define_domain(self, cores: int, clickos: bool) -> VM:
        """Create the domain definition (libvirt XML); instantaneous."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        vm = VM(vm_id=f"{self.name}-dom{next(self._ids)}", cores=cores, clickos=clickos)
        vm.state = VmState.DEFINED
        self.domains[vm.vm_id] = vm
        return vm

    def attach_bridge(self, vm: VM) -> float:
        """Add the Linux bridge between the Xen VIF and Open vSwitch (Step 4).

        Xen VMs do not attach to Open vSwitch directly; the prototype
        inserts a Linux bridge.  Returns the time cost (seconds).
        """
        vm.bridge_attached = True
        return 0.05

    def boot(
        self,
        vm: VM,
        on_running: Callable[[VM], None],
        config: Optional[ClickOSConfig] = None,
    ) -> None:
        """Boot a defined domain; ``on_running`` fires when the guest is up.

        ClickOS domains boot in ~30 ms and come up with ``config`` attached;
        full VMs take :data:`FULL_VM_BOOT_SECONDS`.
        """
        if vm.state is not VmState.DEFINED:
            raise ValueError(f"cannot boot VM in state {vm.state}")
        if not vm.bridge_attached:
            raise ValueError(f"VM {vm.vm_id}: bridge must be attached before boot")
        vm.state = VmState.BOOTING
        boot_time = CLICKOS_BOOT_SECONDS if vm.clickos else FULL_VM_BOOT_SECONDS

        def finish() -> None:
            vm.state = VmState.RUNNING
            vm.boot_completed_at = self.sim.now
            if vm.clickos:
                vm.image = ClickOSImage(f"{vm.vm_id}-img", config)
            on_running(vm)

        self.sim.schedule(boot_time, finish)
