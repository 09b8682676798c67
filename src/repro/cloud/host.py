"""APPLE hosts: the physical nodes that run VNF instances.

Each APPLE host hangs off one SDN switch, runs a vSwitch, and hosts VNF
VMs.  The host tracks core allocation (the A_v resource the Optimization
Engine polls via the Resource Orchestrator) and raises when a placement
would oversubscribe it — resource isolation means cores are dedicated,
never shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.vnf.instance import VNFInstance
from repro.vnf.types import NFType


class HostResourceError(RuntimeError):
    """Raised when an allocation exceeds the host's free cores."""


class AppleHost:
    """A physical node attached to a switch, hosting VNF VMs.

    Args:
        host_id: unique identifier.
        switch: the SDN switch this host connects to.
        total_cores: CPU cores available for VNF instances (64 in the
            paper's simulations).
    """

    def __init__(self, host_id: str, switch: str, total_cores: int = 64) -> None:
        if total_cores <= 0:
            raise ValueError("total_cores must be positive")
        self.host_id = host_id
        self.switch = switch
        self.total_cores = total_cores
        self._allocations: Dict[str, int] = {}  # instance_id -> cores
        self.instances: Dict[str, VNFInstance] = {}

    # ------------------------------------------------------------------
    @property
    def allocated_cores(self) -> int:
        return sum(self._allocations.values())

    @property
    def free_cores(self) -> int:
        """The A_v value reported to the Optimization Engine."""
        return self.total_cores - self.allocated_cores

    def can_fit(self, nf_type: NFType, count: int = 1) -> bool:
        """Whether ``count`` instances of ``nf_type`` fit in free cores."""
        return nf_type.cores * count <= self.free_cores

    # ------------------------------------------------------------------
    def allocate(self, instance: VNFInstance) -> None:
        """Reserve cores for ``instance`` and register it.

        Raises:
            HostResourceError: if the instance does not fit — isolation
                forbids oversubscription.
        """
        if instance.instance_id in self._allocations:
            raise ValueError(f"instance {instance.instance_id!r} already on host")
        need = instance.nf_type.cores
        if need > self.free_cores:
            raise HostResourceError(
                f"host {self.host_id!r}: need {need} cores, "
                f"only {self.free_cores} free"
            )
        self._allocations[instance.instance_id] = need
        self.instances[instance.instance_id] = instance

    def __repr__(self) -> str:
        return (
            f"AppleHost({self.host_id!r}, switch={self.switch!r}, "
            f"cores={self.allocated_cores}/{self.total_cores})"
        )
