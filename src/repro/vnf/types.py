"""VNF type datasheets — Table IV of the paper.

| Network Function | Cores | Capacity  | ClickOS |
|------------------|-------|-----------|---------|
| Firewall         | 4     | 900 Mbps  | yes     |
| Proxy            | 4     | 900 Mbps  | no      |
| NAT              | 2     | 900 Mbps  | yes     |
| IDS              | 8     | 600 Mbps  | no      |

Capacity in the ILP (Cap_n) is expressed in the same unit as class rates
(Mbps here); the packet-level experiments additionally use a pps capacity
derived from the prototype's measured 8.5 Kpps monitor knee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Sequence


@dataclass(frozen=True)
class NFType:
    """A network-function type and its resource datasheet.

    Attributes:
        name: canonical NF name (e.g. ``"firewall"``).
        cores: CPU cores one instance requires (R_n, 1-D resource vector).
        capacity_mbps: processing capacity of one instance (Cap_n).
        clickos: True when the NF runs as a lightweight ClickOS VM and can
            be booted/reconfigured in ~30 ms (fast-failover eligible);
            False for full VMs (proxy, IDS) that take seconds via OpenStack.
        capacity_pps: packet-rate capacity used by packet-level experiments.
        modifies_headers: True when the NF rewrites packet headers (NAT),
            which "makes sub-class classification invalid" downstream
            (Sec. X) and forces global sub-class IDs in the tag field.
        memory_gb: memory one instance requires (second dimension of R_n).
    """

    name: str
    cores: int
    capacity_mbps: float
    clickos: bool
    capacity_pps: float = 8500.0
    modifies_headers: bool = False
    memory_gb: float = 1.0

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"{self.name}: cores must be positive")
        if self.capacity_mbps <= 0 or self.capacity_pps <= 0:
            raise ValueError(f"{self.name}: capacities must be positive")
        if self.memory_gb <= 0:
            raise ValueError(f"{self.name}: memory_gb must be positive")

    def instances_for(self, rate_mbps: float) -> int:
        """Minimum instance count to carry ``rate_mbps`` (ceil division)."""
        if rate_mbps <= 0:
            return 0
        full, rem = divmod(rate_mbps, self.capacity_mbps)
        return int(full) + (1 if rem > 1e-9 else 0)


FIREWALL = NFType("firewall", cores=4, capacity_mbps=900.0, clickos=True, memory_gb=2.0)
PROXY = NFType("proxy", cores=4, capacity_mbps=900.0, clickos=False, memory_gb=4.0)
NAT = NFType(
    "nat", cores=2, capacity_mbps=900.0, clickos=True,
    modifies_headers=True, memory_gb=1.0,
)
IDS = NFType("ids", cores=8, capacity_mbps=600.0, clickos=False, memory_gb=8.0)


class NFTypeCatalog:
    """A registry of NF types, keyed by name."""

    def __init__(self, types: Sequence[NFType]) -> None:
        self._types: Dict[str, NFType] = {}
        for t in types:
            if t.name in self._types:
                raise ValueError(f"duplicate NF type {t.name!r}")
            self._types[t.name] = t

    def __contains__(self, name: str) -> bool:
        return name in self._types

    def __iter__(self) -> Iterator[NFType]:
        return iter(self._types.values())

    def __len__(self) -> int:
        return len(self._types)

    def get(self, name: str) -> NFType:
        try:
            return self._types[name]
        except KeyError:
            raise KeyError(
                f"unknown NF type {name!r}; known: {sorted(self._types)}"
            ) from None


#: The Table IV catalog used throughout the evaluation.
DEFAULT_CATALOG = NFTypeCatalog([FIREWALL, PROXY, NAT, IDS])
