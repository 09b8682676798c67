"""Virtual network functions: types, instances, ClickOS, and policy chains.

Implements Table IV's VNF datasheets (firewall, proxy, NAT, IDS), the
rate-driven capacity/loss model of Fig. 6 (loss depends on packet *rate*,
not size), the ClickOS lightweight-VM distinction (30 ms boot/reconfigure),
and the standard policy chains of Sec. IX-A.
"""

from repro.vnf.chains import PolicyChain, STANDARD_CHAINS
from repro.vnf.clickos import ClickOSConfig, ClickOSImage, PASSIVE_MONITOR
from repro.vnf.instance import InstanceStats, VNFInstance
from repro.vnf.types import (
    DEFAULT_CATALOG,
    FIREWALL,
    IDS,
    NAT,
    NFType,
    NFTypeCatalog,
    PROXY,
)

__all__ = [
    "NFType",
    "NFTypeCatalog",
    "DEFAULT_CATALOG",
    "FIREWALL",
    "PROXY",
    "NAT",
    "IDS",
    "VNFInstance",
    "InstanceStats",
    "ClickOSImage",
    "ClickOSConfig",
    "PASSIVE_MONITOR",
    "PolicyChain",
    "STANDARD_CHAINS",
]
