"""ClickOS images and configurations (the lightweight-VM substrate).

ClickOS [28] runs Click modular-router configurations as tiny Xen VMs that
boot in ~30 ms and can be reconfigured in ~30 ms — the property APPLE's
fast failover exploits (Sec. VI, VIII-D).  This module models the image
(what OpenStack's Glance would store) and the Click configuration (what the
"customized tool described in [28]" pushes in Step 9 of Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Raw ClickOS boot time on bare Xen, per [28] (seconds).
CLICKOS_BOOT_SECONDS = 0.030
#: Reconfiguring a running ClickOS VM, measured in Sec. VIII-D (seconds).
CLICKOS_RECONFIGURE_SECONDS = 0.030


@dataclass(frozen=True)
class ClickOSConfig:
    """A Click configuration to be pushed into a ClickOS VM.

    Attributes:
        role: the NF the configuration implements (``"passive-monitor"``,
            ``"firewall"``, ``"nat"`` ...).
        elements: Click element graph rendered as text (informational; the
            simulator interprets only ``role``).
        parameters: role parameters, e.g. firewall rule count.
    """

    role: str
    elements: str = ""
    parameters: Tuple[Tuple[str, str], ...] = ()


#: The passive-monitor configuration used by the prototype experiments
#: (Fig. 6, Fig. 9): counts packets, forwards everything.
PASSIVE_MONITOR = ClickOSConfig(
    role="passive-monitor",
    elements="FromDevice(0) -> Counter -> ToDevice(1);",
)

FIREWALL_CONFIG = ClickOSConfig(
    role="firewall",
    elements="FromDevice(0) -> Classifier(...) -> IPFilter(...) -> ToDevice(1);",
)

NAT_CONFIG = ClickOSConfig(
    role="nat",
    elements="FromDevice(0) -> IPRewriter(...) -> ToDevice(1);",
)

ROLE_CONFIGS: Dict[str, ClickOSConfig] = {
    "passive-monitor": PASSIVE_MONITOR,
    "firewall": FIREWALL_CONFIG,
    "nat": NAT_CONFIG,
}


class ClickOSImage:
    """A bootable ClickOS image with a mutable active configuration.

    Mirrors the lifecycle the prototype exercises: boot with a config,
    later :meth:`reconfigure` in ~30 ms instead of booting a fresh VM
    (Sec. VIII-D's key optimisation).
    """

    def __init__(self, image_id: str, config: Optional[ClickOSConfig] = None) -> None:
        self.image_id = image_id
        self.config = config
        self.reconfigure_count = 0

    def reconfigure(self, config: ClickOSConfig) -> float:
        """Swap the active configuration; returns the time cost in seconds."""
        self.config = config
        self.reconfigure_count += 1
        return CLICKOS_RECONFIGURE_SECONDS

    def __repr__(self) -> str:
        desc = self.config.role if self.config else "unconfigured"
        return f"ClickOSImage({self.image_id!r}, {desc})"
