"""OpenDaylight facade: the SDN controller platform of the prototype.

The prototype explicitly configures OpenDaylight to handle *all* networking
for OpenStack (Sec. VII-A) because Neutron exposes no API for custom
forwarding rules.  This facade reproduces the two services APPLE consumes:

* **networking preparation** for a new VM (Steps 2–5 of Fig. 5): create an
  OVSDB port on the host's Open vSwitch and return the virtual-NIC
  configuration — the dominant share of the 4.2 s end-to-end boot;
* **flow-rule installation** over the REST API (Steps 10–11), measured at
  ~70 ms in Sec. VIII-D.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.sim.kernel import Simulator
from repro.southbound.config import INSTALL_LATENCY

#: Installing forwarding rules via the ODL REST API (Sec. VIII-D), seconds:
#: the southbound channel's healthy round trip, defined once there.
RULE_INSTALL_SECONDS = INSTALL_LATENCY
#: Neutron → ODL REST notification latency (Step 2), seconds.
NEUTRON_NOTIFY_SECONDS = 0.8
#: OVSDB south-bound RPC creating the vSwitch port (Step 3), seconds.
OVSDB_PORT_CREATE_SECONDS = 0.9
#: Returning augmented networking info to OpenStack (Step 5), seconds.
NETWORK_INFO_SECONDS = 0.6


@dataclass
class PortInfo:
    """Result of networking preparation: the new vSwitch port + vNIC config."""

    port_id: str
    vswitch: str
    mac: str
    prepared_at: float


class OpenDaylight:
    """The OpenDaylight controller facade (north-bound REST + OVSDB)."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._port_ids = itertools.count()
        self.ports: Dict[str, PortInfo] = {}
        self.installed_rules: List[object] = []
        self.rule_install_count = 0

    # ------------------------------------------------------------------
    def prepare_networking(
        self,
        vswitch: str,
        on_ready: Callable[[PortInfo], None],
        scale: float = 1.0,
    ) -> None:
        """Steps 2–5: create an OVSDB port and compute vNIC configuration.

        ``on_ready`` fires once OpenStack may proceed with libvirt creation.
        ``scale`` lets the caller apply per-boot latency jitter.
        """
        delay = (
            NEUTRON_NOTIFY_SECONDS + OVSDB_PORT_CREATE_SECONDS + NETWORK_INFO_SECONDS
        ) * scale

        def finish() -> None:
            n = next(self._port_ids)
            info = PortInfo(
                port_id=f"{vswitch}-port{n}",
                vswitch=vswitch,
                mac=f"02:00:00:00:{(n >> 8) & 0xFF:02x}:{n & 0xFF:02x}",
                prepared_at=self.sim.now,
            )
            self.ports[info.port_id] = info
            on_ready(info)

        self.sim.schedule(delay, finish)

    def install_rules(
        self, rules: Sequence[object], on_installed: Optional[Callable[[], None]] = None
    ) -> None:
        """Steps 10–11: push forwarding rules; ~70 ms regardless of count.

        The prototype measured rule installation as a single REST round
        trip (70 ms); batch size does not dominate at the scales involved.
        """

        def finish() -> None:
            self.installed_rules.extend(rules)
            self.rule_install_count += 1
            if on_installed is not None:
                on_installed()

        self.sim.schedule(RULE_INSTALL_SECONDS, finish)
