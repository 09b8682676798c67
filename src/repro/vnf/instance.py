"""VNF instances and the rate-driven capacity/loss model.

Sec. VII-B measured that "for most of the VNFs, the performance is closely
related to the packet receiving rate, but not the packet size" (Fig. 6):
a ClickOS passive monitor drops nothing until the receiving rate passes its
capacity knee, after which the loss rate soars as 1 − capacity/rate.

:class:`VNFInstance` is the packet-level view: :meth:`consume` admits /
drops individual packets against a sliding-window rate limit (used by the
Fig. 6 / Fig. 9 experiments).  The fluid view of Fig. 12 lives in
:class:`repro.core.dynamic.DynamicHandler`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.sim.kernel import Simulator
from repro.vnf.types import NFType


@dataclass
class InstanceStats:
    """Running counters of one instance."""

    packets_in: int = 0
    packets_processed: int = 0
    packets_dropped: int = 0
    bytes_processed: int = 0

    @property
    def loss_ratio(self) -> float:
        """Fraction of received packets dropped so far."""
        if self.packets_in == 0:
            return 0.0
        return self.packets_dropped / self.packets_in


class VNFInstance:
    """One running VNF instance (a VM) attached to an APPLE host.

    Args:
        instance_id: unique identifier.
        nf_type: the datasheet (capacity, cores, ClickOS flag).
        switch: the switch whose APPLE host runs this instance.
        sim: optional simulator; required for packet-level operation.
        window: sliding window (seconds) for the packet-level rate limit.

    Admission is the instance's only per-packet effect — it never touches
    the packet — so the columnar walker can replay :meth:`consume`
    without calling it.
    """

    # Slotted: the isolation audit reads every running instance's state on
    # every tick, and the packet walkers its window on every admission.
    __slots__ = (
        "instance_id",
        "nf_type",
        "switch",
        "sim",
        "window",
        "stats",
        "running",
        "degradation",
        "_recent",
        "_budget",
    )

    def __init__(
        self,
        instance_id: str,
        nf_type: NFType,
        switch: str,
        sim: Optional[Simulator] = None,
        window: float = 0.1,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.instance_id = instance_id
        self.nf_type = nf_type
        self.switch = switch
        self.sim = sim
        self.window = window
        self.stats = InstanceStats()
        self.running = True
        #: Remaining capacity fraction; < 1 during a brownout.
        self.degradation = 1.0
        self._recent: List[float] = []  # processed-packet timestamps in window
        # Window budget in packets; NFType is frozen, so only degrade()
        # changes this.  The plan walkers read _budget/_recent directly
        # instead of calling consume() (dataplane.network._admit replays it
        # per packet, _ColumnWalker checks and applies whole columns) —
        # keep their semantics in sync with it.
        self._budget: float = float(nf_type.capacity_pps) * window

    # ------------------------------------------------------------------
    # Packet-level model
    # ------------------------------------------------------------------
    def consume(self, packet_size: int, now: Optional[float] = None) -> bool:
        """Admit one packet; returns True if processed, False if dropped.

        A packet is dropped when processing it would push the rate over
        ``capacity_pps`` within the sliding window.  Packet size does not
        affect admission (the paper's measured behaviour) but is recorded
        for byte accounting.
        """
        if not self.running:
            return False
        if now is None:
            if self.sim is None:
                raise ValueError("packet-level consume needs a simulator or timestamps")
            now = self.sim.now
        stats = self.stats
        stats.packets_in += 1
        # Trim the window: this is every packet walker's inner loop.
        recent = self._recent
        cutoff = now - self.window
        if recent and recent[0] <= cutoff:
            i = 1
            n = len(recent)
            while i < n and recent[i] <= cutoff:
                i += 1
            del recent[:i]
        if len(recent) + 1 > self._budget:
            stats.packets_dropped += 1
            return False
        recent.append(now)
        stats.packets_processed += 1
        stats.bytes_processed += packet_size
        return True

    def shutdown(self) -> None:
        """Stop the instance; further packets are dropped."""
        self.running = False

    # ------------------------------------------------------------------
    # Partial degradation ("brownout" faults)
    # ------------------------------------------------------------------
    def degrade(self, factor: float) -> None:
        """Scale capacity to ``factor`` of nominal (a chaos brownout).

        Affects both views: the sliding-window packet budget shrinks and
        :attr:`effective_capacity_mbps` drops.  Every walker reads the
        budget live, so the next packet already sees it.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("degradation factor must be in (0, 1]")
        self.degradation = factor
        self._budget = float(self.nf_type.capacity_pps) * self.window * factor

    @property
    def effective_capacity_mbps(self) -> float:
        """Nominal capacity scaled by the current degradation (0 if down)."""
        if not self.running:
            return 0.0
        return self.nf_type.capacity_mbps * self.degradation

    def reset_runtime(self) -> None:
        """Zero the packet-level state (stats + sliding window).

        Clears the window list in place so references held by cached walk
        plans stay valid.
        """
        self.stats = InstanceStats()
        self._recent.clear()

    def __repr__(self) -> str:
        return (
            f"VNFInstance({self.instance_id!r}, type={self.nf_type.name}, "
            f"switch={self.switch!r})"
        )
