"""Packets carrying APPLE's two tag fields.

Sec. V-B: "each packet contains two tag fields.  One field is for the host
ID, which specifies the next host to process this packet.  If one packet
has traversed all the required VNF instances, this tagging field is Fin.
The other field encodes sub-class ID within a class."

Functional classification in the simulator matches on ``class_id`` and
``flow_hash`` metadata (the wildcard-rule *cost* of real classification is
accounted separately through :mod:`repro.classify`); tags behave exactly as
in the paper — sub-class IDs are set once at the ingress switch, host IDs
rewritten as the packet progresses along its chain.

A packet is one slotted object with no container of its own: its trace is
an immutable tuple, and a packet that replays a resolved walk holds that
walk's own tuple (``_WalkPlan.trace``, or the prefix a drop ends at), so
every packet of one hash interval shares a single trace object.  A packet
carries no serial number: its fields are all it is, so what a packet
prints does not depend on what ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Host-ID tag value meaning "all required VNF instances traversed".
FIN = "FIN"


@dataclass(slots=True)
class Packet:
    """One packet in flight.

    Attributes:
        class_id: the equivalence class the flow belongs to.
        flow_hash: flow's position in [0, 1) of the class's hash domain —
            decides its sub-class under consistent hashing.
        src / dst: ingress and egress switches.
        size_bytes: packet length (loss is rate-driven, size is accounting).
        host_tag: the host-ID tag field (None = empty, FIN = done).
        subclass_tag: the sub-class-ID tag field (None until tagged).
        trace: visited elements as ("switch"|"vnf"|"vswitch", name) pairs,
            an immutable tuple: :meth:`visit` rebinds it, and a packet that
            replays a resolved walk shares that walk's tuple.
    """

    class_id: str
    flow_hash: float
    src: str
    dst: str
    size_bytes: int = 1500
    host_tag: Optional[str] = None
    subclass_tag: Optional[int] = None
    trace: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.flow_hash < 1.0:
            raise ValueError(f"flow_hash must be in [0, 1), got {self.flow_hash}")
        if self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive")

    # ------------------------------------------------------------------
    @property
    def finished_processing(self) -> bool:
        """True once the host tag is FIN (chain fully traversed)."""
        return self.host_tag == FIN

    @property
    def tagged(self) -> bool:
        """Whether the ingress switch has classified this packet yet."""
        return self.subclass_tag is not None

    def visit(self, kind: str, name: str) -> None:
        """Record a hop in the trace (switch, vswitch or vnf)."""
        self.trace += ((kind, name),)

    def switches_visited(self) -> List[str]:
        """Physical switches in visit order (interference-freedom check)."""
        return [name for kind, name in self.trace if kind == "switch"]

    def vnfs_visited(self) -> List[str]:
        """VNF instance ids in visit order (policy-enforcement check)."""
        return [name for kind, name in self.trace if kind == "vnf"]
