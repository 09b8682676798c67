"""SDN data plane: TCAM pipelines, tagging, switches, vSwitches.

Implements Sec. V-B's flow-tagging scheme end to end: the two tag fields
(host ID and sub-class ID) carried in unused header bits, the physical
switch pipeline of Table III / Fig. 2, the vSwitch
``<IncomePort, class, sub-class>`` pipeline inside APPLE hosts, and the
packet walkers that execute installed rules.  Rules live as
:class:`TcamEntry` / :class:`VSwitchRule` objects; nothing renders them
as OpenFlow text.
"""

from repro.dataplane.packet import FIN, Packet
from repro.dataplane.tcam import Action, ActionKind, TcamEntry, TcamTable
from repro.dataplane.tagging import TagAllocator, TagFieldSpec, TAG_FIELDS
from repro.dataplane.switch import PhysicalSwitch, SwitchRuleSet
from repro.dataplane.vswitch import VSwitch, VSwitchRule
from repro.dataplane.flowhash import suffix_hash
from repro.dataplane.network import DataPlaneNetwork, DeliveryRecord

__all__ = [
    "Packet",
    "FIN",
    "Action",
    "ActionKind",
    "TcamEntry",
    "TcamTable",
    "TagAllocator",
    "TagFieldSpec",
    "TAG_FIELDS",
    "PhysicalSwitch",
    "SwitchRuleSet",
    "VSwitch",
    "VSwitchRule",
    "DataPlaneNetwork",
    "DeliveryRecord",
    "suffix_hash",
]
