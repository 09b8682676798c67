"""The vSwitch inside an APPLE host.

Sec. V-B: "Forwarding rules are also needed in vSwitch embedded in APPLE
hosts to direct packets to desired VNF instances.  The matching rule is
based on three tuples, <IncomePort, class, sub-class>."  A packet may
traverse several VNF instances within one host before being re-tagged with
the next host ID (or FIN) and sent back out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dataplane.packet import FIN, Packet
from repro.dataplane.tcam import RuleEpoch
from repro.vnf.instance import VNFInstance

UPLINK = "uplink"  # the port facing the physical switch


@dataclass(frozen=True)
class VSwitchRule:
    """One <in_port, class, sub-class> rule.

    Attributes:
        instance_ids: local VNF instances to traverse, in chain order.
        exit_host_tag: host-ID tag written when the packet leaves
            (the next processing host's switch, or FIN).
    """

    instance_ids: Tuple[str, ...]
    exit_host_tag: str

    @staticmethod
    def from_spec(instance_ids: Tuple[str, ...], exit_host_tag: str) -> "VSwitchRule":
        """The one rule with this ``(instance_ids, exit_host_tag)`` spec:
        rules are immutable values, so every vSwitch that holds one holds
        the same object, and a put builds none after the first."""
        if type(instance_ids) is not tuple:
            instance_ids = tuple(instance_ids)
        spec = instance_ids, exit_host_tag
        rule = _RULES.get(spec)
        if rule is None:
            rule = _RULES[spec] = VSwitchRule(instance_ids, exit_host_tag)
        return rule


#: Rules by spec (:meth:`VSwitchRule.from_spec`): bounded by the instance
#: sequences and exit tags a topology's plans can name.
_RULES: Dict[Tuple[Tuple[str, ...], str], VSwitchRule] = {}


class VSwitch:
    """Open vSwitch model inside one APPLE host.

    Generation contract: every method that changes the rule table, the
    origin classification table or the instance set
    (:meth:`register_instance`, :meth:`deregister_instance`,
    :meth:`install_rule`, :meth:`remove_rule`, :meth:`clear_rules`,
    :meth:`install_origin_rule`, :meth:`clear_origin_rules`) moves
    :attr:`generation` and the shared ``epoch``, and nothing else may change
    them.  The network's walk plans and the southbound fabric's
    installed-state view trust an unmoved counter to mean unchanged state
    (``tests/test_dataplane_generation.py`` enforces it).

    Args:
        switch: the physical switch this host hangs off.
        epoch: the network-wide rule epoch this vSwitch reports mutations
            to; a vSwitch built on its own gets a private one.
    """

    def __init__(self, switch: str, epoch: Optional[RuleEpoch] = None) -> None:
        self.switch = switch
        #: The trace name of this vSwitch (what a visit records).
        self._port_name = f"ovs-{switch}"
        self._rules: Dict[Tuple[str, str, Optional[int]], VSwitchRule] = {}
        self._instances: Dict[str, VNFInstance] = {}
        # Classification for packets originating at production VMs inside
        # this host (Fig. 3's ip3 -> ip4 scenario): the vSwitch tags them,
        # since "the packets from the ports connect to production VMs are
        # not tagged yet".  Entries: (class_id, hash_range, sub_id, first_host);
        # a tuple, replaced on change (most vSwitches never hold one).
        self._origin_rules: Tuple[Tuple[str, Tuple[float, float], int, str], ...] = ()
        self.packets_in = 0
        self.packets_dropped = 0
        #: Bumped (with the shared epoch) whenever rules or the instance set
        #: change; the southbound reconciler watches it.
        self.generation = 0
        self._epoch = epoch if epoch is not None else RuleEpoch()

    def _moved(self) -> None:
        self.generation += 1
        self._epoch.move()

    # ------------------------------------------------------------------
    def register_instance(
        self, instance: VNFInstance, alias: Optional[str] = None
    ) -> None:
        """Attach a VNF instance (a VM port) to this vSwitch.

        Args:
            alias: key the rules refer to the instance by; defaults to the
                instance id.  Orchestrator-launched VMs carry their own ids
                while rules use the plan's logical slot keys.
        """
        if instance.switch != self.switch:
            raise ValueError(
                f"instance {instance.instance_id!r} belongs to switch "
                f"{instance.switch!r}, not {self.switch!r}"
            )
        self._instances[alias or instance.instance_id] = instance
        self._moved()

    def deregister_instance(self, instance_id: str) -> None:
        self._instances.pop(instance_id, None)
        # Rules referencing the instance become stale; the Rule Generator
        # replaces them, but drop them defensively too.
        self._rules = {
            k: r for k, r in self._rules.items() if instance_id not in r.instance_ids
        }
        self._moved()

    def install_rule(
        self,
        class_id: str,
        subclass_id: Optional[int],
        rule: VSwitchRule,
        in_port: str = UPLINK,
    ) -> None:
        """Install/replace the rule for one (port, class, sub-class) key."""
        instances = self._instances
        for iid in rule.instance_ids:
            if iid not in instances:
                raise KeyError(
                    f"vSwitch at {self.switch!r}: unknown instance {iid!r}"
                )
        self._rules[(in_port, class_id, subclass_id)] = rule
        self._moved()

    def remove_rule(
        self,
        class_id: str,
        subclass_id: Optional[int],
        in_port: str = UPLINK,
    ) -> bool:
        """Remove one (port, class, sub-class) rule; True if it existed.

        The southbound channel's delete op: removing an absent rule is a
        no-op (idempotent, so a retried delete converges).
        """
        if self._rules.pop((in_port, class_id, subclass_id), None) is None:
            return False
        self._moved()
        return True

    def clear_rules(self) -> None:
        self._rules.clear()
        self._moved()

    # ------------------------------------------------------------------
    def process(self, packet: Packet, now: float, in_port: str = UPLINK) -> Optional[Packet]:
        """Walk the packet through its local instance sequence.

        Returns the packet (tags updated) or None if an overloaded instance
        dropped it.

        Raises:
            KeyError: no rule for the packet's (port, class, sub-class) —
                a rule-generation bug, surfaced loudly.
        """
        self.packets_in += 1
        packet.visit("vswitch", self._port_name)
        key = (in_port, packet.class_id, packet.subclass_tag)
        rule = self._rules.get(key)
        if rule is None:
            raise KeyError(
                f"vSwitch at {self.switch!r}: no rule for {key!r} "
                f"(installed: {sorted(self._rules)})"
            )
        instances = self._instances
        size = packet.size_bytes
        for iid in rule.instance_ids:
            if not instances[iid].consume(size, now):
                self.packets_dropped += 1
                return None
            packet.visit("vnf", iid)
        packet.host_tag = rule.exit_host_tag
        return packet

    def resolve(
        self,
        class_id: str,
        subclass_tag: Optional[int],
        in_port: str = UPLINK,
    ) -> Tuple[VSwitchRule, Tuple[VNFInstance, ...]]:
        """Rule + instance sequence for a key, without walking a packet.

        Raises the same KeyError :meth:`process` would, so resolving a
        walk plan surfaces rule-generation bugs identically.
        """
        key = (in_port, class_id, subclass_tag)
        rule = self._rules.get(key)
        if rule is None:
            raise KeyError(
                f"vSwitch at {self.switch!r}: no rule for {key!r} "
                f"(installed: {sorted(self._rules)})"
            )
        return rule, tuple(self._instances[iid] for iid in rule.instance_ids)

    def instances(self) -> List[VNFInstance]:
        return list(self._instances.values())

    def registered(self, alias: str) -> Optional[VNFInstance]:
        """The instance currently bound to ``alias`` (None if absent).

        Instance materialisation uses this to skip re-registering an
        unchanged binding (which would bump the generation and retire
        warm walk plans for no reason).
        """
        return self._instances.get(alias)

    def installed_rules(self) -> Dict[Tuple[str, str, Optional[int]], VSwitchRule]:
        """A copy of the rule table keyed by (in_port, class, sub-class)."""
        return dict(self._rules)

    # ------------------------------------------------------------------
    # Host-originated traffic (Fig. 3, ip3 -> ip4)
    # ------------------------------------------------------------------
    def install_origin_rule(
        self,
        class_id: str,
        hash_range: Tuple[float, float],
        sub_id: int,
        first_host: str,
    ) -> None:
        """Classification for packets born at a production VM in this host."""
        self._origin_rules += ((class_id, hash_range, sub_id, first_host),)
        self._moved()

    def clear_origin_rules(self) -> None:
        self._origin_rules = ()
        self._moved()

    @property
    def origin_rule_count(self) -> int:
        return len(self._origin_rules)

    def installed_origin_rules(self) -> List[Tuple[str, Tuple[float, float], int, str]]:
        """A copy of the origin classification table (reconciler reads)."""
        return list(self._origin_rules)

    def process_origin(self, packet: Packet, now: float) -> Optional[Packet]:
        """Tag and dispatch a packet entering from a production-VM port.

        The vSwitch performs the ingress classification the physical
        switch would otherwise do: the sub-class ID is tagged, and the
        packet is either processed by local instances immediately (when
        the first processing host is this one) or tagged with the next
        host ID and handed to the physical switch.

        Raises:
            KeyError: no origin classification matches the packet.
        """
        for class_id, (lo, hi), sub_id, first_host in self._origin_rules:
            if packet.class_id == class_id and lo <= packet.flow_hash < hi:
                packet.subclass_tag = sub_id
                if first_host == self.switch:
                    return self.process(packet, now)
                packet.visit("vswitch", self._port_name)
                packet.host_tag = first_host
                return packet
        raise KeyError(
            f"vSwitch at {self.switch!r}: no origin classification for "
            f"class {packet.class_id!r}"
        )
