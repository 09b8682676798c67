"""The Rule Generator: data-plane rules from a sub-class plan (Sec. V).

Gathers the Optimization Engine's output (via the sub-class assignment) and
produces:

* per-physical-switch Table III layouts — host-match rules where APPLE
  hosts are in use, classification rules *only at each class's ingress
  switch* (the key TCAM saving of the tagging scheme), and the pass-by
  catch-all;
* per-vSwitch ``<IncomePort, class, sub-class>`` rules walking packets
  through the consecutive local instances of their sequence, then tagging
  the next host ID (or FIN).

The rows are data: :func:`repro.southbound.state.render_desired` lays
them out as entries and :func:`repro.southbound.channel.apply_ops` writes
them, at day 0 (:meth:`RuleGenerator.install`) as in every later epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.subclasses import Subclass, SubclassPlan
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import FIN
from repro.dataplane.switch import SwitchRuleSet
from repro.dataplane.tagging import TagAllocator
from repro.dataplane.vswitch import VSwitchRule
from repro.sim.kernel import Simulator
from repro.traffic.classes import TrafficClass
from repro.vnf.instance import VNFInstance
from repro.vnf.types import NFTypeCatalog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.southbound.state import NetworkState


@dataclass
class GeneratedRules:
    """Everything the Rule Generator emits for one plan."""

    switch_rule_sets: Dict[str, SwitchRuleSet]
    vswitch_rules: Dict[str, List[Tuple[str, int, VSwitchRule]]]
    tag_allocator: TagAllocator
    hosts_in_use: List[str]
    #: Origin classification per vSwitch for host-originated classes
    #: (Fig. 3's ip3 scenario): (class_id, hash_range, sub_id, first_host).
    origin_rules: Dict[str, List[Tuple[str, Tuple[float, float], int, str]]] = field(
        default_factory=dict
    )
    #: The state (no versions) :meth:`RuleGenerator.install` rendered and
    #: wrote: a fabric adopting the day-0 network takes it, not a re-render.
    day0_state: Optional["NetworkState"] = field(default=None, repr=False, compare=False)

    def classification_rule_count(self) -> int:
        """Logical classification rules across all switches (ingress only)."""
        return sum(len(rs.classifications) for rs in self.switch_rule_sets.values())


class RuleGenerator:
    """Computes data-plane rules for a sub-class plan, and installs day 0.

    Args:
        catalog: NF datasheets (to materialise instances at install time).
    """

    def __init__(self, catalog: NFTypeCatalog) -> None:
        self.catalog = catalog

    # ------------------------------------------------------------------
    def generate(
        self,
        classes: Sequence[TrafficClass],
        subclass_plan: SubclassPlan,
        host_originated: Optional[set] = None,
    ) -> GeneratedRules:
        """Produce rule sets for all switches and vSwitches.

        Args:
            host_originated: class ids whose traffic is born at production
                VMs inside the APPLE host at the class's source switch;
                their classification lives in that vSwitch's origin table
                instead of the physical ingress switch (Fig. 3, ip3).
        """
        class_by_id = {c.class_id: c for c in classes}
        host_originated = host_originated or set()

        hosts_in_use = sorted(
            {ref.switch for ref in subclass_plan.instance_load}
        )
        tags = TagAllocator()
        tags.assign_host_ids(hosts_in_use)
        # Sec. X: a header-modifying NF anywhere before the end of a chain
        # invalidates downstream 5-tuple classification, so sub-class IDs
        # must be network-global instead of multiplexed per class.
        needs_global = any(
            nf.modifies_headers
            for cls in classes
            for nf in cls.chain.nf_types()[:-1]
        )
        if needs_global:
            tags.reserve_global_subclass_ids(
                max(1, subclass_plan.total_subclasses())
            )
        else:
            tags.reserve_subclass_ids(
                max(1, subclass_plan.max_subclasses_per_class())
            )

        rule_sets: Dict[str, SwitchRuleSet] = {
            switch: SwitchRuleSet(switch=switch, host_match=True)
            for switch in hosts_in_use
        }
        vswitch_rules: Dict[str, List[Tuple[str, int, VSwitchRule]]] = {}
        origin_rules: Dict[str, List[Tuple[str, Tuple[float, float], int, str]]] = {}

        def rules_at(switch: str) -> List[Tuple[str, int, VSwitchRule]]:
            found = vswitch_rules.get(switch)
            if found is None:
                found = vswitch_rules[switch] = []
            return found

        by_class = subclass_plan.by_class
        for class_id in sorted(by_class):
            cls = class_by_id.get(class_id)
            if cls is None:
                raise KeyError(f"sub-class plan references unknown class {class_id!r}")
            classifications = None
            for sub in by_class[class_id]:
                seq = sub.instance_seq
                if not seq:
                    continue
                sub_id = sub.sub_id
                host = seq[0].switch
                if classifications is None:
                    if class_id in host_originated:
                        # Classification in the source host's vSwitch (Fig. 3).
                        classifications = origin_rules.setdefault(cls.src, [])
                    else:
                        # Ingress classification (Table III rows 2-3).
                        ingress = rule_sets.get(cls.src)
                        if ingress is None:
                            ingress = rule_sets[cls.src] = SwitchRuleSet(switch=cls.src)
                        classifications = ingress.classifications
                classifications.append((class_id, sub.hash_range, sub_id, host))
                # vSwitch rules per visited host: the run of consecutive
                # chain steps at one switch, then the next host's tag.
                keys = []
                for ref in seq:
                    if ref.switch != host:
                        rules_at(host).append(
                            (class_id, sub_id, VSwitchRule(tuple(keys), ref.switch))
                        )
                        host = ref.switch
                        keys = []
                    keys.append(ref.key)
                rules_at(host).append((class_id, sub_id, VSwitchRule(tuple(keys), FIN)))

        return GeneratedRules(
            switch_rule_sets=rule_sets,
            vswitch_rules=vswitch_rules,
            tag_allocator=tags,
            hosts_in_use=hosts_in_use,
            origin_rules=origin_rules,
        )

    # ------------------------------------------------------------------
    def materialize_instances(
        self,
        rules: GeneratedRules,
        network: DataPlaneNetwork,
        sim: Optional[Simulator] = None,
        instances: Optional[Dict[str, VNFInstance]] = None,
    ) -> Dict[str, VNFInstance]:
        """Create and register every instance the rules reference.

        Shared by :meth:`install` and the southbound fabric: instance
        creation is a hypervisor-local action (not a flow rule), so it
        happens before rules that reference the instances are pushed.  Registration is skipped where the binding
        is unchanged (re-registering bumps the vSwitch generation and
        retires warm walk plans for no reason).

        Returns:
            The full instance map keyed by ref key.
        """
        inst_map: Dict[str, VNFInstance] = dict(instances or {})
        # Per switch, in first-use order, each key the rules reference once.
        referenced: Dict[str, None] = {}
        for rule_list in rules.vswitch_rules.values():
            for _, _, rule in rule_list:
                for key in rule.instance_ids:
                    referenced[key] = None
        needed: Dict[str, Dict[str, None]] = {}
        for key in referenced:
            needed.setdefault(key.rsplit("@", 1)[1], {})[key] = None
        for switch, keys in needed.items():
            vsw = network.vswitch_at(switch)
            for key in keys:
                if key not in inst_map:
                    nf_name = key.split("[", 1)[0]
                    inst_map[key] = VNFInstance(
                        instance_id=key,
                        nf_type=self.catalog.get(nf_name),
                        switch=switch,
                        sim=sim,
                    )
                if vsw.registered(key) is not inst_map[key]:
                    vsw.register_instance(inst_map[key], alias=key)
        return inst_map

    # ------------------------------------------------------------------
    def install(
        self,
        rules: GeneratedRules,
        network: DataPlaneNetwork,
        classes: Sequence[TrafficClass],
        sim: Optional[Simulator] = None,
    ) -> Dict[str, VNFInstance]:
        """Day 0 (:func:`repro.core.reconfigure.bootstrap`): register the
        class paths, create every instance the rules reference, render the
        desired state with no versions (kept as ``rules.day0_state``) and
        write each switch's whole slice with the southbound applier: no
        diff, no message, no sim time.

        Returns:
            The full instance map keyed by ref key.
        """
        # Imported here: the southbound package renders GeneratedRules.
        from repro.southbound.channel import apply_ops
        from repro.southbound.state import render_desired, slice_ops

        for cls in classes:
            network.register_class_path(cls.class_id, cls.path)

        inst_map = self.materialize_instances(rules, network, sim=sim)

        switches = sorted(network.switches)
        state = rules.day0_state = render_desired(
            switches, sorted(network.vswitches), rules, classes, {}, {}
        )
        for switch in switches:
            apply_ops(network, switch, slice_ops(state, switch))

        if obs.REGISTRY.enabled:
            obs.metric("controller_installs_total").inc()
            obs.metric("controller_rule_installs_total").labels(kind="tcam").inc(
                sum(sw.table.logical_entries for sw in network.switches.values())
            )
            obs.metric("controller_rule_installs_total").labels(
                kind="vswitch"
            ).inc(sum(len(v) for v in rules.vswitch_rules.values()))
            obs.metric("controller_rule_installs_total").labels(
                kind="origin"
            ).inc(sum(len(v) for v in rules.origin_rules.values()))

        return inst_map
