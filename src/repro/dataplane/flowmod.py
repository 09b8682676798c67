"""OpenFlow-style flow-mod rendering of APPLE's rules.

The prototype installs rules through OpenDaylight's REST API, ultimately
as OpenFlow flow-mods on physical switches and Open vSwitches.  This
module compiles the simulator's rule structures into FlowMod records and
an ``ovs-ofctl``-style text rendering — useful for eyeballing what a real
deployment would push, and consumed by the OpenDaylight facade's rule
journal in integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.dataplane.switch import (
    PRIORITY_CLASSIFICATION,
    PRIORITY_HOST_MATCH,
    PRIORITY_PASS_BY,
)

if TYPE_CHECKING:  # avoid a dataplane -> core import cycle at runtime
    from repro.core.rulegen import GeneratedRules

APPLE_TABLE = 0
NEXT_TABLE = 1  # other applications' rules (routing, ACLs)


@dataclass(frozen=True)
class FlowMod:
    """One OpenFlow rule: table, priority, match, actions."""

    table_id: int
    priority: int
    match: Tuple[Tuple[str, str], ...]  # (field, value) pairs
    actions: Tuple[str, ...]
    cookie: str = ""

    def render(self) -> str:
        """``ovs-ofctl add-flow``-style text."""
        match_txt = ",".join(f"{k}={v}" for k, v in self.match) or "any"
        actions_txt = ",".join(self.actions) or "drop"
        return (
            f"table={self.table_id},priority={self.priority},"
            f"{match_txt},actions={actions_txt}"
        )


def compile_switch_rules(rules: "GeneratedRules") -> Dict[str, List[FlowMod]]:
    """FlowMods per physical switch implementing the Table III layout."""
    tags = rules.tag_allocator
    out: Dict[str, List[FlowMod]] = {}

    def add(switch: str, fm: FlowMod) -> None:
        out.setdefault(switch, []).append(fm)

    for switch, rule_set in rules.switch_rule_sets.items():
        if rule_set.host_match:
            add(
                switch,
                FlowMod(
                    table_id=APPLE_TABLE,
                    priority=PRIORITY_HOST_MATCH,
                    match=(("host_id", str(tags.host_id(switch))),),
                    actions=("output:apple-host",),
                    cookie=f"{switch}/host-match",
                ),
            )
        for class_id, (lo, hi), sub_id, first_host in rule_set.classifications:
            match = (
                ("host_id", "0x0/empty"),
                ("class", class_id),
                ("hash", f"[{lo:.4f},{hi:.4f})"),
            )
            if first_host == switch:
                actions = (f"set_subclass:{sub_id}", "output:apple-host")
            else:
                actions = (
                    f"set_subclass:{sub_id}",
                    f"set_host_id:{tags.host_id(first_host)}",
                    f"goto_table:{NEXT_TABLE}",
                )
            add(
                switch,
                FlowMod(
                    table_id=APPLE_TABLE,
                    priority=PRIORITY_CLASSIFICATION,
                    match=match,
                    actions=actions,
                    cookie=f"{switch}/classify/{class_id}#{sub_id}",
                ),
            )
        add(
            switch,
            FlowMod(
                table_id=APPLE_TABLE,
                priority=PRIORITY_PASS_BY,
                match=(),
                actions=(f"goto_table:{NEXT_TABLE}",),
                cookie=f"{switch}/pass-by",
            ),
        )
    return out


def compile_vswitch_rules(rules: "GeneratedRules") -> Dict[str, List[FlowMod]]:
    """FlowMods per vSwitch: the <in_port, class, sub-class> pipeline."""
    tags = rules.tag_allocator
    out: Dict[str, List[FlowMod]] = {}
    for switch, rule_list in rules.vswitch_rules.items():
        for class_id, sub_id, rule in rule_list:
            actions = [f"output:vm:{iid}" for iid in rule.instance_ids]
            if rule.exit_host_tag == "FIN":
                actions.append("set_host_id:0")
            else:
                actions.append(
                    f"set_host_id:{tags.host_id(rule.exit_host_tag)}"
                )
            actions.append("output:uplink")
            out.setdefault(switch, []).append(
                FlowMod(
                    table_id=APPLE_TABLE,
                    priority=PRIORITY_CLASSIFICATION,
                    match=(
                        ("in_port", "uplink"),
                        ("class", class_id),
                        ("subclass", str(sub_id)),
                    ),
                    actions=tuple(actions),
                    cookie=f"ovs-{switch}/{class_id}#{sub_id}",
                )
            )
    return out


def render_all(rules: "GeneratedRules") -> str:
    """Full textual dump of every switch's and vSwitch's flow table."""
    lines: List[str] = []
    for switch, mods in sorted(compile_switch_rules(rules).items()):
        lines.append(f"# switch {switch}")
        lines.extend(fm.render() for fm in mods)
    for switch, mods in sorted(compile_vswitch_rules(rules).items()):
        lines.append(f"# vswitch ovs-{switch}")
        lines.extend(fm.render() for fm in mods)
    return "\n".join(lines)
