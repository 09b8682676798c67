"""Hand-built rule tables, written the way the program writes them.

A data-plane test that needs Table III rows on a switch states them as the
Rule Generator's data (:class:`~repro.dataplane.switch.SwitchRuleSet`:
host match and classification rows) and writes them as day 0 does: one
render (:func:`~repro.southbound.state.render_desired`, the only layout of
Table III), then each switch's slice through the applier
(:func:`~repro.southbound.channel.apply_ops`, the only writer of rules).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.rulegen import GeneratedRules
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.switch import SwitchRuleSet, classification_spec
from repro.dataplane.tagging import TagAllocator
from repro.dataplane.tcam import TcamEntry
from repro.southbound.channel import apply_ops
from repro.southbound.state import render_desired, slice_ops


def write_rule_sets(network: DataPlaneNetwork, rule_sets: Iterable[SwitchRuleSet]) -> None:
    """Write each rule set's rows, plus the pass-by, onto its switch."""
    by_switch = {rs.switch: rs for rs in rule_sets}
    rules = GeneratedRules(by_switch, {}, TagAllocator(), [])
    state = render_desired(sorted(by_switch), (), rules, (), {}, {})
    for switch in sorted(by_switch):
        apply_ops(network, switch, slice_ops(state, switch))


def classify_entry(
    switch: str, class_id: str, hash_range: tuple, sub_id: int, first_host: str
) -> TcamEntry:
    """The classification entry the applier writes for one row."""
    return TcamEntry.from_spec(
        classification_spec(switch, class_id, hash_range, sub_id, first_host)
    )
