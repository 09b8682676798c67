"""The generation contract of ``TcamTable`` and ``VSwitch``.

Walk plans, the TCAM flow cache and the southbound fabric's
installed-state view all treat an unmoved generation counter as proof
that the rules did not change.  So every public method is either on the
read-only list below or is a mutator that must move the counter whenever
it changes state; a method added later without being classified here
fails ``test_every_public_method_is_classified``.
"""

import pytest

from repro.dataplane.switch import classification_entry, pass_by_entry
from repro.dataplane.tcam import TcamTable
from repro.dataplane.vswitch import VSwitch, VSwitchRule
from repro.vnf.instance import VNFInstance
from repro.vnf.types import DEFAULT_CATALOG

FIREWALL = DEFAULT_CATALOG.get("firewall")


def _classify(class_id: str, sub_id: int):
    return classification_entry("s1", class_id, (0.0, 1.0), sub_id, "s1")


def _table() -> TcamTable:
    table = TcamTable()
    table.install(pass_by_entry("s1"))
    table.install(_classify("c1", 1))
    return table


def _table_state(table: TcamTable):
    return [repr(e) for e in table.entries()]


def _vswitch() -> VSwitch:
    vsw = VSwitch("s1")
    vsw.register_instance(VNFInstance("fw", FIREWALL, "s1"))
    vsw.install_rule("c1", 1, VSwitchRule(("fw",), "FIN"))
    vsw.install_origin_rule("c1", (0.0, 1.0), 1, "s1")
    return vsw


def _vswitch_state(vsw: VSwitch):
    return (
        vsw.installed_rules(),
        vsw.installed_origin_rules(),
        [i.instance_id for i in vsw.instances()],
    )


#: mutator name -> a call that changes the state built above.
TCAM_MUTATORS = {
    "install": lambda t: t.install(_classify("c2", 2)),
    "remove_where": lambda t: t.remove_where(lambda e: e.class_id == "c1"),
    "remove_by_name": lambda t: t.remove_by_name(pass_by_entry("s1").name),
    "replace": lambda t: t.replace(_classify("c1", 7)),
    "clear": lambda t: t.clear(),
}
TCAM_READ_ONLY = {
    "bucket_is_cacheable", "entries", "entry_by_name", "entry_count",
    "generation", "hash_boundaries", "logical_entries", "lookup", "match",
}
VSWITCH_MUTATORS = {
    "register_instance": lambda v: v.register_instance(
        VNFInstance("ids", FIREWALL, "s1")
    ),
    "deregister_instance": lambda v: v.deregister_instance("fw"),
    "install_rule": lambda v: v.install_rule("c1", 2, VSwitchRule(("fw",), "FIN")),
    "remove_rule": lambda v: v.remove_rule("c1", 1),
    "clear_rules": lambda v: v.clear_rules(),
    "install_origin_rule": lambda v: v.install_origin_rule("c2", (0.0, 1.0), 3, "s1"),
    "clear_origin_rules": lambda v: v.clear_origin_rules(),
}
VSWITCH_READ_ONLY = {
    "installed_origin_rules", "installed_rules", "instances", "origin_rule_count",
    "process", "process_origin", "registered", "resolve", "rule_count",
}


def _public(cls):
    return {name for name in dir(cls) if not name.startswith("_")}


def test_every_public_method_is_classified():
    assert _public(TcamTable) == TCAM_READ_ONLY | set(TCAM_MUTATORS)
    assert _public(VSwitch) == VSWITCH_READ_ONLY | set(VSWITCH_MUTATORS)


@pytest.mark.parametrize("name", sorted(TCAM_MUTATORS))
def test_tcam_mutator_moves_generation(name):
    table = _table()
    before, generation = _table_state(table), table.generation
    TCAM_MUTATORS[name](table)
    assert _table_state(table) != before, "the call above must change state"
    assert table.generation != generation


@pytest.mark.parametrize("name", sorted(VSWITCH_MUTATORS))
def test_vswitch_mutator_moves_generation(name):
    vsw = _vswitch()
    before, generation = _vswitch_state(vsw), vsw.generation
    VSWITCH_MUTATORS[name](vsw)
    assert _vswitch_state(vsw) != before, "the call above must change state"
    assert vsw.generation != generation


def test_read_only_calls_leave_state_and_generation_alone():
    table, vsw = _table(), _vswitch()
    t_before, v_before = _table_state(table), _vswitch_state(vsw)
    t_gen, v_gen = table.generation, vsw.generation
    table.match("c1", None, 0.5), table.hash_boundaries("c1")
    table.bucket_is_cacheable(0.5), table.entry_by_name("x"), table.entry_count()
    assert table.remove_by_name("absent") == 0
    vsw.resolve("c1", 1), vsw.registered("fw")
    assert vsw.remove_rule("c1", 99) is False
    assert (_table_state(table), table.generation) == (t_before, t_gen)
    assert (_vswitch_state(vsw), vsw.generation) == (v_before, v_gen)
