"""The southbound epoch as first written: the rewrite's oracle.

The fabric's per-epoch Python was rewritten for speed (specs built without
TCAM entries, a bulk classification sync that reuses unchanged entries,
equality fast paths in the diff, cached entry specs on read-back).  This
module keeps the code it replaced verbatim, so
``tests/test_southbound_differential.py`` can require identical results:

* :func:`entry_spec` / :func:`spec_entry` — the canonical 8-tuple of a TCAM
  entry, recomputed from the entry's fields on every call;
* :func:`pass_by_entry`, :func:`host_match_entry` and
  :func:`classification_entry` — the Table III entries, encoded here
  independently of the program (which writes its entries only from
  ``render_desired``'s specs);
* :func:`class_fingerprints` and :func:`render_desired` — desired state
  rendered by building a :class:`TcamEntry` per classification row and
  turning it back into a spec;
* :func:`diff_switch` — the per-switch phased diff that re-splits both
  sides by name prefix and compares ``set(items())``;
* :func:`_read_vswitch` and :func:`read_installed` — the from-scratch
  read-back;
* :class:`ReferenceAgent` — ``SwitchAgent.receive`` / ``_apply``: one op at a
  time, ``classify_sync`` as remove-all then one install per spec.

:class:`RefState` is the old ``NetworkState`` (its ingress index is built
from whatever ``paths`` holds at first use).  :func:`fields` turns either
kind of state into the tuple the differential test compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.rulegen import GeneratedRules
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.switch import quarantine_entry
from repro.dataplane.tcam import Action, ActionKind, TcamEntry
from repro.dataplane.vswitch import UPLINK, VSwitch, VSwitchRule
from repro.southbound.messages import ACK_APPLIED, ACK_DUPLICATE, ACK_STALE
from repro.southbound.state import VERSION_STRIDE, SwitchDiff
from repro.traffic.classes import TrafficClass


def entry_spec(entry: TcamEntry) -> tuple:
    """Canonical tuple form of a TCAM entry (order-independent compare)."""
    return (
        entry.name,
        entry.priority,
        entry.host_tag_is,
        entry.class_id,
        None if entry.hash_range is None else tuple(entry.hash_range),
        entry.action.kind.value,
        entry.action.subclass_id,
        entry.action.next_host,
    )


def spec_entry(spec: tuple) -> TcamEntry:
    """Rebuild a TCAM entry from its canonical tuple."""
    name, priority, host_tag_is, class_id, hash_range, kind, sub_id, nxt = spec
    return TcamEntry(
        priority=priority,
        action=Action(ActionKind(kind), subclass_id=sub_id, next_host=nxt),
        host_tag_is=host_tag_is,
        class_id=class_id,
        hash_range=None if hash_range is None else tuple(hash_range),
        name=name,
    )


def pass_by_entry(switch: str) -> TcamEntry:
    """Table III's catch-all: everything else goes to the next table."""
    return TcamEntry(
        priority=100,
        action=Action(ActionKind.GOTO_NEXT_TABLE),
        name=f"{switch}/pass-by",
    )


def host_match_entry(switch: str) -> TcamEntry:
    """Table III's host match: packets tagged for this host divert in."""
    return TcamEntry(
        priority=300,
        action=Action(ActionKind.FORWARD_TO_HOST),
        host_tag_is=switch,
        name=f"{switch}/host-match",
    )


def classification_entry(
    switch: str, class_id: str, hash_range: tuple, sub_id: int, first_host: str
) -> TcamEntry:
    """Table III's ingress classification of one sub-class: tag it, then
    divert to the local host or tag the first host and pass on."""
    if first_host == switch:
        action = Action(ActionKind.TAG_SUBCLASS_AND_FORWARD_TO_HOST, sub_id)
    else:
        action = Action(ActionKind.TAG_SUBCLASS_AND_HOST, sub_id, first_host)
    return TcamEntry(
        priority=200,
        action=action,
        host_tag_is="EMPTY",
        class_id=class_id,
        hash_range=hash_range,
        name=f"{switch}/classify/{class_id}#{sub_id}",
    )


def versioned(sub_id: int, version: int) -> int:
    return sub_id + version * VERSION_STRIDE


def _classify_prefix(switch: str) -> str:
    return f"{switch}/classify/"


@dataclass
class RefState:
    """``NetworkState`` as first written."""

    tcam: Dict[str, Dict[str, tuple]] = field(default_factory=dict)
    vsw: Dict[str, Dict[Tuple[str, int], Tuple[Tuple[str, ...], str]]] = field(
        default_factory=dict
    )
    origin: Dict[str, Tuple[tuple, ...]] = field(default_factory=dict)
    paths: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    _ingress: Optional[Dict[str, tuple]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def paths_at(self, switch: str) -> tuple:
        if self._ingress is None:
            index: Dict[str, list] = {}
            for class_id, path in sorted(self.paths.items()):
                if path:
                    index.setdefault(path[0], []).append((class_id, tuple(path)))
            self._ingress = {s: tuple(rows) for s, rows in index.items()}
        return self._ingress.get(switch, ())

    def signature_payload(self) -> dict:
        return {
            "tcam": {
                s: sorted(map(repr, specs.values()))
                for s, specs in sorted(self.tcam.items())
            },
            "vsw": {
                s: sorted(repr((k, v)) for k, v in table.items())
                for s, table in sorted(self.vsw.items())
            },
            "origin": {
                s: sorted(map(repr, tup)) for s, tup in sorted(self.origin.items())
            },
        }


def fields(state) -> tuple:
    """(tcam, vsw, origin, paths) of a ``RefState`` or a ``NetworkState``."""
    return state.tcam, state.vsw, state.origin, state.paths


def class_fingerprints(
    rules: GeneratedRules, classes: Iterable[TrafficClass]
) -> Dict[str, tuple]:
    classes = list(classes)
    parts: Dict[str, Tuple[list, list, list]] = {
        c.class_id: ([], [], []) for c in classes
    }
    for switch, rs in sorted(rules.switch_rule_sets.items()):
        for row in rs.classifications:
            if row[0] in parts:
                parts[row[0]][0].append((switch, row))
    for switch, lst in sorted(rules.vswitch_rules.items()):
        for class_id, sub_id, rule in lst:
            if class_id in parts:
                parts[class_id][1].append(
                    (switch, sub_id, tuple(rule.instance_ids), rule.exit_host_tag)
                )
    for switch, lst in sorted(rules.origin_rules.items()):
        for row in lst:
            if row[0] in parts:
                parts[row[0]][2].append((switch, row))
    return {
        c.class_id: (*map(tuple, parts[c.class_id]), tuple(c.path)) for c in classes
    }


def render_desired(
    all_switches: Iterable[str],
    host_switches: Iterable[str],
    rules: GeneratedRules,
    classes: Iterable[TrafficClass],
    stranded: Mapping[str, str],
    versions: Mapping[str, int],
) -> RefState:
    state = RefState()
    for s in all_switches:
        spec = entry_spec(pass_by_entry(s))
        state.tcam[s] = {spec[0]: spec}
    for s in host_switches:
        state.vsw.setdefault(s, {})
        state.origin.setdefault(s, ())

    for s, rs in rules.switch_rule_sets.items():
        table = state.tcam.setdefault(s, {})
        if rs.host_match:
            spec = entry_spec(host_match_entry(s))
            table[spec[0]] = spec
        for class_id, hash_range, sub_id, first_host in rs.classifications:
            vsub = versioned(sub_id, versions.get(class_id, 0))
            spec = entry_spec(
                classification_entry(s, class_id, hash_range, vsub, first_host)
            )
            table[spec[0]] = spec

    for class_id, src in stranded.items():
        table = state.tcam.setdefault(src, {})
        spec = entry_spec(quarantine_entry(src, class_id))
        table[spec[0]] = spec

    for s, lst in rules.vswitch_rules.items():
        table = state.vsw.setdefault(s, {})
        for class_id, sub_id, rule in lst:
            vsub = versioned(sub_id, versions.get(class_id, 0))
            table[(class_id, vsub)] = (
                tuple(rule.instance_ids),
                rule.exit_host_tag,
            )

    for s, lst in rules.origin_rules.items():
        rows = []
        for class_id, hash_range, sub_id, first_host in lst:
            vsub = versioned(sub_id, versions.get(class_id, 0))
            rows.append((class_id, tuple(hash_range), vsub, first_host))
        state.origin[s] = tuple(rows)

    for cls in classes:
        state.paths[cls.class_id] = tuple(cls.path)
    return state


def _read_vswitch(vsw: VSwitch) -> Tuple[dict, Tuple[tuple, ...]]:
    table: Dict[Tuple[str, int], Tuple[Tuple[str, ...], str]] = {}
    for (in_port, class_id, sub_id), rule in vsw.installed_rules().items():
        if in_port != UPLINK or sub_id is None:
            continue
        table[(class_id, sub_id)] = (tuple(rule.instance_ids), rule.exit_host_tag)
    origin = tuple(
        (cid, tuple(hr), sid, fh) for cid, hr, sid, fh in vsw.installed_origin_rules()
    )
    return table, origin


def read_installed(network: DataPlaneNetwork) -> RefState:
    """The live network read back from scratch, every switch."""
    state = RefState()
    for s, sw in sorted(network.switches.items()):
        state.tcam[s] = {e.name: entry_spec(e) for e in sw.table.entries()}
        vsw = network.vswitches.get(s)
        if vsw is not None:
            state.vsw[s], state.origin[s] = _read_vswitch(vsw)
    state.paths = dict(network.class_paths)
    return state


def diff_switch(s: str, installed, desired) -> SwitchDiff:
    diff = SwitchDiff(switch=s)
    prefix = _classify_prefix(s)
    inst = installed.tcam.get(s, {})
    want = desired.tcam.get(s, {})

    inst_classify = {n: v for n, v in inst.items() if n.startswith(prefix)}
    want_classify = {n: v for n, v in want.items() if n.startswith(prefix)}
    inst_other = {n: v for n, v in inst.items() if n not in inst_classify}
    want_other = {n: v for n, v in want.items() if n not in want_classify}

    for name in sorted(want_other):
        if name not in inst_other:
            diff.adds.append(("tcam_put", want_other[name]))
        elif inst_other[name] != want_other[name]:
            diff.swap.append(("tcam_put", want_other[name]))
    for name in sorted(inst_other):
        if name not in want_other:
            diff.dels.append(("tcam_del", name))

    if set(inst_classify.items()) != set(want_classify.items()):
        diff.swap.append(
            (
                "classify_sync",
                tuple(want_classify[n] for n in sorted(want_classify)),
                desired.paths_at(s),
            )
        )

    inst_vsw = installed.vsw.get(s, {})
    want_vsw = desired.vsw.get(s, {})
    for key in sorted(want_vsw):
        if key not in inst_vsw:
            ids, tag = want_vsw[key]
            diff.adds.append(("vsw_put", key[0], key[1], ids, tag))
        elif inst_vsw[key] != want_vsw[key]:
            ids, tag = want_vsw[key]
            diff.swap.append(("vsw_put", key[0], key[1], ids, tag))
    for key in sorted(inst_vsw):
        if key not in want_vsw:
            diff.dels.append(("vsw_del", key[0], key[1]))

    inst_origin = installed.origin.get(s, ())
    want_origin = desired.origin.get(s, ())
    if tuple(inst_origin) != tuple(want_origin):
        diff.swap.append(("origin_sync", tuple(want_origin), desired.paths_at(s)))
    return diff


def diffs(network: DataPlaneNetwork, desired) -> List[SwitchDiff]:
    """Every non-empty per-switch diff against a fresh read-back, by name."""
    installed = read_installed(network)
    out = [diff_switch(s, installed, desired) for s in sorted(network.switches)]
    return [d for d in out if not d.empty]


class ReferenceAgent:
    """``SwitchAgent`` as first written: fencing, cookies, one op at a time."""

    def __init__(
        self,
        switch: str,
        network: DataPlaneNetwork,
        on_paths_applied: Optional[Callable[[tuple], None]] = None,
    ) -> None:
        self.switch = switch
        self.network = network
        self.on_paths_applied = on_paths_applied
        self.current_epoch = -1
        self.applied_cookies: set = set()
        self.ops_applied = 0

    def receive(self, msg) -> str:
        if msg.epoch < self.current_epoch:
            return ACK_STALE
        if msg.epoch > self.current_epoch:
            self.current_epoch = msg.epoch
            self.applied_cookies.clear()
        if msg.cookie in self.applied_cookies:
            return ACK_DUPLICATE
        for op in msg.ops:
            self._apply(op)
        self.applied_cookies.add(msg.cookie)
        return ACK_APPLIED

    def _apply(self, op: tuple) -> None:
        kind = op[0]
        table = self.network.switches[self.switch].table
        if kind == "tcam_put":
            table.replace(spec_entry(op[1]))
        elif kind == "tcam_del":
            table.remove_by_name(op[1])
        elif kind == "classify_sync":
            _, specs, paths = op
            prefix = f"{self.switch}/classify/"
            table.remove_where(lambda e: e.name.startswith(prefix))
            for spec in specs:
                table.install(spec_entry(spec))
            self._register_paths(paths)
        elif kind == "vsw_put":
            _, class_id, sub_id, instance_ids, exit_tag = op
            vsw = self.network.vswitch_at(self.switch)
            if any(vsw.registered(iid) is None for iid in instance_ids):
                return
            vsw.install_rule(
                class_id, sub_id, VSwitchRule(tuple(instance_ids), exit_tag)
            )
        elif kind == "vsw_del":
            self.network.vswitch_at(self.switch).remove_rule(op[1], op[2])
        elif kind == "origin_sync":
            _, rows, paths = op
            vsw = self.network.vswitch_at(self.switch)
            vsw.clear_origin_rules()
            for class_id, hash_range, sub_id, first_host in rows:
                vsw.install_origin_rule(
                    class_id, tuple(hash_range), sub_id, first_host
                )
            self._register_paths(paths)
        else:
            raise ValueError(f"unknown southbound op kind {kind!r}")
        self.ops_applied += 1

    def _register_paths(self, paths: tuple) -> None:
        for class_id, path in paths:
            if self.network.class_paths.get(class_id) != tuple(path):
                self.network.register_class_path(class_id, path)
        if self.on_paths_applied is not None and paths:
            self.on_paths_applied(paths)
