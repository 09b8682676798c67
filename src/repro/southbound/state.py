"""Desired vs installed data-plane state: rendering, reading, diffing.

:func:`render_desired` is the one layout of Table III: every rule is
rendered here as a spec and written by
:func:`~repro.southbound.channel.apply_ops`, at day 0 a whole slice at a
time (:func:`slice_ops`).  After that, the fabric's
reconciler and its transactional installer share one diff engine:
*desired* state is rendered from
:class:`~repro.core.rulegen.GeneratedRules` (plus quarantine entries for
stranded classes), *installed* state is read back from the live
:class:`~repro.dataplane.network.DataPlaneNetwork`, and the per-switch
difference becomes phased op lists (adds → classification swap →
deletes) for the make-before-break transaction.  Read-back and diff are
kept per switch by :class:`InstalledView` and redone only where the
switch's generation counters moved or a new desired state arrived.

An epoch costs what it changes: the render builds spec tuples directly (no
TCAM entry per row), a read-back takes each entry's cached
:attr:`~repro.dataplane.tcam.TcamEntry.spec` (the very tuple it was
installed from), and a switch whose installed rules equal the desired ones
(a dict compare that mostly meets identical tuples) is in sync without
running :func:`diff_switch`.

Sub-class ID versioning (the make-before-break enabler)
-------------------------------------------------------

A rule *update* for an existing ``(class, sub)`` vSwitch key cannot be
pushed safely in any phase: while switches disagree, a packet classified
by an old entry could be processed by a new rule half-way (policy
violation).  The fabric therefore bumps a per-class *version* whenever a
class's rule content changes, and renders every sub-class ID of that
class as ``sub_id + version × VERSION_STRIDE``.  New-version rules are
pure *adds* — unreferenced (inert) until the class's ingress
classification swaps to the new IDs in one atomic sync — and the old
version's rules become pure *deletes* afterwards.  Sub-class IDs are
internal correlation tags (matched only between a classification entry's
action and the vSwitch rule key), so renumbering is invisible to the
data plane's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.rulegen import GeneratedRules
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.switch import classification_spec, quarantine_entry
from repro.dataplane.tcam import TcamTable
from repro.dataplane.vswitch import UPLINK, VSwitch
from repro.southbound.messages import EntrySpec, host_match_spec, pass_by_spec
from repro.traffic.classes import TrafficClass

#: Gap between consecutive sub-class ID versions of one class.  Far above
#: any real sub-class count (TagAllocator IDs are small ints), so two
#: versions can never collide.
VERSION_STRIDE = 1_000_000


def _classify_prefix(switch: str) -> str:
    return f"{switch}/classify/"


#: What a state lists for a switch it holds no rules of (never mutated).
_NO_RULES: dict = {}


@dataclass
class NetworkState:
    """Canonical per-switch snapshot of every APPLE-managed rule.

    Used for both the *desired* rendering and the *installed* read-back,
    so convergence is literally ``installed == desired`` field by field.

    Attributes:
        tcam: per physical switch, entries by name.
        vsw: per host switch, vSwitch rules by ``(class_id, sub_id)`` →
            ``(instance_ids, exit_host_tag)``.
        origin: per host switch, the origin classification tuples.
        paths: registered routing path per class (desired side only lists
            classes of the current plan; stale installed paths of removed
            classes are deliberately kept — quarantine needs a path to
            walk packets into the ingress DROP).
    """

    tcam: Dict[str, Dict[str, EntrySpec]] = field(default_factory=dict)
    vsw: Dict[str, Dict[Tuple[str, int], Tuple[Tuple[str, ...], str]]] = field(
        default_factory=dict
    )
    origin: Dict[str, Tuple[tuple, ...]] = field(default_factory=dict)
    paths: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: (the ``paths`` dict it indexes, ingress switch -> rows).
    _ingress: Optional[Tuple[dict, Dict[str, tuple]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def paths_at(self, switch: str) -> tuple:
        """(class_id, path) updates riding a sync op at ``switch``.

        A class's path is registered at its ingress switch's sync, so path
        and classification change in the same atomic apply.  The ingress
        index is built on first use and again whenever ``paths`` has been
        reassigned (it must not be mutated in place).
        """
        cached = self._ingress
        if cached is None or cached[0] is not self.paths:
            index: Dict[str, list] = {}
            for class_id, path in sorted(self.paths.items()):
                if path:
                    index.setdefault(path[0], []).append((class_id, tuple(path)))
            ingress = {s: tuple(rows) for s, rows in index.items()}
            cached = self._ingress = (self.paths, ingress)
        return cached[1].get(switch, ())

    def in_sync_at(self, switch: str, desired: "NetworkState") -> bool:
        """Whether ``switch`` holds exactly ``desired``'s rules there.

        True exactly when :func:`diff_switch` would come back empty (a
        switch a state does not list holds no rules; paths are not rules).
        """
        for mine, theirs, empty in (
            (self.tcam, desired.tcam, _NO_RULES),
            (self.vsw, desired.vsw, _NO_RULES),
            (self.origin, desired.origin, ()),
        ):
            have, want = mine.get(switch, empty), theirs.get(switch, empty)
            if have is not want and have != want:
                return False
        return True

    def signature_payload(self) -> dict:
        """JSON-ready canonical form (tests compare state signatures)."""
        return {
            "tcam": {
                s: sorted(map(repr, specs.values()))
                for s, specs in sorted(self.tcam.items())
            },
            "vsw": {
                s: sorted(
                    repr((k, v)) for k, v in table.items()
                )
                for s, table in sorted(self.vsw.items())
            },
            "origin": {
                s: sorted(map(repr, tup)) for s, tup in sorted(self.origin.items())
            },
        }


def class_fingerprints(
    rules: GeneratedRules, classes: Iterable[TrafficClass]
) -> Dict[str, tuple]:
    """Per class, everything about its rules that must swap atomically.

    A change in any component (classification rows, vSwitch rules, origin
    rows, or the routing path) bumps the class's version, turning the
    update into add-new → swap → delete-old.  One pass over ``rules``
    serves every class.
    """
    # Per-class lists exist only for classes with rows of that kind: every
    # list and tuple here is one more object for the cyclic collector.
    rows: Dict[str, list] = {}
    vsw: Dict[str, list] = {}
    origin: Dict[str, list] = {}
    for switch, rs in sorted(rules.switch_rule_sets.items()):
        for row in rs.classifications:
            found = rows.get(row[0])
            if found is None:
                rows[row[0]] = [(switch, row)]
            else:
                found.append((switch, row))
    for switch, lst in sorted(rules.vswitch_rules.items()):
        for class_id, sub_id, rule in lst:
            part = (switch, sub_id, tuple(rule.instance_ids), rule.exit_host_tag)
            found = vsw.get(class_id)
            if found is None:
                vsw[class_id] = [part]
            else:
                found.append(part)
    for switch, lst in sorted(rules.origin_rules.items()):
        for row in lst:
            origin.setdefault(row[0], []).append((switch, row))
    return {
        c.class_id: (
            tuple(rows.get(c.class_id, ())),
            tuple(vsw.get(c.class_id, ())),
            tuple(origin.get(c.class_id, ())),
            tuple(c.path),
        )
        for c in classes
    }


def render_desired(
    all_switches: Iterable[str],
    host_switches: Iterable[str],
    rules: GeneratedRules,
    classes: Iterable[TrafficClass],
    stranded: Mapping[str, str],
    versions: Mapping[str, int],
) -> NetworkState:
    """Desired state for one plan.

    Args:
        all_switches: every physical switch (each gets at least pass-by).
        host_switches: switches with an APPLE host (vSwitch state exists).
        rules: the Rule Generator's output for the current plan.
        classes: the plan's classes (paths + ingress switches).
        stranded: class_id → ingress switch of quarantined classes.
        versions: per-class sub-ID version (see module docstring).
    """
    state = NetworkState()
    for s in all_switches:
        spec = pass_by_spec(s)
        state.tcam[s] = {spec[0]: spec}
    for s in host_switches:
        state.vsw.setdefault(s, {})
        state.origin.setdefault(s, ())

    version = versions.get
    for s, rs in rules.switch_rule_sets.items():
        table = state.tcam.setdefault(s, {})
        if rs.host_match:
            spec = host_match_spec(s)
            table[spec[0]] = spec
        for class_id, hash_range, sub_id, first_host in rs.classifications:
            vsub = sub_id + version(class_id, 0) * VERSION_STRIDE
            spec = classification_spec(s, class_id, hash_range, vsub, first_host)
            table[spec[0]] = spec

    for class_id, src in stranded.items():
        table = state.tcam.setdefault(src, {})
        spec = quarantine_entry(src, class_id).spec
        table[spec[0]] = spec

    for s, lst in rules.vswitch_rules.items():
        table = state.vsw.setdefault(s, {})
        for class_id, sub_id, rule in lst:
            vsub = sub_id + version(class_id, 0) * VERSION_STRIDE
            table[(class_id, vsub)] = (tuple(rule.instance_ids), rule.exit_host_tag)

    for s, lst in rules.origin_rules.items():
        rows = []
        for class_id, hash_range, sub_id, first_host in lst:
            vsub = sub_id + version(class_id, 0) * VERSION_STRIDE
            rows.append((class_id, tuple(hash_range), vsub, first_host))
        state.origin[s] = tuple(rows)

    for cls in classes:
        state.paths[cls.class_id] = tuple(cls.path)
    return state


def slice_ops(state: NetworkState, s: str) -> List[tuple]:
    """Ops writing ``state``'s slice at ``s`` onto a switch holding none of
    it (day 0: no diff): puts, then one ``classify_sync`` in render order.
    Paths ride no op: day 0 registers them first."""
    prefix = _classify_prefix(s)
    specs = state.tcam.get(s, _NO_RULES).values()
    ops = [("tcam_put", spec) for spec in specs if not spec[0].startswith(prefix)]
    classify = tuple([spec for spec in specs if spec[0].startswith(prefix)])
    ops.append(("classify_sync", classify, ()))
    for (class_id, sub_id), (ids, tag) in state.vsw.get(s, _NO_RULES).items():
        ops.append(("vsw_put", class_id, sub_id, ids, tag))
    if state.origin.get(s):
        ops.append(("origin_sync", state.origin[s], ()))
    return ops


def _read_table(table: TcamTable) -> Dict[str, EntrySpec]:
    return {e.name: e.spec for e in table.entries()}


def _vswitch_in_sync(
    vsw: VSwitch, want: Mapping[Tuple[str, int], tuple], want_origin: tuple
) -> bool:
    """True only if :func:`_read_vswitch` would return ``(want, want_origin)``.

    Compares the vSwitch's rules with ``want`` in place, copying none.  A
    rule whose ``instance_ids`` is not a tuple reads as a mismatch (the
    read-back then decides).
    """
    count = 0
    get = want.get
    for (in_port, class_id, sub_id), rule in vsw.installed_rules().items():
        if in_port != UPLINK or sub_id is None:
            continue
        have = get((class_id, sub_id))
        if have is None or have[0] != rule.instance_ids or have[1] != rule.exit_host_tag:
            return False
        count += 1
    return count == len(want) and tuple(want_origin) == tuple(
        (cid, tuple(hr), sid, fh) for cid, hr, sid, fh in vsw.installed_origin_rules()
    )


def _read_vswitch(vsw: VSwitch) -> Tuple[dict, Tuple[tuple, ...]]:
    table = {
        (class_id, sub_id): (tuple(rule.instance_ids), rule.exit_host_tag)
        for (in_port, class_id, sub_id), rule in vsw.installed_rules().items()
        if in_port == UPLINK and sub_id is not None
    }
    origin = tuple(
        (cid, tuple(hr), sid, fh) for cid, hr, sid, fh in vsw.installed_origin_rules()
    )
    return table, origin


@dataclass(slots=True)
class SwitchDiff:
    """Phased op lists reconciling one switch toward desired state."""

    switch: str
    adds: List[tuple] = field(default_factory=list)
    swap: List[tuple] = field(default_factory=list)
    dels: List[tuple] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.adds or self.swap or self.dels)

    def op_count(self) -> int:
        return len(self.adds) + len(self.swap) + len(self.dels)


#: The diff of every switch in sync (shared, immutable: no switch name and
#: no op lists to fill; an empty diff is never sent).
IN_SYNC = SwitchDiff("", (), (), ())


def diff_switch(s: str, installed: NetworkState, desired: NetworkState) -> SwitchDiff:
    """The phased diff of one switch (possibly empty).

    Phase safety invariants:

    * ``adds`` contains only state that is *inert* until the swap —
      non-classification TCAM entries (host-match for newly used hosts,
      quarantine DROPs below classification priority) and vSwitch rules
      for keys nothing classifies to yet.
    * ``swap`` is one atomic ``classify_sync`` (and/or ``origin_sync``)
      per switch: classification entries and the affected class paths
      change together, so at every instant each class's packets are
      either fully old-route or fully new-route.
    * ``dels`` removes only state nothing references once every swap has
      been acknowledged.
    """
    diff = SwitchDiff(switch=s)
    prefix = _classify_prefix(s)
    inst = installed.tcam.get(s, {})
    want = desired.tcam.get(s, {})

    inst_classify: Dict[str, EntrySpec] = {}
    inst_other: Dict[str, EntrySpec] = {}
    for name, spec in inst.items():
        (inst_classify if name.startswith(prefix) else inst_other)[name] = spec
    want_classify: Dict[str, EntrySpec] = {}
    want_other: Dict[str, EntrySpec] = {}
    for name, spec in want.items():
        (want_classify if name.startswith(prefix) else want_other)[name] = spec

    for name in sorted(want_other):
        if name not in inst_other:
            diff.adds.append(("tcam_put", want_other[name]))
        elif inst_other[name] != want_other[name]:
            # Same-name content change (should not occur for the
            # static entry kinds; handled atomically for safety).
            diff.swap.append(("tcam_put", want_other[name]))
    for name in sorted(inst_other):
        if name not in want_other:
            diff.dels.append(("tcam_del", name))

    if inst_classify != want_classify:
        diff.swap.append(
            (
                "classify_sync",
                tuple([want_classify[n] for n in sorted(want_classify)]),
                desired.paths_at(s),
            )
        )

    inst_vsw = installed.vsw.get(s, {})
    want_vsw = desired.vsw.get(s, {})
    have = inst_vsw.get
    added, changed = [], []
    for key, value in want_vsw.items():
        old = have(key)
        if old is None:
            added.append(key)
        elif old != value:
            changed.append(key)
    for key in sorted(added):
        ids, tag = want_vsw[key]
        diff.adds.append(("vsw_put", key[0], key[1], ids, tag))
    for key in sorted(changed):
        ids, tag = want_vsw[key]
        diff.swap.append(("vsw_put", key[0], key[1], ids, tag))
    for key in sorted([key for key in inst_vsw if key not in want_vsw]):
        diff.dels.append(("vsw_del", key[0], key[1]))

    inst_origin = installed.origin.get(s, ())
    want_origin = desired.origin.get(s, ())
    if tuple(inst_origin) != tuple(want_origin):
        diff.swap.append(("origin_sync", tuple(want_origin), desired.paths_at(s)))
    return diff


class _SwitchView:
    """One switch's cache line in an :class:`InstalledView`."""

    __slots__ = ("name", "table", "vswitch", "tcam_gen", "vsw_gen", "diff")

    def __init__(self, name: str, table: TcamTable, vswitch: Optional[VSwitch]) -> None:
        self.name = name
        self.table = table
        self.vswitch = vswitch
        self.tcam_gen = self.vsw_gen = -1  # no generation is negative: cold
        self.diff: Optional[SwitchDiff] = None  # None: must be recomputed


class InstalledView:
    """The live network read back per switch, re-read only where it moved.

    Each switch's snapshot is stamped with the generation counters of its
    TCAM table and its vSwitch — the counters every rule mutator bumps
    (see both classes' docstrings).  Every such bump also moves the
    network's ``rule_epoch`` (the counter ``DataPlaneNetwork`` retires walk
    plans by; ``tests/test_dataplane_generation.py`` and
    ``tests/test_idle_passes.py`` enforce it), so the view remembers the
    epoch of its last pass: a pass over an unchanged network is one integer
    comparison per network.  When the epoch moved, a switch is re-read only
    where a stamp moved, and its :class:`SwitchDiff` is recomputed only
    when it was re-read or a new desired state arrived; a switch in sync
    (:meth:`NetworkState.in_sync_at`) gets the empty diff without
    :func:`diff_switch`.  A re-read slice that equals the desired one is
    kept as the desired state's own (equal, never mutated) dict, and a
    vSwitch is compared with it in place (:func:`_vswitch_in_sync`) before
    any copy is made, so a converged epoch copies no vSwitch rule.  A new
    view is cold: its first pass reads and diffs every switch with the same
    code.

    A switch in sync holds the one shared :data:`IN_SYNC` diff, not a
    fresh empty :class:`SwitchDiff`: a view lives as long as its fabric, so
    every object it keeps outlives the young generations of the cyclic
    collector.
    """

    def __init__(self, network: DataPlaneNetwork) -> None:
        self.network = network
        self._installed = NetworkState()
        self._switches = [
            _SwitchView(s, sw.table, network.vswitches.get(s))
            for s, sw in sorted(network.switches.items())
        ]
        self._desired: Optional[NetworkState] = None
        self._work: List[SwitchDiff] = []
        self._epoch = -1  # no epoch is negative: cold

    def _refresh(self, desired: Optional[NetworkState]) -> bool:
        """Re-read every switch whose stamp moved; True if any did."""
        epoch = self.network.rule_epoch
        if epoch == self._epoch:
            return False
        self._epoch = epoch
        moved = False
        installed = self._installed
        for sv in self._switches:
            s = sv.name
            gen = sv.table.generation
            if gen != sv.tcam_gen:
                got = _read_table(sv.table)
                want = None if desired is None else desired.tcam.get(s)
                installed.tcam[s] = want if got == want else got
                sv.tcam_gen = gen
                sv.diff = None
                moved = True
            vsw = sv.vswitch
            if vsw is not None and vsw.generation != sv.vsw_gen:
                if desired is not None and _vswitch_in_sync(
                    vsw, desired.vsw.get(s, _NO_RULES), desired.origin.get(s, ())
                ):
                    installed.vsw[s] = desired.vsw.get(s, _NO_RULES)
                    installed.origin[s] = desired.origin.get(s, ())
                else:
                    installed.vsw[s], installed.origin[s] = _read_vswitch(vsw)
                sv.vsw_gen = vsw.generation
                sv.diff = None
                moved = True
        return moved

    def state(self) -> NetworkState:
        """The current installed state (shared with the view: do not mutate)."""
        self._refresh(self._desired)
        self._installed.paths = dict(self.network.class_paths)
        return self._installed

    def diffs(self, desired: NetworkState) -> List[SwitchDiff]:
        """Per-switch phased diffs (only switches with work), sorted by name."""
        stale = self._refresh(desired)
        if desired is not self._desired:
            for sv in self._switches:
                sv.diff = None
            self._desired = desired
            stale = True
        if stale:
            installed = self._installed
            for sv in self._switches:
                if sv.diff is None:
                    sv.diff = (
                        IN_SYNC
                        if installed.in_sync_at(sv.name, desired)
                        else diff_switch(sv.name, installed, desired)
                    )
            self._work = [sv.diff for sv in self._switches if not sv.diff.empty]
        return self._work


def read_installed(network: DataPlaneNetwork) -> NetworkState:
    """Read the live network back into the canonical state shape."""
    return InstalledView(network).state()
