"""Deployment verification: the three properties, read off the installed state.

Table I's properties are claims about what the installed rules do to a
packet.  This module checks them by reading that state as data, once per
audit, and following Table III symbolically.  It sends no packet and
writes no counter, ledger entry or admission window, so auditing one
unchanged deployment any number of times gives the same report.  The state
read:

* every switch's TCAM entries (``table.entries()``);
* every vSwitch's ``<in_port, class, sub-class>`` rules
  (``installed_rules()``) and the instances registered under the aliases
  those rules name (``running``, and the window budget of packets it
  admits);
* the registered class paths and the failed links.

The walk is Sallam et al.'s layered graph (PAPERS.md) for one class: one
copy of the class's registered path per chain position.  A switch hop stays
in its layer; a vSwitch rule's instance sequence climbs one layer per
instance.  A switch where the class has no entries of its own, and whose
other entries are the usual host-match above pass-by, only diverts the
cells tagged for its host, so a cell crosses a run of such switches in one
step, to the host it is tagged for.

Everything Table III does is piecewise-constant in the flow hash, so per
class the audit cuts ``[0, 1)`` at the interior hash-range bounds of every
installed entry the class can match on its path (its own and the
``class_id=None`` wildcards), splits each sub-class's ``[lo, hi)`` at the
cuts strictly inside it, and follows one probe hash per resulting
*cell*: ingress classification → host tag → host-match → vSwitch rule →
instance sequence → exit tag → … → the egress.  The checks:

* a cell is delivered when it reaches the egress; a DROP entry, a failed
  link, or a stopped instance or one whose budget is below one packet
  stops it.  So does anything that would make a packet walk raise: a
  missing vSwitch, rule or instance, an unregistered class or a re-tag for
  the host just left.  Every stop is a **delivery** violation naming the
  switch (and the key, when one is missing);
* a delivered cell must have climbed the layers in chain order (**policy
  enforcement**) along exactly the class's routing path: its layer-0
  projection (**interference freedom**).  :func:`probe_faults` applies the
  same two tests to a real packet's trace for the chaos probe loop;
* instance-to-host core accounting (**isolation**).

Admission windows are the one part of the state this does not read: how
many packets an instance refuses depends on the traffic in flight, which is
what the packet walkers' own tests check.

Why one hash stands for its whole cell: every match is a conjunction of
``lo <= h < hi`` comparisons whose bounds are all cuts, vSwitch dispatch is
keyed by (class, sub-class tag), and **nothing rewrites ``flow_hash`` in
flight** (``tests/test_verify_cells.py`` pins that on a NAT chain).  The
data plane's cache of resolved walks rests on the same assumption.  A VNF
that did rewrite the hash would make the cells downstream of its host
depend on the rewritten value, and the audit and the plans would both have
to re-cut after that hop.

The audit shares no match code with the data plane and never reads its
cache of resolved walks: an audit must not trust the cache it audits (a
rule table rewritten behind its generation counter is exactly what it is
there to catch).  ``tests/audit_reference.py`` keeps the first-written
packet audit as its cross-check.

The result is a structured report rather than a pass/fail, so partial
deployments and injected faults show up with precise locations.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro import obs
from repro.dataplane.network import DataPlaneNetwork
from repro.dataplane.packet import Packet
from repro.dataplane.tcam import ActionKind, TcamEntry
from repro.dataplane.vswitch import UPLINK, VSwitch
from repro.topology.graph import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.reconfigure import Deployment


@dataclass
class Violation:
    """One observed property violation."""

    kind: str  # "policy", "interference", "isolation", "delivery"
    class_id: str
    detail: str


@dataclass
class VerificationReport:
    """Outcome of a deployment audit.

    ``probes_sent`` counts the cells audited and ``probes_delivered`` the
    cells that reached their egress.
    """

    probes_sent: int = 0
    probes_delivered: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for v in self.violations:
            out[v.kind] = out.get(v.kind, 0) + 1
        return out

    def summary(self) -> str:
        status = "OK" if self.ok else "VIOLATIONS"
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(self.by_kind().items()))
        return (
            f"{status}: {self.probes_delivered}/{self.probes_sent} probes "
            f"delivered{'; ' + kinds if kinds else ''}"
        )


_EMPTY = "EMPTY"  # the host-tag value of an untagged packet
_GOTO_NEXT_TABLE = ActionKind.GOTO_NEXT_TABLE
_FORWARD_TO_HOST = ActionKind.FORWARD_TO_HOST
_TAG_SUBCLASS_AND_FORWARD_TO_HOST = ActionKind.TAG_SUBCLASS_AND_FORWARD_TO_HOST
_TAG_SUBCLASS_AND_HOST = ActionKind.TAG_SUBCLASS_AND_HOST


def _first(entries: List[TcamEntry], tag: str, h: float) -> Optional[TcamEntry]:
    """The first of ``entries`` (priority order) a cell tagged ``tag`` at
    hash ``h`` satisfies, None when it satisfies none."""
    for entry in entries:
        want = entry.host_tag_is
        if want is not None and want != tag:
            continue
        bounds = entry.hash_range
        if bounds is None or bounds[0] <= h < bounds[1]:
            return entry
    return None


class _Tables:
    """The installed state of one network, read once per audit."""

    def __init__(self, network: DataPlaneNetwork) -> None:
        paths = network.class_paths
        #: Per class, the bounds of its own entries on its registered path;
        #: per switch, the bounds of the wildcard (``class_id=None``)
        #: entries, which cut every class crossing it.
        self.own_cuts = own_cuts = {}
        self.wild_cuts = wild_cuts = {}
        #: Per switch: per class, its own and the wildcard entries in
        #: priority order; and the wildcard entries alone.
        self.entries = entries = {}
        #: Per class, the switches holding entries of its own.
        self.owned = owned = {}
        #: Switches whose wildcard entries (all a class without entries of
        #: its own there can match) pass every cell on, and switches whose
        #: wildcards do anything else than that or divert exactly the cells
        #: tagged for the switch (see :func:`_regular`).
        self.passing = passing = set()
        self.irregular = irregular = set()
        for name, switch in network.switches.items():
            by_class = {}
            wild = []
            for entry in switch.table.entries():
                class_id = entry.class_id
                if class_id is None:
                    wild.append(entry)
                    for listed in by_class.values():
                        listed.append(entry)
                else:
                    listed = by_class.get(class_id)
                    if listed is None:
                        by_class[class_id] = listed = list(wild)
                        owned.setdefault(class_id, []).append(name)
                    listed.append(entry)
                bounds = entry.hash_range
                if bounds is None:
                    continue
                lo, hi = bounds
                if not (0.0 < lo < 1.0 or 0.0 < hi < 1.0):
                    continue
                if class_id is None:
                    cuts = wild_cuts.setdefault(name, set())
                elif name in paths.get(class_id, ()):
                    cuts = own_cuts.setdefault(class_id, set())
                else:
                    continue
                if 0.0 < lo < 1.0:
                    cuts.add(lo)
                if 0.0 < hi < 1.0:
                    cuts.add(hi)
            entries[name] = by_class, wild
            regular = _regular(name, wild)
            if regular is None:
                irregular.add(name)
            elif not regular:
                passing.add(name)
        #: Per host switch: its rules, and per instance sequence a rule
        #: names, :func:`_admits` of it (filled as cells arrive).
        self.hosts = {
            name: (vsw.installed_rules(), {}, vsw)
            for name, vsw in network.vswitches.items()
        }


def _admits(switch: str, vsw: VSwitch, aliases: Tuple[str, ...]) -> tuple:
    """``(VNF types, stop)`` of a cell sent through the instances
    registered at ``vsw`` under ``aliases``; ``stop`` (None when every one
    admits it) ends the delivery violation's detail."""
    types = []
    for alias in aliases:
        instance = vsw.registered(alias)
        if instance is None:
            return (), f": vSwitch at {switch}: no instance {alias!r} registered"
        if not instance.running or instance._budget < 1:
            return (), f" dropped at {switch}"
        types.append(alias.split("[")[0])
    return tuple(types), None


def _regular(switch: str, wild: List[TcamEntry]) -> Optional[bool]:
    """How ``wild`` treats a cell, whatever its hash: True when it diverts
    a cell tagged ``switch`` into the host (sub-class tag kept) and passes
    every other cell on, False when it passes every cell on, None when
    neither holds."""
    if any(
        e.hash_range is not None or e.host_tag_is not in (None, switch) for e in wild
    ):
        return None
    away = _first(wild, _EMPTY, 0.0)
    if away is not None and away.action.kind is not _GOTO_NEXT_TABLE:
        return None
    home = _first(wild, switch, 0.0)
    kind = home.action.kind if home is not None else _GOTO_NEXT_TABLE
    if kind is _FORWARD_TO_HOST:
        return True
    return False if kind is _GOTO_NEXT_TABLE else None


def _cell_probes(lo: float, hi: float, cuts: List[float]) -> List[float]:
    """One probe hash per cell of ``[lo, hi)`` split at the cuts inside it."""
    probes = []
    left = lo
    inside = cuts[bisect_right(cuts, lo) : bisect_left(cuts, hi)] if cuts else ()
    for right in (*inside, hi):
        mid = left + (right - left) / 2
        # A cell a few ulps wide: its midpoint may round onto the right
        # edge, which belongs to the next cell.
        probes.append(mid if left <= mid < right else left)
        left = right
    return probes


def probe_faults(
    packet: Packet, chain: Tuple[str, ...], path: Optional[Tuple[str, ...]]
) -> Tuple[Optional[List[str]], Optional[List[str]]]:
    """Chain-order and routing-path checks of one delivered probe packet.

    Returns ``(visited, switches)``: the VNF types the probe traversed if
    they are not exactly ``chain`` (a **policy** violation), and the
    switches it crossed if they are not exactly ``path`` (an
    **interference** violation; ``path=None`` skips the check).  Each is
    None when its check passes.
    """
    visited: List[str] = []
    switches: List[str] = []
    for kind, name in packet.trace:
        if kind == "switch":
            switches.append(name)
        elif kind == "vnf":
            visited.append(name.split("[")[0])
    return (
        visited if tuple(visited) != chain else None,
        switches if path is not None and tuple(switches) != path else None,
    )


def _audit_cells(
    tables: _Tables, network: DataPlaneNetwork, classes, subclass_plan, violations
) -> Tuple[int, int]:
    """Follow every cell of every class; returns ``(cells, delivered)``."""
    paths = network.class_paths
    failed = network.failed_links
    own_cuts = tables.own_cuts
    wild_cuts = tables.wild_cuts
    owned = tables.owned
    passing = tables.passing
    irregular = tables.irregular
    entries = tables.entries
    hosts = tables.hosts
    subclasses = subclass_plan.subclasses
    cells = delivered = 0
    for cls in classes:
        class_id = cls.class_id
        chain = cls.chain.names
        path = paths.get(class_id)
        if path is None:
            fault = f"class {class_id!r} has no registered path"
            path = ()
        elif path[0] != cls.src or path[-1] != cls.dst:
            fault = f"src/dst {cls.src}->{cls.dst} disagree with path {list(path)}"
        else:
            fault = None
        bounds = own_cuts.get(class_id, ())
        if wild_cuts:
            bounds = set(bounds).union(*(wild_cuts[s] for s in path if s in wild_cuts))
        cuts = sorted(bounds) if bounds else ()

        # The hops a cell can make: up to the upstream end of the first
        # failed link on the path, where it black-holes.
        reach = len(path)
        walked = path
        black_hole = None
        if failed:
            for i in range(1, reach):
                u, v = path[i - 1], path[i]
                if ((u, v) if u <= v else (v, u)) in failed:
                    reach = i
                    walked = path[:i]
                    black_hole = u
                    break
        detour = path != cls.path
        # Where the class's own entries (or an irregular switch) decide.
        # Every other switch diverts a cell into its host exactly when the
        # cell is tagged for it (or never), so a cell skips ahead between
        # them.
        marked = owned.get(class_id, ())
        if irregular:
            marked = irregular.union(marked)
        if walked and marked == [walked[0]] and walked.count(walked[0]) == 1:
            decide = (0, reach)  # the common case: the ingress classifies, once
        else:
            decide = [i for i, s in enumerate(walked) if s in marked]
            decide.append(reach)

        for sub in subclasses(class_id):
            lo, hi = sub.hash_range
            if hi <= lo:
                continue
            for h in _cell_probes(lo, hi, cuts):
                cells += 1
                if fault is not None:
                    violations.append(
                        Violation(
                            "delivery", class_id, f"probe at hash {h:.6f}: {fault}"
                        )
                    )
                    continue
                tag = _EMPTY
                subclass_tag = None
                visited: tuple = ()
                stop = None
                pos = k = 0
                while pos < reach:
                    nxt = decide[k]
                    if pos < nxt:
                        # Up to nxt only the host the cell is tagged for acts.
                        at = nxt
                        if tag in walked:
                            try:
                                at = walked.index(tag, pos, nxt)
                            except ValueError:
                                pass
                        if at == nxt:
                            pos = at
                            continue
                        if walked[at] in passing:
                            pos = at + 1
                            continue
                        pos = at
                    else:
                        k += 1
                        own, wild = entries[walked[pos]]
                        entry = _first(own.get(class_id, wild), tag, h)
                        if entry is None:  # a miss passes the cell on
                            pos += 1
                            continue
                        action = entry.action
                        kind = action.kind
                        if kind is _TAG_SUBCLASS_AND_HOST:
                            subclass_tag = action.subclass_id
                            tag = action.next_host
                            if tag is None:
                                tag = _EMPTY
                            pos += 1
                            continue
                        if kind is _TAG_SUBCLASS_AND_FORWARD_TO_HOST:
                            subclass_tag = action.subclass_id
                        elif kind is _GOTO_NEXT_TABLE:
                            pos += 1
                            continue
                        elif kind is not _FORWARD_TO_HOST:
                            stop = f" dropped at {walked[pos]}"
                            break
                    name = walked[pos]
                    host = hosts.get(name)
                    if host is None:
                        stop = f": no APPLE host/vSwitch at switch {name}"
                        break
                    rules, admitted, vsw = host
                    key = (UPLINK, class_id, subclass_tag)
                    rule = rules.get(key)
                    if rule is None:
                        stop = f": vSwitch at {name}: no rule for {key!r}"
                        break
                    aliases = rule.instance_ids
                    admit = admitted.get(aliases)
                    if admit is None:
                        admit = admitted[aliases] = _admits(name, vsw, aliases)
                    types, stop = admit
                    if stop is not None:
                        break
                    tag = rule.exit_host_tag
                    if tag is None:
                        tag = _EMPTY
                    elif tag == name:
                        stop = (
                            f": vSwitch at {name}: rule {key!r} re-tags for the "
                            f"host it just left"
                        )
                        break
                    visited += types
                    pos += 1
                else:
                    if black_hole is not None:
                        stop = f" dropped at {black_hole}"
                if stop is not None:
                    violations.append(
                        Violation("delivery", class_id, f"probe at hash {h:.6f}{stop}")
                    )
                    continue
                delivered += 1
                if visited != chain:
                    violations.append(
                        Violation(
                            "policy",
                            class_id,
                            f"hash {h:.6f}: traversed {list(visited)}, policy "
                            f"requires {list(chain)}",
                        )
                    )
                if detour:
                    violations.append(
                        Violation(
                            "interference",
                            class_id,
                            f"hash {h:.6f}: path {list(path)} "
                            f"differs from routing path {list(cls.path)}",
                        )
                    )
    return cells, delivered


def verify_deployment(deployment: Deployment, topo: Topology) -> VerificationReport:
    """Audit a deployment's installed state; returns the structured report."""
    report = VerificationReport()
    violations = report.violations
    network = deployment.network
    report.probes_sent, report.probes_delivered = _audit_cells(
        _Tables(network),
        network,
        deployment.plan.classes,
        deployment.subclass_plan,
        violations,
    )

    # Isolation: distinct instance objects, host budgets respected.
    cores_used: Dict[str, int] = {}
    seen_ids = set()
    for key, inst in deployment.instances.items():
        if id(inst) in seen_ids:
            report.violations.append(
                Violation("isolation", "-", f"instance object shared for {key}")
            )
        seen_ids.add(id(inst))
        cores_used[inst.switch] = (
            cores_used.get(inst.switch, 0) + inst.nf_type.cores
        )
    for switch, used in cores_used.items():
        budget = topo.host_cores(switch)
        if used > budget:
            report.violations.append(
                Violation(
                    "isolation",
                    "-",
                    f"switch {switch}: {used} cores allocated, budget {budget}",
                )
            )

    if obs.REGISTRY.enabled:
        result = "ok" if report.ok else "violations"
        obs.metric("controller_verify_calls_total").labels(result=result).inc()
        obs.metric("controller_verify_probes_total").inc(report.probes_sent)
    return report
