"""The interval-exact audit against the three-point sampler it replaced.

``verify_deployment`` walks one reference probe per installed hash cell.
The sampler it replaced — three probes per sub-class, at the midpoint and
next to both boundaries — lives on here as the reference oracle:

* differentially, on seeded Internet2 and GEANT deployments, clean and
  sabotaged: everything the sampler reports, the cell audit reports, and a
  clean deployment costs exactly one probe per sub-class;
* four sabotage regressions the sampler cannot see (each asserts the
  oracle's miss next to the audit's catch);
* the assumption the one-probe-per-cell argument rests on: nothing
  rewrites ``flow_hash`` in flight.
"""

import math
from dataclasses import replace
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.verify import VerificationReport, Violation, verify_deployment
from repro.dataplane.packet import FIN, Packet
from repro.dataplane.tcam import Action, ActionKind, TcamEntry
from repro.dataplane.vswitch import UPLINK, VSwitchRule
from repro.experiments.harness import standard_setup
from repro.sim.kernel import Simulator

SABOTAGE_PRIORITY = 10**6  # above every Table III priority


# ----------------------------------------------------------------------
# The reference oracle: the three-point sampler
# ----------------------------------------------------------------------
def _probe_hashes(lo: float, hi: float) -> List[float]:
    """Midpoint plus near-boundary points of a hash interval."""
    eps = min(1e-6, (hi - lo) / 4) or 1e-9
    points = [(lo + hi) / 2, lo, max(lo, hi - eps)]
    return sorted({min(max(p, 0.0), 1.0 - 1e-12) for p in points})


def three_point_audit(deployment) -> VerificationReport:
    """The probe loop of the pre-cell ``verify_deployment``: same probes,
    same checks, details shortened (the isolation audit, which probes
    nothing, is left out)."""
    report = VerificationReport()
    for cls in deployment.plan.classes:
        for sub in deployment.subclass_plan.subclasses(cls.class_id):
            lo, hi = sub.hash_range
            if hi <= lo:
                continue
            for h in _probe_hashes(lo, hi):
                report.probes_sent += 1
                packet = Packet(
                    class_id=cls.class_id, flow_hash=h, src=cls.src, dst=cls.dst
                )
                record = deployment.network.walk_reference(packet)
                if not record.delivered:
                    report.violations.append(
                        Violation("delivery", cls.class_id, f"hash {h:.6f}")
                    )
                    continue
                report.probes_delivered += 1
                visited = [v.split("[")[0] for v in packet.vnfs_visited()]
                if visited != list(cls.chain.names):
                    report.violations.append(
                        Violation("policy", cls.class_id, f"hash {h:.6f}")
                    )
                if tuple(packet.switches_visited()) != cls.path:
                    report.violations.append(
                        Violation("interference", cls.class_id, f"hash {h:.6f}")
                    )
    return report


# ----------------------------------------------------------------------
# Deployments and sabotage
# ----------------------------------------------------------------------
def _deploy(topology: str, seed: int):
    topo, controller, series = standard_setup(topology, snapshots=2, seed=seed)
    plan = controller.compute_placement(series.mean())
    return topo, controller.deploy(plan, sim=Simulator(seed=3))


def _audits(deployment, topo):
    """(oracle report, cell-audit report), each from a clean runtime slate
    — probes are stamped ``now=0`` and stay in the admission windows."""
    deployment.network.reset_runtime_state()
    oracle = three_point_audit(deployment)
    deployment.network.reset_runtime_state()
    return oracle, verify_deployment(deployment, topo)


def _found(report):
    return {(v.kind, v.class_id) for v in report.violations}


def _subclass_count(deployment) -> int:
    return sum(
        1
        for cls in deployment.plan.classes
        for sub in deployment.subclass_plan.subclasses(cls.class_id)
        if sub.hash_range[1] > sub.hash_range[0]
    )


def _drop(deployment, switch, class_id, hash_range, name="sabotage/drop"):
    deployment.network.switches[switch].table.install(
        TcamEntry(
            priority=SABOTAGE_PRIORITY,
            action=Action(ActionKind.DROP),
            class_id=class_id,
            hash_range=hash_range,
            name=name,
        )
    )


def _retag_to_shorter_chain(deployment, cls, sub, hash_range):
    """Classify ``hash_range`` of ``sub`` into a rogue sub-class 99 whose
    vSwitch rule skips the last instance and declares the chain done."""
    network = deployment.network
    ingress = cls.path[0]
    name = f"{ingress}/classify/{cls.class_id}#{sub.sub_id}"
    entry = next(e for e in network.switches[ingress].table.entries() if e.name == name)
    first_host = entry.action.next_host or ingress
    vsw = network.vswitches[first_host]
    rule = vsw.installed_rules()[(UPLINK, cls.class_id, sub.sub_id)]
    vsw.install_rule(cls.class_id, 99, VSwitchRule(rule.instance_ids[:-1], FIN))
    network.switches[ingress].table.install(
        replace(
            entry,
            priority=SABOTAGE_PRIORITY,
            hash_range=hash_range,
            action=replace(entry.action, subclass_id=99),
            name="sabotage/retag",
        )
    )


def _shorten_rule_behind_the_counter(deployment, cls):
    """Drop the last instance of one of the class's vSwitch rules without
    moving any generation counter."""
    for vsw in deployment.network.vswitches.values():
        for key, rule in vsw._rules.items():
            if key[1] == cls.class_id:
                vsw._rules[key] = VSwitchRule(
                    rule.instance_ids[:-1], rule.exit_host_tag
                )
                return


def _sabotage(deployment, cls, kind: str, at: float):
    """Break ``cls`` one way; the violation kind that must follow (None
    when the class is left alone)."""
    network = deployment.network
    if kind == "drop":
        _drop(deployment, cls.path[0], cls.class_id, (at, min(1.0, at + 0.05)))
        return "delivery"
    if kind == "retag":
        sub = deployment.subclass_plan.subclass_for_hash(cls.class_id, at)
        hi = min(sub.hash_range[1], at + 0.05)
        _retag_to_shorter_chain(deployment, cls, sub, (at, hi))
        return "policy"
    if kind == "short_rule":
        _shorten_rule_behind_the_counter(deployment, cls)
        return "policy"
    if kind == "link" and len(cls.path) > 1:
        network.set_link_failed(cls.path[0], cls.path[1], True)
        return "delivery"
    if kind == "detour" and len(cls.path) > 1:
        # Reach the egress, bounce back one hop, reach it again.
        network.register_class_path(
            cls.class_id, cls.path + (cls.path[-2], cls.path[-1])
        )
        return "interference"
    return None


@pytest.mark.parametrize("topology", ["internet2", "geant"])
@settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    seed=st.integers(0, 2**10),
    victim=st.integers(0, 10**6),
    kind=st.sampled_from(["none", "drop", "retag", "short_rule", "link", "detour"]),
    at=st.floats(0.0, 0.94),
)
def test_cell_audit_reports_everything_the_sampler_does(
    topology, seed, victim, kind, at
):
    topo, deployment = _deploy(topology, seed)
    classes = deployment.plan.classes
    clean, report = _audits(deployment, topo)
    assert clean.ok and report.ok, report.summary()
    assert report.probes_sent == _subclass_count(deployment)
    assert report.probes_delivered == report.probes_sent

    cls = classes[victim % len(classes)]
    expected = _sabotage(deployment, cls, kind, at)
    oracle, report = _audits(deployment, topo)
    assert _found(oracle) <= _found(report)
    assert report.probes_sent >= _subclass_count(deployment)
    if expected is not None:
        assert (expected, cls.class_id) in _found(report)


# ----------------------------------------------------------------------
# What sampling missed
# ----------------------------------------------------------------------
SLIVER = (0.30, 0.31)


@pytest.fixture
def internet2():
    return _deploy("internet2", 0)


def _victim(deployment, subclasses: int = 1, chain_length: int = 1):
    """(class, its first sub-class): the first class with that many
    sub-classes whose first one holds SLIVER strictly inside, away from
    all three sample points of the oracle."""
    for cls in deployment.plan.classes:
        subs = deployment.subclass_plan.subclasses(cls.class_id)
        lo, hi = subs[0].hash_range
        if (
            len(subs) == subclasses
            and len(cls.chain.names) >= chain_length
            and lo < SLIVER[0]
            and SLIVER[1] < hi - 1e-6
            and not SLIVER[0] <= (lo + hi) / 2 < SLIVER[1]
        ):
            return cls, subs[0]
    raise AssertionError("no class fits")


def test_interior_drop_sliver_at_the_ingress_is_a_delivery_violation(internet2):
    topo, deployment = internet2
    cls, _sub = _victim(deployment)
    _drop(deployment, cls.path[0], cls.class_id, SLIVER)
    oracle, report = _audits(deployment, topo)
    assert oracle.ok  # the sampler walks around the sliver
    assert _found(report) == {("delivery", cls.class_id)}
    assert report.by_kind() == {"delivery": 1}
    # The sliver splits one cell into three.
    assert report.probes_sent == _subclass_count(deployment) + 2
    assert report.probes_delivered == report.probes_sent - 1


def test_interior_retag_to_a_shorter_chain_is_a_policy_violation(internet2):
    topo, deployment = internet2
    cls, sub = _victim(deployment, chain_length=2)
    _retag_to_shorter_chain(deployment, cls, sub, SLIVER)
    oracle, report = _audits(deployment, topo)
    assert oracle.ok
    assert _found(report) == {("policy", cls.class_id)}
    assert report.by_kind() == {"policy": 1}
    assert report.probes_delivered == report.probes_sent


@pytest.mark.parametrize("which", [0, 1])
def test_cuts_one_ulp_inside_the_subclass_bounds(internet2, which):
    """Cells one ulp wide (down to denormals at lo = 0, and up against
    hi = 1) are probed inside themselves: their midpoint rounds onto an
    edge, so the probe takes the left one."""
    topo, deployment = internet2
    cls, _first = _victim(deployment, subclasses=2)
    lo, hi = deployment.subclass_plan.subclasses(cls.class_id)[which].hash_range
    inside_lo = math.nextafter(lo, 1.0)
    below_hi = math.nextafter(hi, 0.0)
    ingress = cls.path[0]
    _drop(deployment, ingress, cls.class_id,
          (inside_lo, math.nextafter(inside_lo, 1.0)), name="sabotage/lo")
    _drop(deployment, ingress, cls.class_id, (below_hi, hi), name="sabotage/hi")
    oracle, report = _audits(deployment, topo)
    assert oracle.ok
    assert report.by_kind() == {"delivery": 2}
    assert _found(report) == {("delivery", cls.class_id)}
    # [lo, lo+ulp) · sliver · the bulk · sliver
    assert report.probes_sent == _subclass_count(deployment) + 3


def test_hash_ranged_wildcard_cuts_exactly_the_classes_crossing_it(internet2):
    topo, deployment = internet2
    classes = deployment.plan.classes
    mid_path = next(c.path[1] for c in classes if len(c.path) > 2)
    crossing = {c.class_id for c in classes if mid_path in c.path}
    assert crossing and len(crossing) < len(classes)
    _drop(deployment, mid_path, None, SLIVER)
    oracle, report = _audits(deployment, topo)
    assert {v.class_id for v in oracle.violations} < crossing
    assert _found(report) == {("delivery", class_id) for class_id in crossing}
    # One extra cell per SLIVER bound strictly inside a crossing class's
    # sub-class; every other class keeps one probe per sub-class.
    extra = sum(
        sub.hash_range[0] < bound < sub.hash_range[1]
        for class_id in crossing
        for sub in deployment.subclass_plan.subclasses(class_id)
        for bound in SLIVER
    )
    assert report.probes_sent == _subclass_count(deployment) + extra
    # Dropped: the part of SLIVER each sub-class of a crossing class holds.
    dropped = sum(
        sub.hash_range[0] < SLIVER[1] and SLIVER[0] < sub.hash_range[1]
        for class_id in crossing
        for sub in deployment.subclass_plan.subclasses(class_id)
    )
    assert report.probes_sent - report.probes_delivered == dropped


# ----------------------------------------------------------------------
# The assumption under the cell argument
# ----------------------------------------------------------------------
def test_no_vnf_rewrites_the_flow_hash(internet2):
    """One probe stands for its whole cell only because the hash a packet
    is classified by at the ingress is the hash every later hop matches
    on.  NAT rewrites headers (``modifies_headers``); it must not touch
    ``flow_hash``.  If a VNF ever does, ``verify_deployment`` and the data
    plane's resolved walks both have to re-cut downstream of that VNF's
    host against the rewritten value (see the module docstring of
    ``repro.core.verify``)."""
    _topo, deployment = internet2
    network = deployment.network
    network.reset_runtime_state()
    walked = 0
    for cls in deployment.plan.classes:
        if "nat" not in cls.chain.names:
            continue
        for sub in deployment.subclass_plan.subclasses(cls.class_id):
            lo, hi = sub.hash_range
            h = lo + (hi - lo) / 3
            packet = Packet(cls.class_id, h, cls.src, cls.dst)
            assert network.walk_reference(packet).delivered
            crossed = [deployment.instances[v] for v in packet.vnfs_visited()]
            assert any(inst.nf_type.modifies_headers for inst in crossed)
            assert packet.flow_hash == h
            walked += 1
    assert walked


def test_a_tcam_entry_rewritten_behind_the_counter_after_a_warm_audit(internet2):
    """The TCAM twin of ``_shorten_rule_behind_the_counter``: an audit has
    read every table, then one classification entry is narrowed to the
    lower half of its hash range with no generation counter moved.  The
    next audit trusts no counter (``repro.core.verify``): the upper half,
    now unclassified, passes by every instance of its chain."""
    topo, deployment = internet2
    network = deployment.network
    assert verify_deployment(deployment, topo).ok
    cls, sub = _victim(deployment)
    table = network.switches[cls.path[0]].table
    stamps = table.generation, network.rule_epoch
    name = f"{cls.path[0]}/classify/{cls.class_id}#{sub.sub_id}"
    k = next(k for k, e in enumerate(table._entries) if e.name == name)
    lo, hi = table._entries[k].hash_range
    table._entries[k] = replace(table._entries[k], hash_range=(lo, (lo + hi) / 2))
    assert (table.generation, network.rule_epoch) == stamps
    assert ("policy", cls.class_id) in _found(verify_deployment(deployment, topo))
