"""The audit against its first-written copy: same report, nothing touched.

``verify_deployment`` reads the installed tables as data and sends no
packet.  ``tests/audit_reference.py`` keeps the packet audit and walk as
they were first written.  Each case here builds twin deployments of one
plan, breaks both the same way (or not at all), audits one with the
program and the other, from a freshly reset runtime, with the copy, and
requires the reports to be identical (violation kinds, classes, detail
strings, probes sent and delivered).  The program's audit must touch
nothing a packet can: every switch's ``packets_seen``, every table's
``lookup_count`` / ``miss_count``, every vSwitch's ``packets_in`` /
``packets_dropped``, every instance's stats and admission window, the
network's delivery ledger and its rule epoch are exactly as they were
before the audit.
"""

import math

import pytest

from repro.core.reconfigure import bootstrap, realize
from repro.core.verify import verify_deployment
from repro.sim.kernel import Simulator
from tests.audit_reference import reference_verify
from tests.deploy_series import geant_cold_plans, internet2_plan
from tests.test_verify_cells import (
    SLIVER,
    _deploy,
    _drop,
    _retag_to_shorter_chain,
    _sabotage,
    _victim,
)


def _report(report):
    return (
        report.probes_sent,
        report.probes_delivered,
        [(v.kind, v.class_id, v.detail) for v in report.violations],
    )


def _state(deployment):
    """Every counter and window a probe can touch, plus the ledger."""
    network = deployment.network
    switches = [
        (
            name,
            sw.packets_seen,
            dict(sw.port_counters),
            sw.table.lookup_count,
            sw.table.miss_count,
            sw.table.cache_hits,
        )
        for name, sw in network.switches.items()
    ]
    vswitches = [
        (name, vsw.packets_in, vsw.packets_dropped)
        for name, vsw in network.vswitches.items()
    ]
    instances = [
        (key, vars(inst.stats), list(inst._recent))
        for key, inst in deployment.instances.items()
    ]
    records = [
        (
            r.delivered,
            r.dropped_at,
            r.packet.class_id,
            r.packet.flow_hash,
            r.packet.host_tag,
            r.packet.subclass_tag,
            r.packet.trace,
        )
        for r in network.recent_records
    ]
    ledger = (network.delivered_count, network.dropped_count, network.violation_count)
    return switches, vswitches, instances, records, ledger, network.rule_epoch


def _assert_twins_agree(program, reference, topo, audits=1):
    """Audit both twins ``audits`` times, the reference from a freshly
    reset runtime each time; returns the program's reports (the last one
    alone when ``audits`` is 1)."""
    untouched = _state(program)
    reports = []
    for _ in range(audits):
        ours = verify_deployment(program, topo)
        reference.network.reset_runtime_state()
        theirs = reference_verify(reference, topo)
        assert _report(ours) == _report(theirs)
        reports.append(ours)
    assert _state(program) == untouched
    return reports if audits > 1 else reports[0]


def _twins(topo, controller, plan):
    subclass_plan, rules = realize(controller.rule_generator, plan)
    return [
        bootstrap(
            controller.rule_generator, topo, plan, subclass_plan, rules,
            sim=Simulator(seed=3),
        )
        for _ in range(2)
    ]


# ----------------------------------------------------------------------
# Clean deployments
# ----------------------------------------------------------------------
def test_geant_cold_series_audits_identically():
    topo, controller, plans = geant_cold_plans()
    for plan in plans:
        program, reference = _twins(topo, controller, plan)
        report = _assert_twins_agree(program, reference, topo)
        assert report.ok


def test_internet2_audits_identically():
    topo, controller, plan = internet2_plan()
    program, reference = _twins(topo, controller, plan)
    report = _assert_twins_agree(program, reference, topo)
    assert report.ok


def test_browned_out_instances_refuse_the_same_probes():
    """An instance browned out below one packet per window refuses every
    probe: the program reads the budget, the reference's packets meet it.
    Repeated audits report the same refusals, since the program's audit
    leaves no packet in any window."""
    topo, controller, plan = internet2_plan()
    program, reference = _twins(topo, controller, plan)
    for deployment in (program, reference):
        for _key, inst in sorted(deployment.instances.items())[::2]:
            inst.degrade(0.5 / (inst.nf_type.capacity_pps * inst.window))
    reports = _assert_twins_agree(program, reference, topo, audits=3)
    refused = [r.probes_sent - r.probes_delivered for r in reports]
    assert 0 < refused[0] == refused[-1] < reports[0].probes_sent
    assert refused[-1] == sum(
        vsw.packets_dropped for vsw in reference.network.vswitches.values()
    )


# ----------------------------------------------------------------------
# Every sabotage of tests/test_verify_cells.py
# ----------------------------------------------------------------------
def _twin_deploys(topology):
    topo, program = _deploy(topology, 0)
    _topo, reference = _deploy(topology, 0)
    return topo, program, reference


@pytest.mark.parametrize("at", [0.1, 0.61])
@pytest.mark.parametrize("victim", [7, 40])
@pytest.mark.parametrize(
    "kind", ["none", "drop", "retag", "short_rule", "link", "detour"]
)
@pytest.mark.parametrize("topology", ["internet2", "geant"])
def test_sabotaged_deployments_audit_identically(topology, kind, victim, at):
    topo, program, reference = _twin_deploys(topology)
    for deployment in (program, reference):
        classes = deployment.plan.classes
        cls = classes[victim % len(classes)]
        expected = _sabotage(deployment, cls, kind, at)
    report = _assert_twins_agree(program, reference, topo)
    if expected is not None:
        assert (expected, cls.class_id) in {
            (v.kind, v.class_id) for v in report.violations
        }


def _interior_drop_sliver(deployment):
    cls, _sub = _victim(deployment)
    _drop(deployment, cls.path[0], cls.class_id, SLIVER)


def _interior_retag_sliver(deployment):
    cls, sub = _victim(deployment, chain_length=2)
    _retag_to_shorter_chain(deployment, cls, sub, SLIVER)


def _one_ulp_cuts(which):
    def sabotage(deployment):
        cls, _first = _victim(deployment, subclasses=2)
        subs = deployment.subclass_plan.subclasses(cls.class_id)
        lo, hi = subs[which].hash_range
        inside_lo = math.nextafter(lo, 1.0)
        ingress = cls.path[0]
        _drop(deployment, ingress, cls.class_id,
              (inside_lo, math.nextafter(inside_lo, 1.0)), name="sabotage/lo")
        _drop(deployment, ingress, cls.class_id,
              (math.nextafter(hi, 0.0), hi), name="sabotage/hi")

    return sabotage


def _hash_ranged_wildcard(deployment):
    classes = deployment.plan.classes
    mid_path = next(c.path[1] for c in classes if len(c.path) > 2)
    _drop(deployment, mid_path, None, SLIVER)


def _wildcard_and_class_slivers(deployment):
    """Own cuts and wildcard cuts of one class, merged."""
    _interior_drop_sliver(deployment)
    cls, _sub = _victim(deployment)
    _drop(deployment, cls.path[-1], None, (0.7, 0.71), name="sabotage/wild")


SLIVERS = {
    "interior-drop": _interior_drop_sliver,
    "wildcard-and-class": _wildcard_and_class_slivers,
    "interior-retag": _interior_retag_sliver,
    "one-ulp-cut-lo": _one_ulp_cuts(0),
    "one-ulp-cut-hi": _one_ulp_cuts(1),
    "hash-ranged-wildcard": _hash_ranged_wildcard,
}


@pytest.mark.parametrize("case", sorted(SLIVERS))
def test_sliver_sabotage_audits_identically(case):
    """The four regressions the three-point sampler missed, on the
    Internet2 deployment they are written for."""
    topo, program, reference = _twin_deploys("internet2")
    for deployment in (program, reference):
        SLIVERS[case](deployment)
    report = _assert_twins_agree(program, reference, topo)
    assert not report.ok


def test_lossy_audit_reports_identically():
    """Every dropped cell is a delivery violation; the reference's
    ``expect_no_loss=False`` report is the program's without them."""
    topo, program, reference = _twin_deploys("internet2")
    for deployment in (program, reference):
        classes = deployment.plan.classes
        _sabotage(deployment, classes[3], "drop", 0.2)
    report = _assert_twins_agree(program, reference, topo)
    assert report.probes_delivered < report.probes_sent
    assert report.by_kind() == {
        "delivery": report.probes_sent - report.probes_delivered
    }
    reference.network.reset_runtime_state()
    lossy = reference_verify(reference, topo, expect_no_loss=False)
    assert lossy.ok
    assert (lossy.probes_sent, lossy.probes_delivered) == (
        report.probes_sent,
        report.probes_delivered,
    )
