"""The audit read off the installed tables, against the packet audit.

``verify_deployment`` follows every installed hash cell through the
tables as data and sends no packet.  ``tests/audit_reference.py`` keeps
the packet audit it replaced: one real probe per cell, walked hop by hop.
Here the two audit twin deployments broken the same way (the reference
twin from a freshly reset runtime, so no earlier probe sits in an
admission window), and must agree on the cells audited, the cells
delivered and the multiset of ``(kind, class_id)`` violations: no false
negative, no false positive.  The cases are every sabotage of
``tests/test_verify_cells.py``, the 24 seed-0 GEANT cold deploys,
Internet2 clean and browned out, a failed link, a stopped instance, a
quarantined class, and two negatives after Allybokus et al.'s
partial-order formulation of a chain (PAPERS.md): every NF visited but two
out of order, and a sub-class whose rule skips one NF.
"""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.verify import verify_deployment
from repro.dataplane.switch import quarantine_entry
from repro.dataplane.vswitch import UPLINK
from tests.audit_reference import reference_verify
from tests.deploy_series import geant_cold_plans, internet2_plan
from tests.test_audit_equivalence import SLIVERS, _twin_deploys, _twins
from tests.test_verify_cells import _sabotage

KINDS = ["none", "drop", "retag", "short_rule", "link", "detour"]


def _outcome(report):
    return (
        report.probes_sent,
        report.probes_delivered,
        Counter((v.kind, v.class_id) for v in report.violations),
    )


def _agree(program, reference, topo):
    """The program's report, after checking it against the reference's."""
    ours = verify_deployment(program, topo)
    reference.network.reset_runtime_state()
    assert _outcome(ours) == _outcome(reference_verify(reference, topo))
    return ours


def _both(deployments, breaker):
    """Break every deployment the same way; returns what the last call did."""
    for deployment in deployments:
        result = breaker(deployment)
    return result


def rule_of(deployment, chain_length):
    """(class, sub-class, host, rule key, rule): the first sub-class of the
    first class with a chain of ``chain_length`` or more whose first host's
    rule takes ``chain_length`` instances or more."""
    network = deployment.network
    for cls in deployment.plan.classes:
        if len(cls.chain.names) < chain_length:
            continue
        for sub in deployment.subclass_plan.subclasses(cls.class_id):
            for host, vsw in network.vswitches.items():
                key = (UPLINK, cls.class_id, sub.sub_id)
                rule = vsw.installed_rules().get(key)
                if rule is not None and len(rule.instance_ids) >= chain_length:
                    return cls, sub, host, key, rule
    raise AssertionError("no rule fits")


# ----------------------------------------------------------------------
# Differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("topology", ["internet2", "geant"])
def test_every_sabotage_audits_alike(topology, kind):
    topo, program, reference = _twin_deploys(topology)
    for deployment in (program, reference):
        classes = deployment.plan.classes
        cls = classes[7 % len(classes)]
        expected = _sabotage(deployment, cls, kind, 0.1)
    report = _agree(program, reference, topo)
    assert report.ok == (expected is None)
    if expected is not None:
        assert (expected, cls.class_id) in _outcome(report)[2]


@pytest.mark.parametrize("case", sorted(SLIVERS))
def test_every_sliver_audits_alike(case):
    topo, program, reference = _twin_deploys("internet2")
    _both((program, reference), SLIVERS[case])
    assert not _agree(program, reference, topo).ok


def test_geant_cold_series_audits_alike():
    topo, controller, plans = geant_cold_plans()
    for plan in plans:
        program, reference = _twins(topo, controller, plan)
        report = _agree(program, reference, topo)
        assert report.ok and report.probes_delivered == report.probes_sent


@pytest.mark.parametrize("severity", [0.2, None])
def test_internet2_clean_and_browned_out_audits_alike(severity):
    """``0.2``: every instance at the strongest chaos brownout (its window
    still holds hundreds of packets, so nothing is refused).  ``None``:
    every third instance browned out below one packet per window, so it
    refuses every cell it is on."""
    topo, controller, plan = internet2_plan()
    program, reference = _twins(topo, controller, plan)
    report = _agree(program, reference, topo)
    assert report.ok
    for deployment in (program, reference):
        for _key, inst in sorted(deployment.instances.items())[::3]:
            floor = 0.5 / (inst.nf_type.capacity_pps * inst.window)
            inst.degrade(severity or floor)
    report = _agree(program, reference, topo)
    assert report.ok == (severity is not None)
    assert set(report.by_kind()) <= {"delivery"}


def test_failed_link_stopped_instance_and_quarantine_audit_alike():
    topo, program, reference = _twin_deploys("internet2")
    classes = program.plan.classes
    long = [c for c in classes if len(c.path) > 2]

    def fail_link(deployment):
        path = long[0].path
        deployment.network.set_link_failed(path[1], path[2], True)

    def stop_instance(deployment):
        deployment.instances[sorted(deployment.instances)[0]].shutdown()

    def quarantine(deployment):
        cls = long[-1]
        ingress = cls.path[0]
        table = deployment.network.switches[ingress].table
        table.remove_where(lambda e: e.class_id == cls.class_id)
        table.install(quarantine_entry(ingress, cls.class_id))
        return cls

    for breaker in (fail_link, stop_instance, quarantine):
        cls = _both((program, reference), breaker)
        report = _agree(program, reference, topo)
        assert set(report.by_kind()) == {"delivery"}
    assert ("delivery", cls.class_id) in _outcome(report)[2]


def test_nfs_visited_out_of_order_is_a_policy_violation():
    """Every NF of the chain visited, two of them swapped: a partial order
    of the chain is not the chain."""
    topo, program, reference = _twin_deploys("internet2")

    def swap(deployment):
        cls, sub, host, _key, rule = rule_of(deployment, 2)
        ids = rule.instance_ids
        swapped = (ids[1], ids[0], *ids[2:])
        deployment.network.vswitches[host].install_rule(
            cls.class_id, sub.sub_id, replace(rule, instance_ids=swapped)
        )
        return cls

    cls = _both((program, reference), swap)
    report = _agree(program, reference, topo)
    assert _outcome(report)[2] == Counter({("policy", cls.class_id): 1})


def test_a_rule_that_skips_one_nf_is_a_policy_violation():
    topo, program, reference = _twin_deploys("internet2")

    def skip(deployment):
        cls, sub, host, _key, rule = rule_of(deployment, 2)
        deployment.network.vswitches[host].install_rule(
            cls.class_id, sub.sub_id, replace(rule, instance_ids=rule.instance_ids[1:])
        )
        return cls

    cls = _both((program, reference), skip)
    report = _agree(program, reference, topo)
    assert _outcome(report)[2] == Counter({("policy", cls.class_id): 1})
