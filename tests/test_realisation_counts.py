"""The work a verified deployment costs, pinned: same work, less time.

For the first 24 seed-0 GEANT snapshots (the ``geant_cold_deploy``
inputs), each placed cold and taken through sub-class assignment, rule
generation, install and the audit by public calls only, the totals below
are what the realisation stages produce.  A change that makes these
stages faster must leave every number here, and the digest of every
sub-class plan and rule set, exactly as it is.

``audit_packets`` is what the audits themselves send through the data
plane (:func:`audit_packets`): 0, since the audit reads the installed
tables as data.  The packet audit it replaced, one real probe per cell,
came to 122,592 over the same 24 audits.  The tenant commit path is held
to the same 0.
"""

import hashlib

from repro.core.reconfigure import bootstrap, realize
from repro.core.verify import verify_deployment
from tests.deploy_series import geant_cold_plans

#: Totals over the 24 deployments, and the digest of all of their
#: sub-class plans and generated rules (see ``_digest``).
PINNED = {
    "subclasses": 12503,
    "probes_sent": 12503,
    "tcam_usage": 18519,
    "vswitch_rules": 18597,
    "audit_packets": 0,
    "digest": "2708f89efad8e733",
}


def audit_packets(network) -> int:
    """Packet work on a network's counters: ledger deliveries and drops,
    switch visits, table lookups and vSwitch arrivals.  Read before and
    after an audit, the difference is what the audit sent."""
    return (
        network.delivered_count
        + network.dropped_count
        + sum(
            sw.packets_seen + sw.table.lookup_count
            for sw in network.switches.values()
        )
        + sum(vsw.packets_in for vsw in network.vswitches.values())
    )


def _digest(h, subclass_plan, rules) -> None:
    """Feed one plan's sub-classes and rules, in the order produced, to ``h``."""
    for class_id, subs in subclass_plan.by_class.items():
        h.update(repr(class_id).encode())
        for sub in subs:
            h.update(
                repr(
                    (
                        sub.class_id,
                        sub.sub_id,
                        sub.hash_range,
                        tuple(ref.key for ref in sub.instance_seq),
                    )
                ).encode()
            )
    h.update(
        repr(
            [(ref.key, load) for ref, load in subclass_plan.instance_load.items()]
        ).encode()
    )
    for switch, rule_set in rules.switch_rule_sets.items():
        h.update(
            repr((switch, rule_set.host_match, rule_set.classifications)).encode()
        )
    for switch, rule_list in rules.vswitch_rules.items():
        h.update(
            repr(
                (
                    switch,
                    [
                        (class_id, sub_id, rule.instance_ids, rule.exit_host_tag)
                        for class_id, sub_id, rule in rule_list
                    ],
                )
            ).encode()
        )
    h.update(repr((rules.hosts_in_use, rules.origin_rules)).encode())
    tags = rules.tag_allocator
    h.update(
        repr(
            (
                [tags.host_id(s) for s in rules.hosts_in_use],
                tags.subclass_field,
                tags.global_subclass_ids,
            )
        ).encode()
    )


def work_counts() -> dict:
    topo, controller, plans = geant_cold_plans()
    counts = dict.fromkeys(
        ("subclasses", "probes_sent", "tcam_usage", "vswitch_rules", "audit_packets"),
        0,
    )
    h = hashlib.sha256()
    for plan in plans:
        subclass_plan, rules = realize(controller.rule_generator, plan)
        deployment = bootstrap(
            controller.rule_generator, topo, plan, subclass_plan, rules
        )
        before = audit_packets(deployment.network)
        report = verify_deployment(deployment, topo)
        counts["audit_packets"] += audit_packets(deployment.network) - before
        assert report.ok, report.summary()
        counts["subclasses"] += subclass_plan.total_subclasses()
        counts["probes_sent"] += report.probes_sent
        counts["tcam_usage"] += deployment.network.total_tcam_usage()
        counts["vswitch_rules"] += sum(len(v) for v in rules.vswitch_rules.values())
        _digest(h, subclass_plan, rules)
    counts["digest"] = h.hexdigest()[:16]
    return counts


def test_geant_cold_deploy_work_counts_are_pinned():
    assert work_counts() == PINNED


def test_tenant_commit_path_audits_send_no_packets(monkeypatch):
    """Every audit of one seed-0 ``multi-tenant --quick`` history (its
    8-tenant row, run twice for the determinism check): the day-0 audit of
    each tenant's bootstrap and the audit at every commit's convergence,
    each on that tenant's own network."""
    from repro.core import reconfigure
    from repro.experiments import multi_tenant
    from repro.tenancy import worker

    sent = []

    def counted(deployment, topo):
        before = audit_packets(deployment.network)
        report = verify_deployment(deployment, topo)
        sent.append(audit_packets(deployment.network) - before)
        return report

    monkeypatch.setattr(reconfigure, "verify_deployment", counted)
    monkeypatch.setattr(worker, "verify_deployment", counted)
    result = multi_tenant.run(
        tenant_counts=multi_tenant.QUICK_TENANT_SWEEP[:1], seed=0
    )
    assert result.rows[0][7] > 0  # convergences
    assert len(sent) >= 2 * result.rows[0][7]
    assert sum(sent) == 0
