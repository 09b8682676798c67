"""The work a verified deployment costs, pinned: same work, less time.

For the first 24 seed-0 GEANT snapshots (the ``geant_cold_deploy``
inputs), each placed cold and taken through sub-class assignment, rule
generation, install and the audit by public calls only, the totals below
are what the realisation stages produce.  A change that makes these
stages faster must leave every number here, and the digest of every
sub-class plan and rule set, exactly as it is.
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
    "digest": "2708f89efad8e733",
}


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
        ("subclasses", "probes_sent", "tcam_usage", "vswitch_rules"), 0
    )
    h = hashlib.sha256()
    for plan in plans:
        subclass_plan, rules = realize(controller.rule_generator, plan)
        deployment = bootstrap(
            controller.rule_generator, topo, plan, subclass_plan, rules
        )
        report = verify_deployment(deployment, topo)
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
