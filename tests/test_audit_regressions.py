"""What the packet audit got wrong, pinned against its return.

The audit it replaced sent one real probe per cell.  It was not
idempotent: its probes, stamped ``now=0``, stayed in the admission windows
of an unchanged deployment until later audits were refused.  And a broken
rule raised from three layers down (``KeyError`` from ``VSwitch.process``
or ``walk_reference``, ``RuntimeError`` for a re-tag), so inside
``reconfigure.commit``'s convergence callback ``on_done`` never fired.
``verify_deployment`` now touches nothing and reports every such fault as
a ``delivery`` violation naming the switch and the key; the reference
packet audit (``tests/audit_reference.py``) still raises on each.
"""

from dataclasses import replace

import pytest

from repro.core.verify import verify_deployment
from tests.audit_reference import reference_verify
from tests.test_audit_equivalence import _state
from tests.test_audit_tables import rule_of
from tests.test_verify_cells import _deploy


# ----------------------------------------------------------------------
# Idempotent: no packet, no counter, no window
# ----------------------------------------------------------------------
@pytest.mark.parametrize("topology", ["geant", "internet2"])
def test_a_hundred_audits_report_alike_and_touch_nothing(topology):
    """The packet audit failed this at audit #25 on GEANT (495/520 probes
    delivered) and #61 on Internet2 (144/148): its probes piled up in the
    admission windows of the unchanged deployment."""
    topo, deployment = _deploy(topology, 0)
    untouched = _state(deployment)
    first = verify_deployment(deployment, topo)
    assert first.ok
    for _ in range(99):
        assert verify_deployment(deployment, topo) == first
    assert _state(deployment) == untouched


# ----------------------------------------------------------------------
# Reported, not raised
# ----------------------------------------------------------------------
@pytest.fixture
def internet2():
    return _deploy("internet2", 0)


def _delivery_details(report, class_id):
    assert {v.kind for v in report.violations} == {"delivery"}
    assert {v.class_id for v in report.violations} == {class_id}
    return [v.detail for v in report.violations]


def test_a_missing_vswitch_rule_is_reported(internet2):
    topo, deployment = internet2
    cls, _sub, host, key, _rule = rule_of(deployment, 1)
    deployment.network.vswitches[host].remove_rule(key[1], key[2])
    with pytest.raises(KeyError):
        reference_verify(deployment, topo)
    details = _delivery_details(verify_deployment(deployment, topo), cls.class_id)
    assert details
    assert all(f"vSwitch at {host}: no rule for {key!r}" in d for d in details)


def test_a_class_with_no_registered_path_is_reported(internet2):
    topo, deployment = internet2
    cls = deployment.plan.classes[0]
    del deployment.network.class_paths[cls.class_id]
    with pytest.raises(KeyError):
        reference_verify(deployment, topo)
    report = verify_deployment(deployment, topo)
    details = _delivery_details(report, cls.class_id)
    assert len(details) == report.probes_sent - report.probes_delivered
    assert all(f"class {cls.class_id!r} has no registered path" in d for d in details)


def test_a_retag_for_the_host_just_left_is_reported(internet2):
    topo, deployment = internet2
    cls, sub, host, key, rule = rule_of(deployment, 1)
    deployment.network.vswitches[host].install_rule(
        cls.class_id, sub.sub_id, replace(rule, exit_host_tag=host)
    )
    with pytest.raises(RuntimeError):
        reference_verify(deployment, topo)
    details = _delivery_details(verify_deployment(deployment, topo), cls.class_id)
    assert details
    assert all(f"vSwitch at {host}: rule {key!r} re-tags" in d for d in details)
