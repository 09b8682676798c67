"""Tests for the deployment verifier and the failure sweep."""

import pytest

from repro.core.controller import AppleController
from repro.core.verify import verify_deployment
from repro.experiments import failure_sweep
from repro.topology.datasets import internet2
from repro.traffic.classes import hashed_assignment
from repro.traffic.gravity import gravity_matrix
from repro.vnf.chains import STANDARD_CHAINS


# ---------------------------------------------------------------------------
# Deployment verifier
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def deployed():
    topo = internet2()
    controller = AppleController(
        topo, hashed_assignment(STANDARD_CHAINS), min_rate_mbps=1.0
    )
    controller.run(gravity_matrix(topo, 8000.0, seed=0))
    return topo, controller


def test_verifier_passes_clean_deployment(deployed):
    topo, controller = deployed
    report = verify_deployment(controller.deployment, topo)
    assert report.ok, report.summary()
    assert report.probes_sent > 0
    assert report.probes_delivered == report.probes_sent
    assert "OK" in report.summary()


def test_verifier_catches_sabotaged_rules(deployed):
    topo, controller = deployed
    deployment = controller.deployment
    # Sabotage: clear one class's rules at one vSwitch.
    victim = next(iter(deployment.rules.vswitch_rules))
    vsw = deployment.network.vswitches[victim]
    saved = dict(vsw._rules)
    cleared = sorted(saved)[0][1]
    vsw._rules = {k: r for k, r in saved.items() if k[1] != cleared}
    try:
        # A missing rule is a delivery violation naming the vSwitch and
        # the key, reported rather than raised.
        report = verify_deployment(deployment, topo)
    finally:
        vsw._rules = saved
    assert not report.ok
    missing = [
        v for v in report.violations if f"vSwitch at {victim}: no rule for" in v.detail
    ]
    assert missing and {v.kind for v in missing} == {"delivery"}
    assert {v.class_id for v in missing} == {cleared}


def test_verifier_flags_core_oversubscription(deployed):
    topo, controller = deployed
    deployment = controller.deployment
    shrunk = internet2(default_host_cores=1)  # absurd budget
    report = verify_deployment(deployment, shrunk)
    assert not report.ok
    assert report.by_kind().get("isolation", 0) > 0


# ---------------------------------------------------------------------------
# Failure sweep
# ---------------------------------------------------------------------------
def test_failure_sweep_quick():
    result = failure_sweep.run(quick=True)
    rows = {r[0]: r for r in result.rows}
    assert 0 in rows and 2 in rows
    # Failover strictly improves once something has failed.
    assert rows[2][2] < rows[2][1]
    # Loss grows with failures when failover is off.
    assert rows[2][1] > rows[0][1]
