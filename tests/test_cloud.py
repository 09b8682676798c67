"""Tests for the cloud substrate: hosts, hypervisor, OpenStack, orchestrator."""

import pytest

from repro.cloud.host import AppleHost, HostResourceError
from repro.cloud.hypervisor import VmState, XenHypervisor
from repro.cloud.opendaylight import OpenDaylight, RULE_INSTALL_SECONDS
from repro.cloud.openstack import OpenStack
from repro.cloud.orchestrator import ResourceOrchestrator
from repro.sim.kernel import Simulator
from repro.topology.graph import AppleHostSpec, Link, Topology
from repro.vnf.clickos import CLICKOS_RECONFIGURE_SECONDS, PASSIVE_MONITOR
from repro.vnf.instance import VNFInstance
from repro.vnf.types import FIREWALL, IDS, NAT


def _instance(name="fw0", nf=FIREWALL, switch="s1"):
    return VNFInstance(name, nf, switch)


# ---------------------------------------------------------------------------
# AppleHost: resource isolation accounting
# ---------------------------------------------------------------------------
def test_host_allocate_release_cycle():
    host = AppleHost("h1", "s1", total_cores=16)
    inst = _instance()
    host.allocate(inst)
    assert host.allocated_cores == 4
    assert host.free_cores == 12
    assert host.instances == {"fw0": inst}


def test_host_rejects_oversubscription():
    host = AppleHost("h1", "s1", total_cores=10)
    host.allocate(_instance("fw0"))  # 4 cores
    host.allocate(_instance("nat0", NAT))  # 2 cores
    with pytest.raises(HostResourceError):
        host.allocate(_instance("ids0", IDS))  # needs 8 > 4 free
    assert host.can_fit(NAT, count=2)
    assert not host.can_fit(IDS)


def test_host_duplicate_and_unknown():
    host = AppleHost("h1", "s1", total_cores=16)
    host.allocate(_instance("fw0"))
    with pytest.raises(ValueError):
        host.allocate(_instance("fw0"))


# ---------------------------------------------------------------------------
# Hypervisor lifecycle
# ---------------------------------------------------------------------------
def test_clickos_boots_in_30ms():
    sim = Simulator()
    hyp = XenHypervisor(sim)
    vm = hyp.define_domain(cores=1, clickos=True)
    hyp.attach_bridge(vm)
    booted = []
    hyp.boot(vm, booted.append, config=PASSIVE_MONITOR)
    sim.run_all()
    assert booted and booted[0].state is VmState.RUNNING
    assert vm.boot_completed_at == pytest.approx(0.030)
    assert vm.image is not None and vm.image.config is PASSIVE_MONITOR


def test_full_vm_boots_slower():
    sim = Simulator()
    hyp = XenHypervisor(sim)
    vm = hyp.define_domain(cores=8, clickos=False)
    hyp.attach_bridge(vm)
    hyp.boot(vm, lambda v: None)
    sim.run_all()
    assert vm.boot_completed_at > 1.0


def test_boot_requires_bridge_and_defined_state():
    sim = Simulator()
    hyp = XenHypervisor(sim)
    vm = hyp.define_domain(cores=1, clickos=True)
    with pytest.raises(ValueError):
        hyp.boot(vm, lambda v: None)  # no bridge (Step 4 missing)
    hyp.attach_bridge(vm)
    hyp.boot(vm, lambda v: None)
    with pytest.raises(ValueError):
        hyp.boot(vm, lambda v: None)  # already booting


# ---------------------------------------------------------------------------
# OpenDaylight + OpenStack pipeline
# ---------------------------------------------------------------------------
def test_rule_install_takes_70ms():
    sim = Simulator()
    odl = OpenDaylight(sim)
    done = []
    odl.install_rules(["r1", "r2"], on_installed=lambda: done.append(sim.now))
    sim.run_all()
    assert done == [pytest.approx(RULE_INSTALL_SECONDS)]
    assert odl.installed_rules == ["r1", "r2"]
    assert odl.rule_install_count == 1


def test_openstack_boot_is_seconds_not_milliseconds():
    """The Fig. 5 / Sec. VIII-B result: ~4.2 s end to end for ClickOS."""
    sim = Simulator(seed=0)
    odl = OpenDaylight(sim)
    hyp = XenHypervisor(sim)
    stack = OpenStack(sim, odl, hyp)
    results = []
    stack.boot_vm(1, True, "ovs-s1", lambda vm, tl: results.append(tl))
    sim.run_all()
    timeline = results[0]
    assert 3.8 <= timeline.total_seconds <= 4.7
    assert timeline.network_ready_at is not None
    assert timeline.steps[-1] == "running"


def test_openstack_boot_jitter_spread():
    durations = []
    for k in range(10):
        sim = Simulator(seed=k)
        odl = OpenDaylight(sim)
        stack = OpenStack(sim, odl, XenHypervisor(sim))
        out = []
        stack.boot_vm(1, True, "ovs", lambda vm, tl: out.append(tl))
        sim.run_all()
        durations.append(out[0].total_seconds)
    assert max(durations) - min(durations) > 0.1  # jitter exists
    assert 3.9 <= sum(durations) / len(durations) <= 4.6  # paper's mean band


# ---------------------------------------------------------------------------
# Resource Orchestrator
# ---------------------------------------------------------------------------
def _topo():
    return Topology(
        "t",
        ["s1", "s2"],
        [Link("s1", "s2")],
        hosts={"s1": AppleHostSpec(cores=16), "s2": AppleHostSpec(cores=8)},
    )


def test_orchestrator_reports_available_resources():
    sim = Simulator()
    orch = ResourceOrchestrator(sim, _topo())
    assert orch.available_resources() == {"s1": 16, "s2": 8}


def test_slow_launch_allocates_after_boot():
    sim = Simulator()
    orch = ResourceOrchestrator(sim, _topo())
    ready = []
    req = orch.launch_instance(FIREWALL, "s1", on_ready=ready.append)
    sim.run_all()
    assert ready and ready[0].nf_type is FIREWALL
    assert req.latency is not None and req.latency > 3.5
    assert orch.available_resources()["s1"] == 12
    assert [i.nf_type for i in orch.host_at("s1").instances.values()] == [FIREWALL]


def test_fast_launch_uses_spare_clickos():
    sim = Simulator()
    orch = ResourceOrchestrator(sim, _topo(), spare_clickos=1)
    sim.run(until=1.0)  # let spares boot
    assert orch.spare_count("s1") == 1
    ready = []
    req = orch.launch_instance(FIREWALL, "s1", on_ready=ready.append, fast=True)
    sim.run_all()
    assert ready
    assert req.latency == pytest.approx(CLICKOS_RECONFIGURE_SECONDS)
    assert orch.spare_count("s1") == 0


def test_fast_launch_falls_back_without_spares():
    sim = Simulator()
    orch = ResourceOrchestrator(sim, _topo())
    req = orch.launch_instance(FIREWALL, "s1", fast=True)
    sim.run_all()
    assert req.latency > 3.5  # slow path


def test_fast_launch_ignored_for_full_vms():
    sim = Simulator()
    orch = ResourceOrchestrator(sim, _topo(), spare_clickos=1)
    sim.run(until=1.0)
    req = orch.launch_instance(IDS, "s1", fast=True)
    sim.run_all()
    assert req.latency > 3.5  # IDS is not ClickOS-capable
    assert orch.spare_count("s1") == 1  # spare untouched


def test_launch_rejects_when_no_cores():
    sim = Simulator()
    orch = ResourceOrchestrator(sim, _topo())
    orch.launch_instance(IDS, "s2")  # 8 of 8 cores
    sim.run_all()
    from repro.cloud.host import HostResourceError

    with pytest.raises(HostResourceError):
        orch.launch_instance(NAT, "s2")
    with pytest.raises(KeyError):
        orch.launch_instance(NAT, "s99")
