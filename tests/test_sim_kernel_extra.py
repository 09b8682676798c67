"""Additional kernel/cloud edge-case tests."""

import pytest

from repro.cloud.opendaylight import OpenDaylight
from repro.cloud.openstack import OpenStack
from repro.cloud.hypervisor import XenHypervisor
from repro.sim.kernel import SimulationError, Simulator


def test_max_events_stop_keeps_the_clock_behind_pending_events():
    """Stopped by ``max_events`` with earlier events still queued, ``run``
    must not jump to ``until``: it did, so a later ``schedule_at`` was
    refused and the next ``run`` moved the clock backwards."""
    sim = Simulator()
    seen = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule_at(t, lambda t=t: seen.append((t, sim.now)))
    assert sim.run(until=10.0, max_events=1) == 1
    assert sim.now == 1.0 and len(sim._queue) == 2
    sim.schedule_at(5.0, lambda: seen.append((5.0, sim.now)))
    clock = [sim.now]
    assert sim.run(until=10.0, max_events=2) == 2
    clock.append(sim.now)
    assert sim.run(until=10.0) == 1  # the queue drains: tile up to until
    clock.append(sim.now)
    assert sim.run(until=12.0) == 0
    clock.append(sim.now)
    assert clock == [1.0, 3.0, 10.0, 12.0]
    assert seen == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (5.0, 5.0)]
    assert len(sim._queue) == 0


def test_until_stop_still_advances_past_a_later_event():
    sim = Simulator()
    sim.schedule_at(20.0, lambda: None)
    assert sim.run(until=10.0, max_events=5) == 0
    assert sim.now == 10.0 and len(sim._queue) == 1


def test_process_exception_propagates():
    sim = Simulator()

    def bad():
        yield 1.0
        raise RuntimeError("boom")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run_all()


def test_event_ordering_with_zero_delay():
    sim = Simulator()
    seen = []
    sim.schedule(0.0, lambda: seen.append("a"))
    sim.schedule(0.0, lambda: seen.append("b"))
    sim.run_all()
    assert seen == ["a", "b"]


def test_odl_port_info_fields():
    sim = Simulator()
    odl = OpenDaylight(sim)
    got = []
    odl.prepare_networking("ovs-s1", got.append)
    sim.run_all()
    info = got[0]
    assert info.vswitch == "ovs-s1"
    assert info.port_id.startswith("ovs-s1-port")
    assert len(info.mac.split(":")) == 6
    assert info.prepared_at == pytest.approx(2.3, abs=0.01)


def test_odl_ports_unique():
    sim = Simulator()
    odl = OpenDaylight(sim)
    got = []
    for _ in range(5):
        odl.prepare_networking("ovs-s1", got.append)
    sim.run_all()
    ids = [p.port_id for p in got]
    macs = [p.mac for p in got]
    assert len(set(ids)) == 5
    assert len(set(macs)) == 5


def test_openstack_jitter_validation():
    sim = Simulator()
    odl = OpenDaylight(sim)
    hyp = XenHypervisor(sim)
    with pytest.raises(ValueError):
        OpenStack(sim, odl, hyp, jitter=1.5)


def test_openstack_timeline_steps_ordered():
    sim = Simulator(seed=7)
    odl = OpenDaylight(sim)
    stack = OpenStack(sim, odl, XenHypervisor(sim))
    out = []
    stack.boot_vm(1, True, "ovs", lambda vm, tl: out.append(tl))
    sim.run_all()
    tl = out[0]
    assert tl.steps[0] == "nova-admitted"
    assert tl.steps[-1] == "running"
    assert tl.requested_at <= tl.network_ready_at <= tl.vm_defined_at <= tl.running_at
