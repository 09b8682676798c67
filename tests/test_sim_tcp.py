"""Tests for the flow-level TCP model."""

import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.tcp import PathOutage, run_transfer_batch, TcpTransfer


def _run_one(size=1_000_000, **kwargs):
    sim = Simulator(seed=0)
    xfer = TcpTransfer(sim, size, **kwargs)
    xfer.start()
    sim.run_all()
    assert xfer.result is not None
    return xfer.result


def test_transfer_completes_and_accounts_bytes():
    result = _run_one(size=2_000_000)
    assert result.bytes_total == 2_000_000
    assert result.duration > 0


def test_larger_files_take_longer():
    small = _run_one(size=1_000_000)
    big = _run_one(size=50_000_000)
    assert big.duration > small.duration


def test_bottleneck_limits_goodput():
    fast = _run_one(size=20_000_000, bottleneck_bps=1e9)
    slow = _run_one(size=20_000_000, bottleneck_bps=1e8)
    assert slow.duration > fast.duration
    # Goodput cannot exceed the bottleneck.
    assert slow.bytes_total * 8.0 / slow.duration <= 1e8 * 1.01


def test_random_loss_slows_transfer():
    clean = _run_one(size=20_000_000, loss_prob=0.0)
    lossy = _run_one(size=20_000_000, loss_prob=0.2)
    assert lossy.duration > clean.duration
    assert lossy.losses > 0


def test_outage_adds_blackout_and_timeouts():
    sim = Simulator(seed=0)
    outage = PathOutage(start=0.2, duration=3.0)
    xfer = TcpTransfer(
        sim, 20_000_000, path_up=outage.predicate(sim), name="outage"
    )
    xfer.start()
    sim.run_all()
    assert xfer.result.timeouts > 0
    baseline = _run_one(size=20_000_000)
    assert xfer.result.duration > baseline.duration + 3.0


def test_zero_duration_outage_is_noop():
    base = _run_one(size=20_000_000)
    durations = run_transfer_batch(20_000_000, 3, outage=(1.0, 0.0), loss_prob=0.0)
    for d in durations:
        assert abs(d - base.duration) < 1.0


def test_batch_is_deterministic_per_seed():
    a = run_transfer_batch(5_000_000, 4, seed=11)
    b = run_transfer_batch(5_000_000, 4, seed=11)
    assert a == b


def test_invalid_params_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        TcpTransfer(sim, 0)
    with pytest.raises(SimulationError):
        TcpTransfer(sim, 100, rtt=0.0)
    with pytest.raises(SimulationError):
        TcpTransfer(sim, 100, loss_prob=1.0)


def test_double_start_rejected():
    sim = Simulator()
    xfer = TcpTransfer(sim, 1000)
    xfer.start()
    with pytest.raises(SimulationError):
        xfer.start()


def test_on_complete_callback():
    sim = Simulator()
    done = []
    xfer = TcpTransfer(sim, 1_000_000, on_complete=done.append)
    xfer.start()
    sim.run_all()
    assert done and done[0] is xfer.result
