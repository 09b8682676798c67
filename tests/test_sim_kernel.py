"""Unit tests for the simulator kernel: clock, processes, timers."""

import pytest

from repro.sim.kernel import Process, SimulationError, Simulator, Timer


def test_schedule_and_run_advances_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.schedule(0.5, lambda: seen.append(sim.now))
    fired = sim.run_all()
    assert fired == 2
    assert seen == [0.5, 1.5]
    assert sim.now == 1.5


def test_run_until_stops_and_pins_clock():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append("a"))
    sim.schedule(5.0, lambda: seen.append("b"))
    sim.run(until=2.0)
    assert seen == ["a"]
    assert sim.now == 2.0  # clock tiled exactly to the horizon
    sim.run(until=10.0)
    assert seen == ["a", "b"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulator()
    sim.schedule(2.0, lambda: None)
    sim.run_all()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_schedule_during_run_executes():
    sim = Simulator()
    seen = []

    def chain():
        seen.append(sim.now)
        if len(seen) < 3:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run_all()
    assert seen == [1.0, 2.0, 3.0]


def test_max_events_bounds_run():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    fired = sim.run(max_events=10)
    assert fired == 10


def test_process_yields_delays():
    sim = Simulator()
    ticks = []

    def proc():
        for _ in range(3):
            yield 2.0
            ticks.append(sim.now)

    sim.process(proc())
    sim.run_all()
    assert ticks == [2.0, 4.0, 6.0]


def test_process_interrupt_stops_it():
    sim = Simulator()
    ticks = []

    def proc():
        while True:
            yield 1.0
            ticks.append(sim.now)

    p = sim.process(proc())
    sim.run(until=3.5)
    p.interrupt()
    assert not p._alive
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0, 3.0]


def test_process_negative_yield_raises():
    sim = Simulator()

    def proc():
        yield -1.0

    with pytest.raises(SimulationError):
        sim.process(proc())


def test_timer_fires_periodically():
    sim = Simulator()
    ticks = []
    sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]


def test_timer_cancel():
    sim = Simulator()
    ticks = []
    timer = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=2.5)
    timer.cancel()
    assert not timer._active
    sim.run(until=10.0)
    assert ticks == [1.0, 2.0]
    assert timer.fire_count == 2


def test_timer_start_delay_override():
    sim = Simulator()
    ticks = []
    sim.every(2.0, lambda: ticks.append(sim.now), start_delay=0.5)
    sim.run(until=5.0)
    assert ticks == [0.5, 2.5, 4.5]


def test_timer_rejects_nonpositive_interval():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Timer(sim, 0.0, lambda: None)


def test_timer_cancel_inside_callback():
    sim = Simulator()
    ticks = []
    timer = sim.every(1.0, lambda: (ticks.append(sim.now), timer.cancel()))
    sim.run(until=5.0)
    assert ticks == [1.0]


def test_reset_clears_state():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_all()
    sim.reset()
    assert sim.now == 0.0
    assert len(sim._queue) == 0
    assert sim.events_fired == 0
