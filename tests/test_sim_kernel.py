"""Unit tests for the simulator kernel: clock, processes, timers."""

import pytest
from hypothesis import given, settings, strategies as st

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


# ----------------------------------------------------------------------
# Parked timers: the same run as a timer that keeps ticking
# ----------------------------------------------------------------------
def _run_with_a_lazy_timer(park, pokes, pokers, horizon, split):
    """One scripted run; the timer's callback works only after a poke.

    ``pokes`` are one-shot events armed before the timer starts; each of
    ``pokers`` is ``(started_before_the_timer, interval, every)``, a
    periodic timer poking on every ``every``-th tick.  With ``park``, an
    idle tick parks the timer and a poke resumes it.  Returns the trace of
    every poke and every working tick, and the ticks counted.
    """
    sim = Simulator()
    trace, dirty, box = [], [False], []

    def poke(label):
        trace.append((label, sim.now))
        dirty[0] = True
        if park:
            box[0].resume()

    def tick():
        if dirty[0]:
            dirty[0] = False
            trace.append(("work", sim.now))
        elif park:
            box[0].park()

    def poker(label, every):
        count = [0]

        def fire():
            count[0] += 1
            if count[0] % every == 0:
                poke(label)

        return fire

    for k, at in enumerate(pokes):
        sim.schedule_at(at, poke, args=(f"poke{k}",))
    for k, (before, interval, every) in enumerate(pokers):
        if before:
            sim.every(interval, poker(f"poker{k}", every))
    box.append(sim.every(0.5, tick))
    for k, (before, interval, every) in enumerate(pokers):
        if not before:
            sim.every(interval, poker(f"poker{k}", every))
    sim.run(until=split)
    ticks_at_split = box[0].fire_count + box[0].skipped
    sim.run(until=horizon)
    return trace, ticks_at_split, box[0].fire_count + box[0].skipped


_TIMES = st.one_of(
    st.integers(0, 20).map(lambda k: 0.5 * k),  # on the timer's grid
    st.floats(0.0, 10.0, allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(
    pokes=st.lists(_TIMES, max_size=6),
    pokers=st.lists(
        st.tuples(st.booleans(), st.sampled_from([0.25, 0.5, 1.0]), st.integers(1, 6)),
        max_size=3,
    ),
    split=_TIMES,
)
def test_a_parked_timer_keeps_the_order_of_a_ticking_one(pokes, pokers, split):
    ticking = _run_with_a_lazy_timer(False, pokes, pokers, 10.0, split)
    parked = _run_with_a_lazy_timer(True, pokes, pokers, 10.0, split)
    assert parked == ticking


def test_a_parked_timer_schedules_nothing():
    sim = Simulator()
    timer = sim.every(0.5, lambda: timer.park())
    assert sim.run(until=100.0) == 1
    assert (timer.fire_count, timer.skipped) == (1, 199)
    timer.resume()
    assert sim.run(until=100.5) == 1  # the 201st tick, where it would be
    timer.cancel()
    assert sim.run(until=200.0) == 0
