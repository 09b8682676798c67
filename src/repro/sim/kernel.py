"""The discrete-event simulator: clock, scheduler, processes and timers.

The kernel is intentionally small (a few hundred lines) but supports the
three styles of simulation code used across the repository:

* plain callbacks (``sim.schedule(delay, fn, args)``),
* generator *processes* that ``yield`` delays, in the style of SimPy, and
* periodic :class:`Timer` objects (used e.g. by the Dynamic Handler to poll
  Open vSwitch packet counters every interval).

A periodic timer with nothing to do can *park* (:meth:`Timer.park`): it
schedules nothing, but keeps its place.  The simulator tracks the ticks it
would have fired — each at the same accumulated time, and each taking the
sequence number its reschedule would have taken — so every other event
fires in exactly the order it would with the timer ticking, and
:meth:`Timer.resume` re-arms it at the very tick (time, tie-break and
all) it would have fired next.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional, Tuple

from repro.obs import state as _obs
from repro.sim.events import Event, EventQueue
from repro.sim.rng import SeededRNG


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (e.g. negative delays)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Args:
        seed: seed for the simulator-owned RNG handed to stochastic
            components (packet sources, traffic noise).

    Attributes:
        now: current simulation time in seconds.
        rng: a :class:`~repro.sim.rng.SeededRNG` owned by this simulator.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = SeededRNG(seed)
        self._queue = EventQueue()
        self._running = False
        self._fired = 0
        #: Parked timers' next ticks, a heap of ``(time, priority, seq, timer)``.
        self._parked: list = []

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, already at {self.now!r}"
            )
        return self._queue.push(time, callback, args, priority)

    # ------------------------------------------------------------------
    # Processes and timers
    # ------------------------------------------------------------------
    def process(self, generator: Generator[float, None, None]) -> "Process":
        """Start a generator-based process.

        The generator yields non-negative floats interpreted as delays;
        the process resumes after each delay until the generator returns.
        """
        proc = Process(self, generator)
        proc._step()
        return proc

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        start_delay: Optional[float] = None,
    ) -> "Timer":
        """Run ``callback`` periodically; returns a cancellable :class:`Timer`."""
        timer = Timer(self, interval, callback, args)
        timer.start(start_delay if start_delay is not None else interval)
        return timer

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the number of events fired.

        When stopped by ``until`` (nothing left at or before it), the
        clock is advanced exactly to ``until`` so back-to-back ``run``
        calls tile the timeline.  When stopped by ``max_events`` the clock
        stays at the last fired event: earlier events may still be queued.
        """
        fired = 0
        exhausted = True
        parked = self._parked
        self._running = True
        try:
            while self._queue:
                try:
                    next_time = self._queue.peek_time()
                except IndexError:
                    break
                if until is not None and next_time > until:
                    break
                event = self._queue.pop()
                if event.cancelled:
                    continue
                if parked and parked[0][0] <= event.time:
                    self._pass_parked((event.time, event.priority, event.seq))
                self.now = event.time
                event.fire()
                fired += 1
                self._fired += 1
                if max_events is not None and fired >= max_events:
                    exhausted = False
                    break
        finally:
            self._running = False
        if exhausted and until is not None:
            if parked:
                self._pass_parked((until, _LAST, _LAST))
            if self.now < until:
                self.now = until
        if _obs.REGISTRY.enabled:
            _obs.metric("sim_events_fired_total").inc(fired)
        return fired

    def run_all(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue is empty (bounded by ``max_events``)."""
        return self.run(until=None, max_events=max_events)

    @property
    def events_fired(self) -> int:
        """Total number of events fired over the simulator's lifetime."""
        return self._fired

    def reset(self) -> None:
        """Drop pending events and rewind the clock to zero."""
        self._queue.clear()
        for _time, _priority, _seq, timer in self._parked:
            timer._parked = False  # dropped, like every pending event
        self._parked.clear()
        self.now = 0.0
        self._fired = 0

    # ------------------------------------------------------------------
    # Parked timers
    # ------------------------------------------------------------------
    def _park(self, timer: "Timer") -> None:
        """Take over ``timer``'s reschedule: its next tick, not scheduled."""
        heapq.heappush(
            self._parked,
            (self.now + timer.interval, 0, self._queue.reserve(), timer),
        )

    def _pass_parked(self, key: tuple) -> None:
        """Count every parked tick ordered before ``key`` as fired.

        Each one reserves the sequence number of the reschedule it stands
        for, in firing order, so the numbering stays that of ticking timers.
        """
        parked, reserve, replace = self._parked, self._queue.reserve, heapq.heapreplace
        while parked and parked[0] < key:
            time, _priority, _seq, timer = parked[0]
            timer.skipped += 1
            replace(parked, (time + timer.interval, 0, reserve(), timer))

    def _unpark(self, timer: "Timer") -> tuple:
        """Remove a parked timer's next tick and return it."""
        parked = self._parked
        index = next(i for i, entry in enumerate(parked) if entry[3] is timer)
        entry = parked[index]
        parked[index] = parked[-1]
        parked.pop()
        heapq.heapify(parked)
        return entry


class Process:
    """A generator-based cooperative process.

    The wrapped generator yields delays (floats).  ``Process`` schedules its
    own continuation after each yield.  Exceptions raised by the generator
    propagate out of the event that resumed it, which fails tests loudly
    instead of being swallowed.
    """

    def __init__(self, sim: Simulator, generator: Generator[float, None, None]) -> None:
        self._sim = sim
        self._gen = generator
        self._alive = True
        self._next_event: Optional[Event] = None

    def interrupt(self) -> None:
        """Stop the process; its pending wakeup is cancelled."""
        self._alive = False
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        self._gen.close()

    def _step(self) -> None:
        if not self._alive:
            return
        try:
            delay = next(self._gen)
        except StopIteration:
            self._alive = False
            self._next_event = None
            return
        if delay < 0:
            raise SimulationError(f"process yielded negative delay {delay!r}")
        self._next_event = self._sim.schedule(delay, self._step)


#: Sorts after any priority or sequence number (``run(until=)``'s bound).
_LAST = float("inf")


class Timer:
    """A periodic timer built on the event queue.

    Used by polling components (overload detection polls vSwitch counters,
    the Optimization Engine re-runs each period).  Cancelling an armed
    timer is O(1).

    A timer whose callback finds nothing to do can :meth:`park` (the
    southbound reconciler at rest does): from then on it schedules nothing,
    the simulator counts the ticks it skips in :attr:`skipped`, and
    :meth:`resume` arms it at the tick it would have fired next.
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive, got {interval!r}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self._event: Optional[Event] = None
        self._active = False
        self._parking = self._parked = False
        self.fire_count = 0
        #: Ticks that passed while parked (the owner may take and reset it).
        self.skipped = 0

    def start(self, first_delay: Optional[float] = None) -> None:
        """Arm the timer; first firing after ``first_delay`` (default: interval)."""
        self._active = True
        delay = self.interval if first_delay is None else first_delay
        self._event = self._sim.schedule(delay, self._tick)

    def cancel(self) -> None:
        """Disarm the timer (parked or not)."""
        self._active = self._parking = False
        if self._parked:
            self._parked = False
            self._sim._unpark(self)
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def park(self) -> None:
        """Called from the callback: stop firing after it, keep the place."""
        self._parking = True

    def resume(self) -> None:
        """Arm a parked timer at the tick it would have fired next."""
        self._parking = False
        if self._parked:
            self._parked = False
            time, priority, seq, _timer = self._sim._unpark(self)
            self._event = self._sim._queue.push(
                time, self._tick, priority=priority, seq=seq
            )

    def _tick(self) -> None:
        if not self._active:
            return
        self.fire_count += 1
        self._callback(*self._args)
        if self._parking:
            self._parking, self._parked = False, True
            self._event = None
            self._sim._park(self)
        elif self._active:
            self._event = self._sim.schedule(self.interval, self._tick)
