"""Event primitives for the discrete-event kernel.

Events are ordered by ``(time, priority, seq)``.  The sequence number makes
ordering total and deterministic: two events scheduled for the same instant
fire in scheduling order, which keeps every experiment reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple


@dataclass(order=True)
class Event:
    """A single scheduled callback.

    Attributes:
        time: absolute simulation time at which the event fires.
        priority: tie-breaker; lower fires first at equal time.
        seq: global scheduling sequence number (total order).
        callback: callable invoked when the event fires.  ``None`` after
            cancellation.
        args: positional arguments passed to the callback.
    """

    time: float
    priority: int
    seq: int
    callback: Optional[Callable[..., Any]] = field(compare=False)
    args: Tuple[Any, ...] = field(compare=False, default=())

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self.callback is None

    def cancel(self) -> None:
        """Cancel the event; the kernel skips cancelled events cheaply."""
        self.callback = None
        self.args = ()

    def fire(self) -> None:
        """Invoke the callback unless the event was cancelled."""
        if self.callback is not None:
            self.callback(*self.args)


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    The heap holds ``(time, priority, seq, event)`` tuples: ``seq`` is
    unique, so tuple comparison (in C) settles every ordering on the first
    three fields — the same key ``Event`` itself orders by — and never
    reaches the event.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
        seq: Optional[int] = None,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``; returns the event.

        ``seq`` is a number taken earlier with :meth:`reserve`; by default
        the event takes the next one.
        """
        if seq is None:
            seq = next(self._counter)
        event = Event(time, priority, seq, callback, args)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def reserve(self) -> int:
        """Take the next sequence number without scheduling anything."""
        return next(self._counter)

    def pop(self) -> Event:
        """Remove and return the earliest event (cancelled ones included)."""
        return heapq.heappop(self._heap)[3]

    def peek_time(self) -> float:
        """Return the firing time of the earliest non-cancelled event.

        Raises:
            IndexError: if the queue holds no live events.
        """
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            raise IndexError("peek_time on empty EventQueue")
        return self._heap[0][0]

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
