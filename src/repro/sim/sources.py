"""Packet sources standing in for pktgen / Iperf / namespace senders.

The paper's prototype experiments (Sec. VIII) drive the system with pktgen
(1500-byte UDP at configurable Kpps) and Iperf.  These sources reproduce that
role on the discrete-event kernel: each source emits packet events at a
configured rate into a ``consume(packet_size_bytes, now)`` callback —
typically a VNF instance, a data-plane port, or a plain recording sink.

Replaying many finite CBR streams through the data plane needs no events
at all: :func:`merge_cbr_timeline` computes their merged timeline up front,
as columns the columnar walker takes whole.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.sim.kernel import Process, SimulationError, Simulator

Consumer = Callable[[int, float], None]


def merge_cbr_timeline(
    streams: Sequence[Tuple[str, float, float]], horizon: float
):
    """Merge finite CBR streams into one globally time-ordered timeline.

    ``streams`` is a sequence of ``(key, start, gap)`` triples in
    registration order.  Per stream, ``numpy.cumsum`` over
    ``[start, gap, gap, ...]`` accumulates strictly sequentially in
    float64 — the same left fold the event-per-packet :class:`CBRSource`
    performs through the simulator clock — so every timestamp is
    bit-identical to the incremental version.  Cross-stream order comes
    from a stable sort on the timestamps; exact float ties keep stream
    registration order.

    Returns ``(keys, key_idx, ts)``: the stream keys in registration
    order, an int64 array indexing into ``keys`` per packet, and the
    float64 timestamp array, both sorted in global arrival order: exactly
    the packets, order and timestamps of one :class:`CBRSource` per
    stream, each started at its ``start`` and run to ``horizon``
    (``tests/test_sim_sources.py`` holds the two against each other).
    """
    import numpy as np

    keys: List[str] = []
    ts_parts: List = []
    idx_parts: List = []
    for key, start, gap in streams:
        ki = len(keys)
        keys.append(key)
        if start > horizon:
            continue
        count = int((horizon - start) / gap) + 2  # margin; trimmed below
        arr = np.empty(count)
        arr[0] = start
        arr[1:] = gap
        np.cumsum(arr, out=arr)
        arr = arr[arr <= horizon]
        ts_parts.append(arr)
        idx_parts.append(np.full(len(arr), ki, dtype=np.int64))
    if not ts_parts:
        return keys, np.empty(0, dtype=np.int64), np.empty(0)
    ts = np.concatenate(ts_parts)
    kidx = np.concatenate(idx_parts)
    order = np.argsort(ts, kind="stable")
    return keys, kidx[order], ts[order]


class CBRSource:
    """Constant-bit-rate source (the pktgen stand-in).

    Args:
        rate_pps: packets per second.  May be changed while running via
            :meth:`set_rate`, which is how Fig. 9's 1 → 10 → 1 Kpps rate
            steps are produced.
    """

    def __init__(
        self,
        sim: Simulator,
        consumer: Consumer,
        rate_pps: float,
        packet_size: int = 1500,
        name: str = "cbr",
    ) -> None:
        if packet_size <= 0:
            raise SimulationError(f"packet_size must be positive, got {packet_size}")
        if rate_pps <= 0:
            raise SimulationError(f"rate_pps must be positive, got {rate_pps}")
        self.sim = sim
        self.consumer = consumer
        self.packet_size = packet_size
        self.name = name
        self.rate_pps = float(rate_pps)
        self.packets_sent = 0
        self.bytes_sent = 0
        self._proc: Optional[Process] = None

    def start(self) -> None:
        """Begin emitting packets."""
        if self._proc is not None:  # already emitting
            return
        self._proc = self.sim.process(self._emit())

    def stop(self) -> None:
        """Stop emitting packets."""
        if self._proc is not None:
            self._proc.interrupt()
            self._proc = None

    def set_rate(self, rate_pps: float) -> None:
        """Change the emission rate; takes effect from the next packet."""
        if rate_pps <= 0:
            raise SimulationError(f"rate_pps must be positive, got {rate_pps}")
        self.rate_pps = float(rate_pps)

    def _emit(self):
        while True:
            self.packets_sent += 1
            self.bytes_sent += self.packet_size
            self.consumer(self.packet_size, self.sim.now)
            yield 1.0 / self.rate_pps


class RateMeter:
    """Sliding-window packet-rate estimator.

    Counts packets via :meth:`consume` (so it can sit between a source and a
    downstream consumer) and reports the rate over the last ``window``
    seconds — the same quantity the Dynamic Handler derives from Open
    vSwitch per-port counters.
    """

    def __init__(self, sim: Simulator, window: float = 0.5, downstream: Optional[Consumer] = None) -> None:
        if window <= 0:
            raise SimulationError(f"window must be positive, got {window}")
        self.sim = sim
        self.window = window
        self.downstream = downstream
        self._stamps: list = []
        self.total_packets = 0

    def consume(self, packet_size: int, now: float) -> None:
        """Record a packet and forward it downstream if configured."""
        self.total_packets += 1
        self._stamps.append(now)
        self._trim(now)
        if self.downstream is not None:
            self.downstream(packet_size, now)

    def rate_pps(self) -> float:
        """Packet rate over the last window, in packets/second."""
        self._trim(self.sim.now)
        return len(self._stamps) / self.window

    def _trim(self, now: float) -> None:
        cutoff = now - self.window
        stamps = self._stamps
        i = 0
        while i < len(stamps) and stamps[i] < cutoff:
            i += 1
        if i:
            del stamps[:i]
