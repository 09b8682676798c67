"""Packet sources standing in for pktgen / Iperf / namespace senders.

The paper's prototype experiments (Sec. VIII) drive the system with pktgen
(1500-byte UDP at configurable Kpps) and Iperf.  These sources reproduce that
role on the discrete-event kernel: each source emits packet events at a
configured rate into a ``consume(packet_size_bytes, now)`` callback —
typically a VNF instance, a data-plane port, or a plain recording sink.
"""

from __future__ import annotations

from heapq import heapify, heapreplace
from typing import Callable, List, Optional, Sequence, Tuple

from repro.sim.kernel import Process, SimulationError, Simulator

Consumer = Callable[[int, float], None]
#: Batched consumers receive the per-packet timestamps of one chunk.
BatchConsumer = Callable[[List[float]], None]
#: Mux consumers receive one chunk of (stream_key, timestamp) pairs.
MuxConsumer = Callable[[List[Tuple[str, float]]], None]


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
    float64 timestamp array, both sorted in global arrival order.  Both
    the :class:`BatchedCBRMux` (which re-zips them into event batches)
    and the columnar replay path (which keeps the columns as-is for the
    columnar walker) build their timelines here, which is what makes
    their packet sequences bit-identical.
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


class _BaseSource:
    """Shared machinery: start/stop, emitted-packet accounting, rate changes."""

    def __init__(
        self,
        sim: Simulator,
        consumer: Consumer,
        packet_size: int = 1500,
        name: str = "source",
    ) -> None:
        if packet_size <= 0:
            raise SimulationError(f"packet_size must be positive, got {packet_size}")
        self.sim = sim
        self.consumer = consumer
        self.packet_size = packet_size
        self.name = name
        self.packets_sent = 0
        self.bytes_sent = 0
        self._proc: Optional[Process] = None

    def start(self) -> None:
        """Begin emitting packets."""
        if self._proc is not None and self._proc.alive:
            return
        self._proc = self.sim.process(self._emit())

    def stop(self) -> None:
        """Stop emitting packets."""
        if self._proc is not None:
            self._proc.interrupt()
            self._proc = None

    @property
    def running(self) -> bool:
        return self._proc is not None and self._proc.alive

    def _send_one(self) -> None:
        self.packets_sent += 1
        self.bytes_sent += self.packet_size
        self.consumer(self.packet_size, self.sim.now)

    def _emit(self):  # pragma: no cover - overridden
        raise NotImplementedError


class CBRSource(_BaseSource):
    """Constant-bit-rate source (the pktgen stand-in).

    Args:
        rate_pps: packets per second.  May be changed while running via
            :meth:`set_rate`, which is how Fig. 9's 1 → 10 → 1 Kpps rate
            steps are produced.
        chunk: packets per simulator event.  The default of 1 emits one
            event per packet (the original behaviour, byte for byte).
            With ``chunk=K`` the source fires one event per K packets and
            hands each packet its exact nominal timestamp, so the packets
            a consumer sees — count, order, and every timestamp float —
            are identical to the K=1 stream; only the number of simulator
            events changes.  Rate changes then take effect from the next
            *chunk* rather than the next packet.
        batch_consumer: with chunking, receive each chunk's timestamp list
            in one call instead of per-packet ``consumer`` calls.
        horizon: stop emitting after this absolute time.  Chunked streams
            need the cutoff up front: a chunk is scheduled at its *last*
            packet's time, so without a horizon a chunk straddling the
            ``sim.run(until=...)`` boundary would either fire late or not
            at all, while the scalar stream delivers its pre-boundary part.
    """

    def __init__(
        self,
        sim: Simulator,
        consumer: Consumer,
        rate_pps: float,
        packet_size: int = 1500,
        name: str = "cbr",
        chunk: int = 1,
        batch_consumer: Optional[BatchConsumer] = None,
        horizon: Optional[float] = None,
    ) -> None:
        super().__init__(sim, consumer, packet_size, name)
        if rate_pps <= 0:
            raise SimulationError(f"rate_pps must be positive, got {rate_pps}")
        if chunk < 1:
            raise SimulationError(f"chunk must be >= 1, got {chunk}")
        self.rate_pps = float(rate_pps)
        self.chunk = int(chunk)
        self.batch_consumer = batch_consumer
        self.horizon = horizon
        self._chunk_active = False
        self._next_t: Optional[float] = None
        self._pending = None  # the armed chunk event, cancellable by stop()

    def set_rate(self, rate_pps: float) -> None:
        """Change the emission rate; takes effect from the next packet."""
        if rate_pps <= 0:
            raise SimulationError(f"rate_pps must be positive, got {rate_pps}")
        self.rate_pps = float(rate_pps)

    def _emit(self):
        while True:
            self._send_one()
            yield 1.0 / self.rate_pps

    # -- chunked mode --------------------------------------------------
    def start(self) -> None:
        if self.chunk == 1 and self.batch_consumer is None and self.horizon is None:
            super().start()
            return
        if self._chunk_active:
            return
        self._chunk_active = True
        self._next_t = self.sim.now  # first packet fires at start time
        self._schedule_chunk()

    def stop(self) -> None:
        self._chunk_active = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None
        super().stop()

    @property
    def running(self) -> bool:
        return self._chunk_active or super().running

    def _schedule_chunk(self) -> None:
        """Compute the next chunk's timestamps and arm one event for it.

        Timestamps accumulate by repeated addition (``t += gap``), the
        same left-fold the event-per-packet stream performs via the
        simulator clock, so the floats agree bit for bit.
        """
        if not self._chunk_active:
            return
        gap = 1.0 / self.rate_pps
        t = self._next_t
        horizon = self.horizon
        ts: List[float] = []
        while len(ts) < self.chunk:
            if horizon is not None and t > horizon:
                break
            ts.append(t)
            t = t + gap
        self._next_t = t
        if not ts:
            self._chunk_active = False  # horizon exhausted
            return
        self._pending = self.sim.schedule_at(ts[-1], self._fire_chunk, (ts,))

    def _fire_chunk(self, ts: List[float]) -> None:
        self._pending = None
        self.packets_sent += len(ts)
        self.bytes_sent += len(ts) * self.packet_size
        if self.batch_consumer is not None:
            self.batch_consumer(ts)
        else:
            consumer = self.consumer
            size = self.packet_size
            for t in ts:
                consumer(size, t)
        self._schedule_chunk()


class BatchedCBRMux:
    """Many CBR streams merged into one batched, globally time-ordered feed.

    Chunking each stream separately preserves per-stream timestamps but not
    the *interleaving* across streams — and when streams share stateful
    consumers (VNF instances with sliding admission windows), processing
    order is observable.  The mux instead merges all streams by timestamp
    and emits one simulator event per ``chunk`` packets of the *global*
    arrival sequence, so a shared consumer sees exactly the packets, order
    and timestamps of one event-per-packet ``CBRSource`` per stream.

    Per-stream timestamps accumulate by repeated addition from the start
    phase, the same float left-fold ``CBRSource`` performs through the
    simulator clock.  Events are scheduled with ``schedule_at`` at each
    batch's last timestamp, so no drift accumulates.  Streams whose next
    packet would land past ``horizon`` are retired; the final partial
    batch still fires.

    Args:
        batch_consumer: called with each batch, a list of
            ``(stream_key, timestamp)`` pairs in global time order.
        chunk: packets per simulator event.
        horizon: absolute emission cutoff (inclusive), normally the
            ``sim.run(until=...)`` bound.
    """

    def __init__(
        self,
        sim: Simulator,
        batch_consumer: MuxConsumer,
        chunk: int = 256,
        horizon: Optional[float] = None,
        name: str = "cbr-mux",
    ) -> None:
        if chunk < 1:
            raise SimulationError(f"chunk must be >= 1, got {chunk}")
        self.sim = sim
        self.batch_consumer = batch_consumer
        self.chunk = int(chunk)
        self.horizon = horizon
        self.name = name
        self.packets_sent = 0
        self._heap: List[list] = []  # [next_t, order, key, gap]
        self._started = False
        self._active = False
        self._pending = None
        # With a horizon the whole merged timeline is finite: it is
        # precomputed at start() and served by slicing.
        self._timeline: Optional[List[Tuple[str, float]]] = None
        self._cursor = 0

    def add_stream(self, key: str, rate_pps: float, start: float) -> None:
        """Register one CBR stream (first packet exactly at ``start``)."""
        if self._started:
            raise SimulationError("add_stream after start()")
        if rate_pps <= 0:
            raise SimulationError(f"rate_pps must be positive, got {rate_pps}")
        self._heap.append([start, len(self._heap), key, 1.0 / rate_pps])

    def start(self) -> None:
        """Arm the first batch event."""
        if self._started:
            return
        self._started = True
        self._active = True
        if self.horizon is not None:
            self._timeline = self._build_timeline()
        else:
            heapify(self._heap)
        self._schedule_batch()

    def _build_timeline(self) -> List[Tuple[str, float]]:
        """Merge every stream's finite timestamp sequence up front.

        Delegates to :func:`merge_cbr_timeline` (shared with the columnar
        replay path, keeping the two bit-identical) and re-zips the
        columns into the ``(key, timestamp)`` batches the event loop
        serves.
        """
        keys, kidx, ts = merge_cbr_timeline(
            [(key, start, gap) for start, _order, key, gap in self._heap],
            self.horizon,
        )
        return [(keys[i], t) for i, t in zip(kidx.tolist(), ts.tolist())]

    def stop(self) -> None:
        self._active = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _schedule_batch(self) -> None:
        if not self._active:
            return
        if self._timeline is not None:
            batch = self._timeline[self._cursor : self._cursor + self.chunk]
            self._cursor += len(batch)
        else:
            heap = self._heap
            batch = []
            while heap and len(batch) < self.chunk:
                head = heap[0]
                t = head[0]
                batch.append((head[2], t))
                head[0] = t + head[3]
                heapreplace(heap, head)
        if not batch:
            self._active = False
            return
        self._pending = self.sim.schedule_at(batch[-1][1], self._fire, (batch,))

    def _fire(self, batch: List[Tuple[str, float]]) -> None:
        self._pending = None
        self.packets_sent += len(batch)
        self.batch_consumer(batch)
        self._schedule_batch()


class PoissonSource(_BaseSource):
    """Poisson arrivals with a given mean rate (memoryless gaps)."""

    def __init__(
        self,
        sim: Simulator,
        consumer: Consumer,
        rate_pps: float,
        packet_size: int = 1500,
        name: str = "poisson",
    ) -> None:
        super().__init__(sim, consumer, packet_size, name)
        if rate_pps <= 0:
            raise SimulationError(f"rate_pps must be positive, got {rate_pps}")
        self.rate_pps = float(rate_pps)
        self._rng = sim.rng.child(f"poisson:{name}")

    def _emit(self):
        while True:
            yield self._rng.exponential(1.0 / self.rate_pps)
            self._send_one()


class OnOffSource(_BaseSource):
    """Bursty on/off source: CBR during ON, silent during OFF.

    ON/OFF durations are exponential.  Used to mimic the "fiercely changed
    traffic" the fast-failover evaluation (Fig. 12) stresses.
    """

    def __init__(
        self,
        sim: Simulator,
        consumer: Consumer,
        rate_pps: float,
        mean_on: float = 1.0,
        mean_off: float = 1.0,
        packet_size: int = 1500,
        name: str = "onoff",
    ) -> None:
        super().__init__(sim, consumer, packet_size, name)
        if rate_pps <= 0 or mean_on <= 0 or mean_off <= 0:
            raise SimulationError("rate_pps, mean_on, mean_off must be positive")
        self.rate_pps = float(rate_pps)
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)
        self._rng = sim.rng.child(f"onoff:{name}")

    def _emit(self):
        gap = 1.0 / self.rate_pps
        while True:
            on_end = self.sim.now + self._rng.exponential(self.mean_on)
            while self.sim.now < on_end:
                self._send_one()
                yield gap
            yield self._rng.exponential(self.mean_off)


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
