"""Flow-level TCP transfer model (the Netcat/Iperf stand-in for Fig. 8).

Sec. VIII-C/D of the paper transfer a 20 MB file over TCP while a failover
happens (or not) and show the CDF of transfer completion times.  What that
experiment actually measures is: does the data path go dark while a ClickOS
VM boots?  This module models TCP at per-RTT-round granularity — slow start,
congestion avoidance, fast recovery on loss, RTO on blackout — which is
enough to expose exactly that effect while staying cheap to simulate.

The model runs on the shared :class:`~repro.sim.kernel.Simulator` so outages
created by the cloud substrate (rule installs, VM boots) line up on the same
clock as the transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.sim.kernel import SimulationError, Simulator


@dataclass
class TcpTransferResult:
    """Outcome of a completed transfer."""

    bytes_total: int
    start_time: float
    finish_time: float
    rounds: int
    losses: int
    timeouts: int

    @property
    def duration(self) -> float:
        """Seconds from start to completion."""
        return self.finish_time - self.start_time

class TcpTransfer:
    """A single TCP file transfer over a (possibly failing) path.

    Args:
        sim: shared simulator.
        size_bytes: file size (the paper uses 20 MB).
        bottleneck_bps: path bottleneck in bits/second.
        rtt: base round-trip time in seconds.
        mss: maximum segment size in bytes.
        loss_prob: independent per-round random loss probability, giving the
            "statistical fluctuation" visible in the paper's CDFs.
        path_up: predicate ``() -> bool``; while it returns False the path is
            dark (all segments lost, sender backs off with RTO doubling).
        on_complete: callback invoked with the :class:`TcpTransferResult`.
    """

    INITIAL_CWND = 10  # segments, per RFC 6928
    INITIAL_SSTHRESH = 64  # segments
    MIN_RTO = 0.2
    MAX_RTO = 60.0

    def __init__(
        self,
        sim: Simulator,
        size_bytes: int,
        bottleneck_bps: float = 1e9,
        rtt: float = 0.01,
        mss: int = 1460,
        loss_prob: float = 0.0,
        path_up: Optional[Callable[[], bool]] = None,
        on_complete: Optional[Callable[["TcpTransferResult"], None]] = None,
        name: str = "tcp",
    ) -> None:
        if size_bytes <= 0:
            raise SimulationError("size_bytes must be positive")
        if bottleneck_bps <= 0 or rtt <= 0 or mss <= 0:
            raise SimulationError("bottleneck_bps, rtt, mss must be positive")
        if not 0.0 <= loss_prob < 1.0:
            raise SimulationError("loss_prob must be in [0, 1)")
        self.sim = sim
        self.size_bytes = int(size_bytes)
        self.bottleneck_bps = float(bottleneck_bps)
        self.rtt = float(rtt)
        self.mss = int(mss)
        self.loss_prob = float(loss_prob)
        self.path_up = path_up if path_up is not None else (lambda: True)
        self.on_complete = on_complete
        self.name = name
        self._rng = sim.rng.child(f"tcp:{name}")

        self.bytes_acked = 0
        self.result: Optional[TcpTransferResult] = None
        self._cwnd = float(self.INITIAL_CWND)
        self._ssthresh = float(self.INITIAL_SSTHRESH)
        self._rto = max(self.MIN_RTO, 2 * self.rtt)
        self._rounds = 0
        self._losses = 0
        self._timeouts = 0
        self._start: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the transfer at the current simulation time."""
        if self._start is not None:
            raise SimulationError(f"transfer {self.name!r} already started")
        self._start = self.sim.now
        self.sim.process(self._run())

    # ------------------------------------------------------------------
    def _run(self):
        """Per-RTT-round congestion control loop."""
        max_cwnd_segments = self.bottleneck_bps * self.rtt / (8.0 * self.mss)
        while self.bytes_acked < self.size_bytes:
            self._rounds += 1
            if not self.path_up():
                # Blackout: the window is lost, sender waits an RTO and
                # retries from slow start (classic timeout behaviour).
                self._timeouts += 1
                self._ssthresh = max(2.0, self._cwnd / 2.0)
                self._cwnd = 1.0
                rto = self._rto
                self._rto = min(self.MAX_RTO, self._rto * 2.0)
                yield rto
                continue
            self._rto = max(self.MIN_RTO, 2 * self.rtt)

            effective = min(self._cwnd, max_cwnd_segments)
            sendable = min(
                int(effective) * self.mss, self.size_bytes - self.bytes_acked
            )
            round_time = max(self.rtt, sendable * 8.0 / self.bottleneck_bps)

            if self.loss_prob and self._rng.uniform() < self.loss_prob:
                # Fast retransmit/recovery: deliver half the round, halve cwnd.
                self._losses += 1
                self.bytes_acked += sendable // 2
                self._ssthresh = max(2.0, effective / 2.0)
                self._cwnd = self._ssthresh
                yield round_time + self.rtt
                continue

            self.bytes_acked += sendable
            if self._cwnd < self._ssthresh:
                self._cwnd = min(self._cwnd * 2.0, self._ssthresh)
            else:
                self._cwnd += 1.0
            yield round_time

        assert self._start is not None
        self.result = TcpTransferResult(
            bytes_total=self.size_bytes,
            start_time=self._start,
            finish_time=self.sim.now,
            rounds=self._rounds,
            losses=self._losses,
            timeouts=self._timeouts,
        )
        if self.on_complete is not None:
            self.on_complete(self.result)


@dataclass
class PathOutage:
    """A path blackout window, composable into a ``path_up`` predicate."""

    start: float
    duration: float

    def predicate(self, sim: Simulator) -> Callable[[], bool]:
        """Return a ``path_up`` callable bound to ``sim``'s clock."""

        def up() -> bool:
            return not (self.start <= sim.now < self.start + self.duration)

        return up


def run_transfer_batch(
    size_bytes: int,
    runs: int,
    outage: Optional[Tuple[float, float]] = None,
    bottleneck_bps: float = 1e9,
    rtt: float = 0.01,
    loss_prob: float = 0.002,
    seed: int = 0,
) -> List[float]:
    """Run ``runs`` independent transfers and return their durations.

    This is the Fig. 8 batch driver: each run is a fresh simulator (fresh
    TCP state) with an optional ``(start, duration)`` blackout — e.g.
    ``(1.0, 4.2)`` for a failover that flips rules before the ClickOS VM has
    booted, or ``(1.0, 0.0)`` for the wait-5-seconds / reconfigure variants
    where the data path never goes dark.
    """
    durations: List[float] = []
    for i in range(runs):
        sim = Simulator(seed=seed + i)
        if outage is not None and outage[1] > 0:
            path_up = PathOutage(outage[0], outage[1]).predicate(sim)
        else:
            path_up = None
        xfer = TcpTransfer(
            sim,
            size_bytes,
            bottleneck_bps=bottleneck_bps,
            rtt=rtt,
            loss_prob=loss_prob,
            path_up=path_up,
            name=f"batch{i}",
        )
        xfer.start()
        sim.run_all()
        assert xfer.result is not None
        durations.append(xfer.result.duration)
    return durations
