"""Traffic matrices and time series of snapshots.

A :class:`TrafficMatrix` is an N×N array of demand rates (Mbps) between
switch pairs, with a stable node ordering.  A :class:`TrafficMatrixSeries`
is the sequence of snapshots the evaluation replays in time order (672
snapshots for Internet2/GEANT, 1-second snapshots for UNIV1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np


class TrafficMatrix:
    """An N×N demand matrix in Mbps with named nodes.

    Args:
        nodes: node names in matrix order.
        demands: N×N array-like; ``demands[i][j]`` is the rate from
            ``nodes[i]`` to ``nodes[j]``.  The diagonal must be zero.
    """

    def __init__(self, nodes: Sequence[str], demands) -> None:
        self.nodes: Tuple[str, ...] = tuple(nodes)
        arr = np.asarray(demands, dtype=float)
        n = len(self.nodes)
        if arr.shape != (n, n):
            raise ValueError(f"expected {(n, n)} matrix, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("demands must be finite")
        if (arr < 0).any():
            raise ValueError("demands must be non-negative")
        if np.diagonal(arr).any():
            raise ValueError("diagonal (self-demand) must be zero")
        self._demands = arr
        self._index = {name: i for i, name in enumerate(self.nodes)}

    # ------------------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """The underlying N×N array (a copy is not made; treat as read-only)."""
        return self._demands

    def rate(self, src: str, dst: str) -> float:
        """Demand rate from ``src`` to ``dst`` in Mbps."""
        return float(self._demands[self._index[src], self._index[dst]])

    def total(self) -> float:
        """Sum of all demands (Mbps)."""
        return float(self._demands.sum())

    def pairs(self, min_rate: float = 0.0) -> Iterator[Tuple[str, str, float]]:
        """Yield (src, dst, rate) for every pair with rate > ``min_rate``."""
        n = len(self.nodes)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                r = float(self._demands[i, j])
                if r > min_rate:
                    yield (self.nodes[i], self.nodes[j], r)

    def __repr__(self) -> str:
        return f"TrafficMatrix(n={len(self.nodes)}, total={self.total():.1f} Mbps)"


@dataclass
class TrafficMatrixSeries:
    """A time-ordered series of snapshots sharing one node set.

    Attributes:
        nodes: node names in matrix order.
        snapshots: the snapshot matrices.
        interval: seconds between consecutive snapshots.
    """

    nodes: Tuple[str, ...]
    snapshots: List[TrafficMatrix]
    interval: float = 300.0

    def __post_init__(self) -> None:
        for snap in self.snapshots:
            if snap.nodes != tuple(self.nodes):
                raise ValueError("snapshot node set differs from series node set")
        if self.interval <= 0:
            raise ValueError("interval must be positive")

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self) -> Iterator[TrafficMatrix]:
        return iter(self.snapshots)

    def __getitem__(self, idx: int) -> TrafficMatrix:
        return self.snapshots[idx]

    def mean(self) -> TrafficMatrix:
        """The element-wise mean matrix — the Optimization Engine's input.

        Sec. IX-A: "We run the Optimization Engine, whose traffic matrix
        input is the mean value of the 672 snapshots."
        """
        if not self.snapshots:
            raise ValueError("empty series has no mean")
        stacked = np.stack([s.array for s in self.snapshots])
        return TrafficMatrix(self.nodes, stacked.mean(axis=0))

    def times(self) -> List[float]:
        """Replay timestamps of each snapshot."""
        return [i * self.interval for i in range(len(self.snapshots))]
