"""Time-varying traffic synthesis: diurnal pattern + power-law MVR noise.

Sec. IX-A replays 672 snapshots per topology (one week at 15-minute
intervals).  Real backbone traffic shows "clear daily or weekly patterns"
(Sec. VI) plus short-term fluctuation whose variance follows a power law of
the mean — the mean–variance relationship (MVR) of [21] that the paper uses
to argue aggregated classes are smoother.  This module reproduces both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.graph import Topology
from repro.sim.rng import derive
from repro.traffic.gravity import gravity_matrix
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSeries

#: One week at 15-minute snapshots = the paper's 672 snapshots.
WEEK_SNAPSHOTS = 672
SNAPSHOT_INTERVAL = 900.0  # 15 minutes


@dataclass
class DiurnalModel:
    """Parameters of the temporal model.

    ``rate(t) = base · diurnal(t) · weekly(t) + MVR noise``, where

    * ``diurnal(t) = 1 + daily_amplitude · sin(2πt/86400 + phase)``,
    * ``weekly(t)`` damps weekends by ``weekend_dip``,
    * noise std = ``mvr_phi · mean^mvr_beta`` (power-law MVR, β ≈ 0.8 on
      measured backbones), truncated at zero.
    * ``burst_prob``/``burst_scale`` inject occasional short spikes — the
      small-time-scale dynamics fast failover must absorb (Fig. 12).
    """

    daily_amplitude: float = 0.4
    weekend_dip: float = 0.35
    mvr_phi: float = 0.25
    mvr_beta: float = 0.8
    burst_prob: float = 0.01
    burst_scale: float = 3.0

    def factor(self, t: float) -> float:
        """Deterministic diurnal × weekly modulation factor at time ``t``."""
        day = 86_400.0
        diurnal = 1.0 + self.daily_amplitude * np.sin(2 * np.pi * t / day - np.pi / 2)
        weekday = int(t // day) % 7
        weekly = 1.0 - (self.weekend_dip if weekday >= 5 else 0.0)
        return float(diurnal * weekly)


def synthesize_series(
    topo: Topology,
    total_mbps: float,
    snapshots: int = WEEK_SNAPSHOTS,
    interval: float = SNAPSHOT_INTERVAL,
    model: DiurnalModel = DiurnalModel(),
    seed: int = 0,
    weights=None,
    pairs=None,
) -> TrafficMatrixSeries:
    """Synthesise a time-varying traffic-matrix series for ``topo``.

    The spatial structure is a gravity-model base matrix; each snapshot
    modulates it with the diurnal/weekly factor and adds per-entry MVR noise
    and rare bursts.

    Args:
        total_mbps: aggregate demand of the base matrix.
        snapshots: number of snapshots (default: one week at 15 min).
        interval: seconds between snapshots.
        weights: optional per-node gravity weights (e.g. zero for switches
            that terminate no traffic, like data-center core switches).
        pairs: optional whitelist of (src, dst) pairs; other demands are
            zeroed and the matrix rescaled — the paper's UNIV1 methodology
            replays traces "between random source-destination pairs".
    """
    if snapshots < 1:
        raise ValueError("need at least one snapshot")
    base = gravity_matrix(topo, total_mbps, seed=seed, weights=weights).array
    if pairs is not None:
        index = {s: i for i, s in enumerate(topo.switches)}
        mask = np.zeros_like(base, dtype=bool)
        for src, dst in pairs:
            mask[index[src], index[dst]] = True
        base = np.where(mask, base, 0.0)
        kept = base.sum()
        if kept <= 0:
            raise ValueError("pair whitelist removed all demand")
        base = base * (total_mbps / kept)
    rng = np.random.default_rng(derive(seed, "traffic.mvr"))
    nodes = topo.switches
    n = len(nodes)
    mats = []
    for k in range(snapshots):
        t = k * interval
        mean = base * model.factor(t)
        std = np.where(
            mean > 0,
            model.mvr_phi * np.power(np.maximum(mean, 1e-9), model.mvr_beta),
            0.0,
        )
        snap = mean + rng.normal(0.0, 1.0, size=(n, n)) * std
        # Rare multiplicative bursts on individual entries.
        bursts = rng.random((n, n)) < model.burst_prob
        snap = np.where(bursts, snap * model.burst_scale, snap)
        snap = np.maximum(snap, 0.0)
        np.fill_diagonal(snap, 0.0)
        mats.append(TrafficMatrix(nodes, snap))
    return TrafficMatrixSeries(tuple(nodes), mats, interval)


def aggregate_smoothing_ratio(series: TrafficMatrixSeries, group_size: int = 8) -> float:
    """Coefficient-of-variation ratio: aggregated vs individual demands.

    Demonstrates the Sec. IV-A claim that class aggregation smooths traffic:
    returns CV(aggregate of ``group_size`` entries) / mean CV(entry), which
    is < 1 under power-law MVR (``tests/test_paper_claims.py`` holds it below
    0.9 on Internet2).
    """
    stacked = np.stack([s.array for s in series.snapshots])  # (T, N, N)
    t, n, _ = stacked.shape
    flat = stacked.reshape(t, n * n)
    active = flat[:, flat.mean(axis=0) > 0]
    if active.shape[1] < group_size:
        raise ValueError("not enough active demands to aggregate")

    def cv(x: np.ndarray) -> np.ndarray:
        mean = x.mean(axis=0)
        return np.where(mean > 0, x.std(axis=0) / np.maximum(mean, 1e-12), 0.0)

    individual_cv = float(cv(active).mean())
    groups = active[:, : (active.shape[1] // group_size) * group_size]
    grouped = groups.reshape(t, -1, group_size).sum(axis=2)
    aggregated_cv = float(cv(grouped).mean())
    if individual_cv == 0:
        return 1.0
    return aggregated_cv / individual_cv
