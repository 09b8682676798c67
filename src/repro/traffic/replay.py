"""Trace replay: turn a traffic-matrix series into per-class rate timelines.

Sec. IX-A: "we replay all the traffic matrices in time order and APPLE will
react to traffic changes during this process."  The timeline produced here
feeds the Fig. 12 experiment, where the Dynamic Handler watches per-instance
load as snapshots advance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.traffic.classes import ClassBuilder, TrafficClass
from repro.traffic.matrix import TrafficMatrixSeries


@dataclass
class ClassRateTimeline:
    """Rates of a fixed class set across snapshots.

    Attributes:
        classes: the class structures (paths/chains fixed across time).
        times: replay timestamp of each snapshot.
        rates: array of shape (num_snapshots, num_classes), Mbps.
    """

    classes: List[TrafficClass]
    times: List[float]
    rates: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.times), len(self.classes))
        if self.rates.shape != expected:
            raise ValueError(f"rates shape {self.rates.shape} != {expected}")


def replay_series(
    builder: ClassBuilder, series: TrafficMatrixSeries
) -> ClassRateTimeline:
    """Build the fixed class set from the mean matrix, then replay rates.

    Matches the paper's methodology: class structure (and the placement
    computed from it) comes from the mean matrix; each snapshot then
    re-scales per-class rates.
    """
    mean_classes = builder.build(series.mean())
    times = series.times()
    rates = np.zeros((len(series), len(mean_classes)))
    for k, snap in enumerate(series):
        for j, c in enumerate(mean_classes):
            rates[k, j] = snap.rate(c.src, c.dst) * c.share
    return ClassRateTimeline(mean_classes, times, rates)
