"""Traffic matrices, synthesis, and equivalence classes (Sec. IV-A, IX-A).

The evaluation replays 672 snapshots of time-varying traffic matrices per
topology.  The original Abilene/TOTEM traces are not redistributable, so
this package synthesises statistically equivalent series: gravity-model
spatial structure (FNSS-style), diurnal/weekly temporal patterns, and noise
following the power-law mean–variance relationship (MVR) the paper cites
for the smoothing effect of class aggregation.
"""

from repro.traffic.classes import ClassBuilder, TrafficClass
from repro.traffic.diurnal import DiurnalModel, synthesize_series
from repro.traffic.gravity import gravity_matrix, node_weights
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSeries
from repro.traffic.replay import ClassRateTimeline, replay_series

__all__ = [
    "TrafficMatrix",
    "TrafficMatrixSeries",
    "gravity_matrix",
    "node_weights",
    "DiurnalModel",
    "synthesize_series",
    "TrafficClass",
    "ClassBuilder",
    "ClassRateTimeline",
    "replay_series",
]
