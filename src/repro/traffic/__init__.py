"""Traffic matrices, synthesis, and equivalence classes (Sec. IV-A, IX-A).

The evaluation replays 672 snapshots of time-varying traffic matrices per
topology.  The original Abilene/TOTEM traces are not redistributable, so
this package synthesises statistically equivalent series: gravity-model
spatial structure (FNSS-style), diurnal/weekly temporal patterns, and noise
following the power-law mean–variance relationship (MVR) the paper cites
for the smoothing effect of class aggregation.
"""
