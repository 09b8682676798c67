"""Tests for gravity-model and diurnal traffic synthesis."""

import numpy as np
import pytest

from repro.topology.datasets import internet2, univ1
from repro.traffic.diurnal import (
    aggregate_smoothing_ratio,
    DiurnalModel,
    synthesize_series,
)
from repro.traffic.gravity import gravity_matrix, node_weights


def test_gravity_total_normalised():
    topo = internet2()
    tm = gravity_matrix(topo, total_mbps=5000.0, seed=1)
    assert abs(tm.total() - 5000.0) < 1e-6


def test_gravity_deterministic_per_seed():
    topo = internet2()
    a = gravity_matrix(topo, 1000.0, seed=2)
    b = gravity_matrix(topo, 1000.0, seed=2)
    c = gravity_matrix(topo, 1000.0, seed=3)
    assert np.allclose(a.array, b.array)
    assert not np.allclose(a.array, c.array)


def test_gravity_zero_total():
    topo = internet2()
    tm = gravity_matrix(topo, 0.0)
    assert tm.total() == 0.0


def test_gravity_negative_total_rejected():
    with pytest.raises(ValueError):
        gravity_matrix(internet2(), -1.0)


def test_node_weights_degree_bias():
    topo = internet2()
    flat = node_weights(topo, seed=0, sigma=0.0, degree_bias=1.0)
    # With sigma=0 the weight is exactly the degree.
    assert flat["ATLA"] == topo.degree("ATLA")


def test_custom_weights_shape_demand():
    topo = univ1()
    weights = {s: (1.0 if s.startswith("edge") else 0.0) for s in topo.switches}
    tm = gravity_matrix(topo, 1000.0, weights=weights)
    for src, dst, rate in tm.pairs():
        assert src.startswith("edge") and dst.startswith("edge")


def test_series_shape_and_interval():
    topo = internet2()
    series = synthesize_series(topo, 1000.0, snapshots=10, interval=60.0, seed=0)
    assert len(series) == 10
    assert series.interval == 60.0
    assert series.times()[-1] == 540.0


def test_series_non_negative_and_varying():
    topo = internet2()
    series = synthesize_series(topo, 1000.0, snapshots=20, seed=0)
    stacked = np.stack([s.array for s in series])
    assert (stacked >= 0).all()
    assert stacked.std(axis=0).max() > 0  # actually time-varying


def test_diurnal_factor_daily_cycle():
    model = DiurnalModel(daily_amplitude=0.4, weekend_dip=0.0)
    trough = model.factor(0.0)  # phase -pi/2 at midnight
    peak = model.factor(43_200.0)  # midday
    assert peak > trough
    assert abs(model.factor(0.0) - model.factor(86_400.0)) < 1e-9  # periodic


def test_weekend_dip():
    model = DiurnalModel(weekend_dip=0.5)
    weekday = model.factor(2 * 86_400.0 + 3600)
    weekend = model.factor(5 * 86_400.0 + 3600)
    assert weekend < weekday


def test_pairs_whitelist_restricts_and_rescales():
    topo = internet2()
    pairs = [("ATLA", "CHIN"), ("NYCM", "LOSA")]
    series = synthesize_series(
        topo, 1000.0, snapshots=5, seed=0, pairs=pairs
    )
    mean = series.mean()
    active = [(s, d) for s, d, _ in mean.pairs(min_rate=1e-9)]
    assert set(active) <= set(pairs)
    # Base matrix rescaled to the requested total (snapshots fluctuate).
    assert 300 < mean.total() < 3000


def test_whitelist_of_zero_demand_rejected():
    topo = internet2()
    weights = {s: 0.0 for s in topo.switches}
    weights["ATLA"] = 1.0  # single node: all pairs zero
    with pytest.raises(ValueError):
        synthesize_series(
            topo, 100.0, snapshots=2, weights=weights, pairs=[("STTL", "NYCM")]
        )


def test_aggregation_smooths():
    topo = internet2()
    series = synthesize_series(topo, 5000.0, snapshots=60, seed=1)
    ratio = aggregate_smoothing_ratio(series, group_size=6)
    assert ratio < 1.0


def test_smoothing_needs_enough_demands():
    topo = internet2()
    series = synthesize_series(
        topo, 100.0, snapshots=5, seed=0, pairs=[("ATLA", "CHIN")]
    )
    with pytest.raises(ValueError):
        aggregate_smoothing_ratio(series, group_size=50)
