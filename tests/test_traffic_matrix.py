"""Tests for traffic matrices and snapshot series."""

import numpy as np
import pytest

from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSeries


def _tm(values):
    return TrafficMatrix(["a", "b", "c"], values)


def test_rate_lookup_and_total():
    tm = _tm([[0, 1, 2], [3, 0, 4], [5, 6, 0]])
    assert tm.rate("a", "b") == 1
    assert tm.rate("c", "b") == 6
    assert tm.total() == 21


def test_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        TrafficMatrix(["a", "b"], [[0, 1, 2], [3, 0, 4], [5, 6, 0]])
    with pytest.raises(ValueError):
        _tm([[0, -1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        _tm([[1, 0, 0], [0, 0, 0], [0, 0, 0]])  # nonzero diagonal
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            _tm([[0, value, 0], [0, 0, 0], [0, 0, 0]])


def test_pairs_filters_by_min_rate():
    tm = _tm([[0, 0.5, 2], [0, 0, 0], [0, 0, 0]])
    assert list(tm.pairs(min_rate=1.0)) == [("a", "c", 2.0)]
    assert len(list(tm.pairs())) == 2


def test_series_mean_and_peak():
    s1 = _tm([[0, 2, 0], [0, 0, 0], [0, 0, 0]])
    s2 = _tm([[0, 4, 0], [0, 0, 0], [0, 0, 0]])
    series = TrafficMatrixSeries(("a", "b", "c"), [s1, s2], interval=10.0)
    assert series.mean().rate("a", "b") == 3.0
    assert series.times() == [0.0, 10.0]
    assert len(series) == 2
    assert series[1].rate("a", "b") == 4.0


def test_series_node_consistency_enforced():
    s1 = _tm([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    s2 = TrafficMatrix(["x", "y", "z"], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        TrafficMatrixSeries(("a", "b", "c"), [s1, s2])


def test_empty_series_mean_raises():
    series = TrafficMatrixSeries(("a", "b", "c"), [], interval=1.0)
    with pytest.raises(ValueError):
        series.mean()
