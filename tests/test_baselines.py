"""Tests for the moving-average and exponential-smoothing baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htsreg.baselines import (
    DEFAULT_ES_GRID,
    DEFAULT_MA_GRID,
    es_forecast,
    ma_forecast,
    select_param,
)
from htsreg.hierarchy import aggregate_bottom, build_hierarchy
from htsreg.panel import SeriesPanel

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}


def panel_from_bottom(bottoms, train_len):
    h = build_hierarchy(SMALL_PARENTS)
    return SeriesPanel.from_values(h, aggregate_bottom(h, np.asarray(bottoms, dtype=float)), train_len)


def test_ma_next_step_mean():
    """Series (1,2,3,4) with n=2: the step after the end forecasts 3.5."""
    fc = ma_forecast(np.array([1.0, 2.0, 3.0, 4.0]), n=2)
    assert np.isnan(fc[:2]).all()
    assert np.array_equal(fc[2:], [1.5, 2.5, 3.5])


def test_ma_window_one_is_naive():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(20)
    fc = ma_forecast(y, n=1)
    assert np.array_equal(fc[1:], y)


def test_ma_constant_series():
    fc = ma_forecast(np.full(10, 2.5), n=4)
    assert np.array_equal(fc[4:], np.full(7, 2.5))


def test_ma_rejects_window_at_series_length():
    with pytest.raises(ValueError, match="smaller than the series length"):
        ma_forecast(np.arange(4.0), n=4)


def test_es_alpha_one_is_naive():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(15)
    fc = es_forecast(y, alpha=1.0)
    assert np.array_equal(fc[1:], y)


def test_es_alpha_zero_freezes_at_seed():
    y = np.array([3.0, 9.0, -4.0, 7.0])
    fc = es_forecast(y, alpha=0.0)
    assert np.array_equal(fc, np.full(5, 3.0))


def test_es_hand_unrolled_recursion():
    """Series (0,1,0,...) at alpha 0.5: forecasts 0, 0, 0.5, 0.25."""
    fc = es_forecast(np.array([0.0, 1.0, 0.0, 0.0]), alpha=0.5)
    assert np.allclose(fc, [0.0, 0.0, 0.5, 0.25, 0.125])


def test_es_rejects_alpha_outside_unit_interval():
    with pytest.raises(ValueError, match="alpha"):
        es_forecast(np.arange(5.0), alpha=1.5)


def test_ma1_equals_es1_from_second_step():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(30)
    assert np.array_equal(ma_forecast(y, 1)[1:], es_forecast(y, 1.0)[1:])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(2, 40), st.integers(0, 2**32 - 1), st.data())
def test_matrix_forecasts_equal_row_by_row_loops(n_rows, n_time, seed, data):
    """A series-by-time matrix gives, row for row, the bits of a per-row, per-step loop."""
    values = np.random.default_rng(seed).standard_normal((n_rows, n_time)) * 5.0
    n = data.draw(st.integers(1, n_time - 1))
    alpha = data.draw(st.floats(0.0, 1.0))
    ma_loop, es_loop = np.full((n_rows, n_time + 1), np.nan), np.empty((n_rows, n_time + 1))
    for i, row in enumerate(values):
        ma_loop[i, n:] = [row[p - n: p].mean() for p in range(n, n_time + 1)]
        es_loop[i, 0] = row[0]
        for p in range(1, n_time + 1):
            es_loop[i, p] = alpha * row[p - 1] + (1.0 - alpha) * es_loop[i, p - 1]
    assert ma_forecast(values, n).tobytes() == ma_loop.tobytes()
    assert es_forecast(values, alpha).tobytes() == es_loop.tobytes()


def test_select_prefers_persistence_on_ramp():
    """On a ramp the last value strictly beats every longer memory."""
    ramp = np.arange(1.0, 13.0)
    panel = panel_from_bottom([ramp, ramp * 2, ramp + 3, ramp * 0.5], train_len=10)
    assert select_param(panel, "MA", grid=range(1, 6)).param == 1
    assert select_param(panel, "ES", grid=[0.0, 0.25, 0.5, 0.75, 1.0]).param == 1.0


def test_select_white_noise_matches_brute_force():
    """Selection equals an independent brute-force argmin; long windows win."""
    rng = np.random.default_rng(3)
    panel = panel_from_bottom(rng.standard_normal((4, 80)), train_len=60)
    choice = select_param(panel, "MA", grid=DEFAULT_MA_GRID)

    def brute_rmse(n):
        scores = []
        for row in panel.values:
            fc = ma_forecast(row, n)
            err = row[n:60] - fc[n:60]
            scores.append(np.sqrt(np.mean(err ** 2)))
        return np.mean(scores)

    best = min(DEFAULT_MA_GRID, key=brute_rmse)
    assert choice.param == best
    assert choice.param > 5


def test_select_degenerate_grid():
    panel = panel_from_bottom(np.random.default_rng(4).standard_normal((4, 30)), train_len=20)
    assert select_param(panel, "MA", grid=[12]).param == 12


def test_select_empty_grid_rejected():
    panel = panel_from_bottom(np.random.default_rng(5).standard_normal((4, 30)), train_len=20)
    with pytest.raises(ValueError, match="empty"):
        select_param(panel, "ES", grid=[])


def test_select_is_deterministic():
    panel = panel_from_bottom(np.random.default_rng(6).standard_normal((4, 50)), train_len=40)
    a = select_param(panel, "ES", grid=DEFAULT_ES_GRID)
    b = select_param(panel, "ES", grid=DEFAULT_ES_GRID)
    assert a == b


def test_default_grids_cover_reported_headers():
    """Grids span every selection the benchmark tables can name."""
    assert DEFAULT_MA_GRID[0] == 1 and DEFAULT_MA_GRID[-1] == 24
    assert 20 in DEFAULT_MA_GRID
    assert 0.0 in DEFAULT_ES_GRID and 0.89 in DEFAULT_ES_GRID and 1.0 in DEFAULT_ES_GRID
