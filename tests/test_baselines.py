"""Tests for the moving-average and exponential-smoothing baselines."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from htsreg import baselines
from htsreg.baselines import (
    DEFAULT_ES_GRID,
    DEFAULT_MA_GRID,
    es_forecast,
    ma_forecast,
    select_param,
)
from htsreg.hierarchy import aggregate_bottom, build_hierarchy, rmse
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


def es_row_loop(values, alpha):
    """Exponential smoothing of each row of a matrix by a per-row, per-step loop."""
    out = np.empty((values.shape[0], values.shape[1] + 1))
    for i, row in enumerate(values):
        out[i, 0] = row[0]
        for p in range(1, values.shape[1] + 1):
            out[i, p] = alpha * row[p - 1] + (1.0 - alpha) * out[i, p - 1]
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(2, 40), st.integers(0, 2**32 - 1), st.data())
def test_matrix_forecasts_equal_row_by_row_loops(n_rows, n_time, seed, data):
    """A series-by-time matrix gives, row for row, the bits of a per-row, per-step loop."""
    values = np.random.default_rng(seed).standard_normal((n_rows, n_time)) * 5.0
    n = data.draw(st.integers(1, n_time - 1))
    alpha = data.draw(st.floats(0.0, 1.0))
    ma_loop = np.full((n_rows, n_time + 1), np.nan)
    for i, row in enumerate(values):
        ma_loop[i, n:] = [row[p - n: p].mean() for p in range(n, n_time + 1)]
    assert ma_forecast(values, n).tobytes() == ma_loop.tobytes()
    assert es_forecast(values, alpha).tobytes() == es_row_loop(values, alpha).tobytes()


# Alphas with the edges 0 and 1 drawn often; lists of them may repeat values.
ALPHAS = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.89]), st.floats(0.0, 1.0))


@settings(max_examples=80, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 30)), elements=st.floats(-1e300, 1e300)),
       st.lists(ALPHAS, min_size=1, max_size=12), st.data())
def test_alpha_array_gives_scalar_bits_per_slice(values, alphas, data):
    """One call on an array of alphas gives, slice by slice, the bytes of the scalar call and of the row loop."""
    alphas = alphas + data.draw(st.lists(st.sampled_from(alphas), max_size=3))  # repeats
    stacked = es_forecast(values, np.array(alphas))
    assert stacked.shape == (len(alphas),) + values.shape[:-1] + (values.shape[1] + 1,)
    rows = es_forecast(values[0], alphas)
    assert rows.shape == (len(alphas), values.shape[1] + 1)
    for k, alpha in enumerate(alphas):
        assert stacked[k].tobytes() == es_forecast(values, alpha).tobytes() == es_row_loop(values, alpha).tobytes()
        assert rows[k].tobytes() == es_forecast(values[0], alpha).tobytes()


@pytest.mark.parametrize("alpha", [[0.5, 1.5], [-0.1], [0.2, float("nan")], np.zeros((2, 2))],
                         ids=["above_one", "negative", "nan", "two_dimensional"])
def test_es_rejects_bad_alpha_arrays(alpha):
    with pytest.raises(ValueError, match="alpha"):
        es_forecast(np.arange(5.0), alpha)


def select_es_oracle(panel, grid):
    """ES grid selection alpha by alpha: scalar forecasts, per-alpha rmse, strict < keeps the first minimum."""
    best, best_score = None, np.inf
    for alpha in sorted(grid):
        if panel.train_len <= 1:
            continue
        fc = es_forecast(panel.values, alpha)
        score = float(rmse(panel.values[:, 1:panel.train_len], fc[:, 1:panel.train_len]).mean())
        if score < best_score:
            best, best_score = alpha, score
    return best


@settings(max_examples=80, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2**32 - 1), st.lists(st.one_of(ALPHAS, st.sampled_from([0, 1])),
                                                               min_size=1, max_size=40), st.data())
def test_select_es_equals_alpha_by_alpha_oracle(n_time, seed, grid, data):
    """Unsorted grids with repeats, 0 and 1 (ints too) and several chunks pick the oracle's alpha."""
    rng = np.random.default_rng(seed)
    panel = panel_from_bottom(rng.standard_normal((4, n_time)).cumsum(axis=1) * data.draw(st.sampled_from([0.1, 1e3])),
                              train_len=data.draw(st.integers(1, n_time - 1)))
    grid = grid + data.draw(st.lists(st.sampled_from(grid), max_size=5))
    budget = panel.n_nodes * (panel.train_len + 1) * data.draw(st.integers(1, 5)) + data.draw(st.integers(0, 20))
    with mock.patch.object(baselines, "ES_CHUNK_ELEMENTS", data.draw(st.sampled_from([budget, 1, 2**20]))):
        want = select_es_oracle(panel, grid)
        if want is None:
            with pytest.raises(ValueError, match="no grid value yields a defined training forecast"):
                select_param(panel, "ES", grid)
            return
        got = select_param(panel, "ES", grid).param
    assert got == want and type(got) is type(want)


def test_select_es_grid_larger_than_one_chunk():
    """The default chunk holds fewer alphas than a 1 001-point grid; the oracle still agrees."""
    panel = panel_from_bottom(np.random.default_rng(7).standard_normal((4, 60)).cumsum(axis=1), train_len=45)
    grid = [i / 1000 for i in range(1001)][::-1]
    assert baselines.ES_CHUNK_ELEMENTS // (panel.n_nodes * (panel.train_len + 1)) < len(grid)
    assert select_param(panel, "ES", grid).param == select_es_oracle(panel, grid)


def test_select_es_all_infinite_scores_raise():
    """Errors that overflow give inf scores, which never win, so no grid value is chosen."""
    panel = panel_from_bottom(np.array([[(-1.0) ** t * 1e200 for t in range(12)]] * 4), train_len=8)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="no grid value yields"):
        select_param(panel, "ES", [0.0, 0.5, 1.0])


@pytest.mark.parametrize("grid", [[0.5, 1.5], [-0.25, 0.5], [0.1, float("nan")]], ids=["above_one", "negative", "nan"])
def test_select_es_rejects_alpha_outside_unit_interval(grid):
    panel = panel_from_bottom(np.random.default_rng(8).standard_normal((4, 20)), train_len=12)
    with pytest.raises(ValueError, match=r"ES alpha must lie in \[0, 1\]"):
        select_param(panel, "ES", grid)


def test_select_ma_skips_windows_without_training_errors():
    """Windows at or past train_len, one longer than the series too, are skipped rather than forecast."""
    panel = panel_from_bottom(np.random.default_rng(9).standard_normal((4, 20)), train_len=6)
    assert select_param(panel, "MA", [40, 6, 3, 7]) == select_param(panel, "MA", [3])
    with pytest.raises(ValueError, match="no grid value yields"):
        select_param(panel, "MA", [6, 25])


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
