"""Tests for panel ingestion, standardization, and lagged inputs."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from htsreg.hierarchy import aggregate_bottom, build_hierarchy
from htsreg.panel import SeriesPanel, _write_wide_csv, lagged_design, load_panel_csv, standardize, write_panel_csv

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_load_bottom_only_synthesizes_uppers(tmp_path, small_tree):
    """A 4-bottom-column file expands to 7 rows with summed uppers."""
    path = tmp_path / "p.csv"
    write_csv(path, ["t", "4", "5", "6", "7"], [[1, 1.0, 2.0, 3.0, 4.0], [2, 2.0, 3.0, 4.0, 5.0]])
    panel = load_panel_csv(path, small_tree, train_len=1)
    assert panel.values.shape == (7, 2)
    assert np.array_equal(panel.values[:, 0], [10, 3, 7, 1, 2, 3, 4])
    assert np.array_equal(panel.values[:, 1], [14, 5, 9, 2, 3, 4, 5])


def test_load_full_file_is_verbatim(tmp_path, wide_tree):
    """All 13 columns present: contents pass through untouched, even if incoherent."""
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((13, 4))
    path = tmp_path / "p.csv"
    rows = [[t + 1] + [f"{v:.17g}" for v in vals[:, t]] for t in range(4)]
    write_csv(path, ["t"] + [str(n) for n in wide_tree.node_ids], rows)
    panel = load_panel_csv(path, wide_tree, train_len=2)
    assert np.array_equal(panel.values, vals)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_load_sums_only_the_upper_columns_a_file_lacks(seed, data):
    """Present upper columns keep their bits, even where summing the bottoms would overflow; missing ones
    get the bits of aggregate_bottom. Column order in the file does not matter."""
    h = build_hierarchy(SMALL_PARENTS)
    values = np.random.default_rng(seed).standard_normal((7, 5))
    kept = data.draw(st.sets(st.sampled_from(h.upper_ids)))
    if kept == set(h.upper_ids):
        values[3:, 0] = 1.7976931348623157e308  # bottoms whose every sum overflows
    columns = data.draw(st.permutations(list(h.bottom_ids) + sorted(kept)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        write_csv(path, ["t"] + [str(c) for c in columns],
                  [[t + 1] + [f"{values[h.node_ids.index(c), t]:.17g}" for c in columns] for t in range(5)])
        back = load_panel_csv(path, h, train_len=3)
    want = values.copy()
    for r, node in enumerate(h.upper_ids):
        if node not in kept:
            want[r] = aggregate_bottom(h, values[3:])[r]
    assert back.values.tobytes() == want.tobytes()


def test_load_missing_bottom_column_names_node(tmp_path, wide_tree):
    path = tmp_path / "p.csv"
    cols = [str(n) for n in wide_tree.node_ids if n != 5]
    write_csv(path, ["t"] + cols, [[1] + [0.0] * 12, [2] + [1.0] * 12])
    with pytest.raises(ValueError, match="node 5"):
        load_panel_csv(path, wide_tree)


def test_load_rejects_non_numeric_cell(tmp_path, small_tree):
    path = tmp_path / "p.csv"
    write_csv(path, ["t", "4", "5", "6", "7"], [[1, 1, 2, 3, 4], [2, 1, "oops", 3, 4]])
    with pytest.raises(ValueError, match="non-numeric"):
        load_panel_csv(path, small_tree)


def test_load_rejects_duplicate_timestamp(tmp_path, small_tree):
    path = tmp_path / "p.csv"
    write_csv(path, ["t", "4", "5", "6", "7"], [[1, 1, 2, 3, 4], [1, 2, 3, 4, 5]])
    with pytest.raises(ValueError, match="duplicate timestamp"):
        load_panel_csv(path, small_tree)


def test_standardize_round_trip(small_tree):
    """Row (1,2,3 | 4) with train_len 3: mean 2, sd 1; sd * z + mean restores every row."""
    base = np.array([[1.0, 2.0, 3.0, 4.0]] * 4)
    panel = SeriesPanel.from_values(small_tree, aggregate_bottom(small_tree, base), train_len=3)
    std = standardize(panel)
    row = std.values[small_tree.node_ids.index(4)]
    assert np.allclose(row, [-1.0, 0.0, 1.0, 2.0])
    train = panel.values[:, :3]
    restored = std.values * train.std(axis=1, ddof=1)[:, None] + train.mean(axis=1)[:, None]
    assert np.allclose(restored, panel.values, rtol=1e-12)


def test_standardize_is_identity_on_normalized_rows(small_tree):
    """Rows already zero-mean unit-sd over training stay put within rounding."""
    rng = np.random.default_rng(9)
    vals = rng.standard_normal((7, 10))
    train = vals[:, :6]
    vals = (vals - train.mean(axis=1, keepdims=True)) / train.std(axis=1, ddof=1, keepdims=True)
    panel = SeriesPanel(tuple(range(1, 8)), vals, train_len=6, n_bottom=4)
    std = standardize(panel)
    assert np.allclose(std.values, panel.values, atol=1e-12)


def test_standardize_rejects_constant_training_row(small_tree):
    vals = np.vstack([np.ones((1, 6)), np.random.default_rng(0).standard_normal((6, 6))])
    panel = SeriesPanel(tuple(range(1, 8)), vals, train_len=4, n_bottom=4)
    with pytest.raises(ValueError, match="node 1"):
        standardize(panel)


def test_standardized_training_moments(small_panel):
    """Training-period mean 0 and sample sd 1 within 1e-12."""
    std = standardize(small_panel)
    train = std.values[:, : std.train_len]
    assert np.all(np.abs(train.mean(axis=1)) < 1e-12)
    assert np.all(np.abs(train.std(axis=1, ddof=1) - 1.0) < 1e-12)


def test_lagged_input_single_lag(small_panel):
    """L=1 returns exactly the previous bottom observations."""
    got = lagged_design(small_panel.bottom_values, 1, [5])
    assert np.array_equal(got, small_panel.bottom_values[None, :, 3])


def test_lagged_input_two_lags_ordering(small_tree):
    """L=2 concatenates oldest lag first: (a_{t-2}, b_{t-2}, ..., a_{t-1}, b_{t-1})."""
    bottoms = np.arange(12.0).reshape(4, 3)
    panel = SeriesPanel.from_values(small_tree, aggregate_bottom(small_tree, bottoms), train_len=2)
    got = lagged_design(panel.bottom_values, 2, [3, 4])
    assert np.array_equal(got, [[0, 3, 6, 9, 1, 4, 7, 10], [1, 4, 7, 10, 2, 5, 8, 11]])


def test_lagged_input_rejects_early_timepoint(small_panel):
    with pytest.raises(ValueError, match="fewer than 2 preceding"):
        lagged_design(small_panel.bottom_values, 2, [3, 2])


def test_lagged_input_reads_only_the_window(small_tree):
    """Two panels differing outside t-L..t-1 give identical lag vectors."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 10))
    b = a.copy()
    b[:, :3] += 100.0
    b[:, 6:] -= 50.0
    pa = SeriesPanel.from_values(small_tree, aggregate_bottom(small_tree, a), train_len=6)
    pb = SeriesPanel.from_values(small_tree, aggregate_bottom(small_tree, b), train_len=6)
    assert np.array_equal(lagged_design(pa.bottom_values, 2, [6]), lagged_design(pb.bottom_values, 2, [6]))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_lagged_design_equals_per_timepoint_slices(data):
    """Row t is rows[:, t-1-L : t-1] flattened oldest lag first, up to t = T + 1; t <= L and t > T + 1 raise."""
    n_rows, n_time = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 12))
    lag = data.draw(st.integers(1, n_time))
    rows = data.draw(arrays(np.float64, (n_rows, n_time)))
    tps = data.draw(st.lists(st.integers(lag + 1, n_time + 1), max_size=8)) + [n_time + 1]
    naive = np.stack([rows[:, t - 1 - lag: t - 1].T.reshape(-1) for t in tps])
    got = lagged_design(rows, lag, tps)
    assert got.shape == naive.shape and got.tobytes() == naive.tobytes()
    with pytest.raises(ValueError, match="fewer than"):
        lagged_design(rows, lag, tps + [lag])
    with pytest.raises(ValueError, match="beyond panel horizon"):
        lagged_design(rows, lag, tps + [n_time + 2])
    with pytest.raises(ValueError, match="lag must be"):
        lagged_design(rows, 0, tps)


def test_write_then_load_is_bitwise(tmp_path, small_panel, small_tree):
    """Round trip through CSV preserves every float."""
    path = tmp_path / "out.csv"
    write_panel_csv(small_panel, path)
    back = load_panel_csv(path, small_tree, train_len=small_panel.train_len)
    assert np.array_equal(back.values, small_panel.values)
    assert back.node_ids == small_panel.node_ids


# Finite values a CSV round trip must keep bit for bit: signed zeros, subnormals and the extremes.
SPECIAL = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e-300]


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.just(7), st.integers(1, 6)),
              elements=st.floats(allow_nan=False, allow_infinity=False)), st.data())
def test_write_then_load_is_bitwise_for_any_finite_values(values, data):
    """Every finite float64, -0.0, subnormals and +-max included, survives write_panel_csv and load_panel_csv."""
    values = np.hstack([values, np.array(SPECIAL)[:, None]])
    panel = SeriesPanel(tuple(range(1, 8)), values, data.draw(st.integers(1, values.shape[1] - 1)), 4)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.csv"
        write_panel_csv(panel, path)
        back = load_panel_csv(path, build_hierarchy(SMALL_PARENTS), train_len=panel.train_len)
    assert back.values.tobytes() == panel.values.tobytes()
    assert (back.node_ids, back.train_len, back.n_bottom) == (panel.node_ids, panel.train_len, panel.n_bottom)


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 7), st.integers(0, 6))), st.data())
def test_write_wide_csv_matches_csv_writer(values, data):
    """Any float64 matrix, NaN, +-inf, -0.0, subnormals and +-max included, is written with the bytes of
    csv.writer and f"{v:.17g}" cells."""
    extra = np.array(SPECIAL + [np.nan, -np.nan, np.inf, -np.inf])
    values = np.hstack([values, np.resize(extra, (values.shape[0], extra.size))])
    node_ids = tuple(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=values.shape[0],
                                        max_size=values.shape[0], unique=True)))
    with tempfile.TemporaryDirectory() as tmp:
        _write_wide_csv(Path(tmp) / "p.csv", node_ids, values)
        with open(Path(tmp) / "oracle.csv", "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["t"] + [str(n) for n in node_ids])
            writer.writerows([str(j + 1)] + [f"{v:.17g}" for v in values[:, j]] for j in range(values.shape[1]))
        assert (Path(tmp) / "p.csv").read_bytes() == (Path(tmp) / "oracle.csv").read_bytes()


def test_written_file_has_node_columns(tmp_path, small_panel):
    """Header is t plus one column per node: 8 columns for 7 nodes."""
    path = tmp_path / "out.csv"
    write_panel_csv(small_panel, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == ["t", "1", "2", "3", "4", "5", "6", "7"]


def test_panel_rejects_bad_train_len(small_tree):
    vals = np.ones((7, 4)) * np.arange(4)
    with pytest.raises(ValueError, match="train_len"):
        SeriesPanel.from_values(small_tree, vals, train_len=4)


def test_panel_rejects_missing_values(small_tree):
    vals = np.ones((7, 4))
    vals[2, 1] = np.nan
    with pytest.raises(ValueError, match="missing or non-finite"):
        SeriesPanel.from_values(small_tree, vals, train_len=2)


def test_panel_rejects_single_timepoint(small_tree):
    with pytest.raises(ValueError, match="at least 2 timepoints"):
        SeriesPanel.from_values(small_tree, np.ones((7, 1)), train_len=1)


def test_load_default_train_len_is_seventy_percent(tmp_path, small_tree):
    rows = [[t + 1, 1.0 + t, 2.0, 3.0, 4.0] for t in range(10)]
    path = tmp_path / "p.csv"
    write_csv(path, ["t", "4", "5", "6", "7"], rows)
    assert load_panel_csv(path, small_tree).train_len == 7
