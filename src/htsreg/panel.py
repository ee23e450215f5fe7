"""Panel data model: CSV I/O, train-period standardization, lagged inputs."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hierarchy import HierarchySpec, _ordered_sum


@dataclass(frozen=True)
class SeriesPanel:
    """Node-by-time observation matrix with a train/test boundary.

    Rows follow the canonical hierarchy order (root, mids, bottoms);
    ``n_bottom`` identifies the trailing bottom-level block. Values are
    float64 and frozen after construction.
    """

    node_ids: tuple[int, ...]
    values: np.ndarray
    train_len: int
    n_bottom: int

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != len(self.node_ids):
            raise ValueError(
                f"values must be a {len(self.node_ids)} x T matrix, got shape {vals.shape}"
            )
        if vals.shape[1] < 2:
            raise ValueError("panel needs at least 2 timepoints")
        if not np.all(np.isfinite(vals)):
            raise ValueError("panel contains missing or non-finite values")
        if not 1 <= self.train_len <= vals.shape[1] - 1:
            raise ValueError(
                f"train_len {self.train_len} outside [1, {vals.shape[1] - 1}]"
            )
        if not 1 <= self.n_bottom <= len(self.node_ids):
            raise ValueError(f"invalid bottom-node count {self.n_bottom}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "node_ids", tuple(int(n) for n in self.node_ids))

    @classmethod
    def from_values(cls, h: HierarchySpec, values: np.ndarray, train_len: int) -> "SeriesPanel":
        return cls(
            node_ids=h.node_ids,
            values=values,
            train_len=train_len,
            n_bottom=h.n_bottom,
        )

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_time(self) -> int:
        return self.values.shape[1]

    @property
    def test_len(self) -> int:
        return self.n_time - self.train_len

    @property
    def bottom_values(self) -> np.ndarray:
        return self.values[self.n_nodes - self.n_bottom:]

    def with_train_len(self, train_len: int) -> "SeriesPanel":
        return SeriesPanel(self.node_ids, self.values, train_len, self.n_bottom)


def standardize(panel: SeriesPanel) -> SeriesPanel:
    """Standardize every node row by its training-period mean and sd.

    Statistics use only t <= train_len (sample sd, denominator n-1) and are
    applied over the full series, so test-period values are expressed in
    training units. Raises if any node has zero training variance.
    """
    if panel.train_len < 2:
        raise ValueError("train_len must be >= 2 to estimate a standard deviation")
    train = panel.values[:, : panel.train_len]
    mean = train.mean(axis=1)
    sd = train.std(axis=1, ddof=1)
    for node, s in zip(panel.node_ids, sd):
        if s == 0.0:
            raise ValueError(f"node {node} has zero training variance")
    vals = (panel.values - mean[:, None]) / sd[:, None]
    return SeriesPanel(panel.node_ids, vals, panel.train_len, panel.n_bottom)


def lagged_design(rows: np.ndarray, lag: int, timepoints: range | list[int]) -> np.ndarray:
    """One input row (y_{t-lag}, ..., y_{t-1}) of the series ``rows`` per timepoint t.

    ``rows`` is a series-by-time matrix and ``t`` a 1-based timepoint;
    t = n_time + 1 addresses the first point past the data. Oldest lag
    first, series in row order within each lag block.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    tps = np.asarray(timepoints, dtype=np.intp)
    n_time = rows.shape[1]
    if tps.size and tps.min() <= lag:
        raise ValueError(f"timepoint {tps.min()} has fewer than {lag} preceding observations")
    if tps.size and tps.max() > n_time + 1:
        raise ValueError(f"timepoint {tps.max()} beyond panel horizon {n_time + 1}")
    # windows[:, s] holds columns s .. s + lag - 1, the lags of timepoint s + lag + 1.
    windows = np.lib.stride_tricks.sliding_window_view(rows, lag, axis=1)
    return windows[:, tps - 1 - lag].transpose(1, 2, 0).reshape(len(tps), -1)


def _read_wide_csv(path: str | Path, h: HierarchySpec) -> tuple[list[int], np.ndarray]:
    """Column node ids and the node-by-time matrix of a wide CSV.

    The first column is ``t``, the others are distinct node ids of ``h``.
    Timestamps must be strictly increasing integers and every cell a
    finite number; the timestamps are then dropped.
    """
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ValueError(f"{path}: first column must be 't'")
    header = rows[0]
    try:
        col_nodes = [int(c) for c in header[1:]]
    except ValueError as exc:
        raise ValueError(f"{path}: non-integer column name in header: {exc}") from exc
    if len(set(col_nodes)) != len(col_nodes):
        raise ValueError(f"{path}: duplicate node column")
    for c in col_nodes:
        if c not in h.node_ids:
            raise ValueError(f"{path}: column {c} is not a node of the hierarchy")

    body = [r for r in rows[1:] if r]
    times: list[int] = []
    data = np.empty((len(col_nodes), len(body)), dtype=np.float64)
    for j, row in enumerate(body):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {j + 2} has {len(row)} fields, expected {len(header)}")
        try:
            tval = int(row[0])
        except ValueError as exc:
            raise ValueError(f"{path}: non-integer timestamp {row[0]!r} in row {j + 2}") from exc
        if times:
            if tval == times[-1]:
                raise ValueError(f"{path}: duplicate timestamp {tval}")
            if tval < times[-1]:
                raise ValueError(f"{path}: timestamps must be strictly increasing")
        times.append(tval)
        for i, cell in enumerate(row[1:]):
            try:
                value = float(cell)
            except ValueError as exc:
                raise ValueError(
                    f"{path}: non-numeric cell {cell!r} in row {j + 2}, column {header[i + 1]}"
                ) from exc
            if not math.isfinite(value):
                raise ValueError(f"{path}: non-finite cell {cell!r} in row {j + 2}, column {header[i + 1]}")
            data[i, j] = value
    return col_nodes, data


def _write_wide_csv(path: str | Path, node_ids: tuple[int, ...], values: np.ndarray) -> None:
    """Write a node-by-time matrix as a wide CSV with t = 1..T; reading it back is bitwise.

    The bytes are csv.writer's: no integer id or ``%.17g`` float needs quoting.
    """
    row = "%d" + ",%.17g" * len(node_ids) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("".join(["t," + ",".join(map(str, node_ids)) + "\r\n"]
                        + [row % (t, *col) for t, col in enumerate(values.T.tolist(), start=1)]))


def load_panel_csv(path: str | Path, h: HierarchySpec, train_len: int | None = None) -> SeriesPanel:
    """Read a wide CSV (column ``t`` plus one column per node id).

    Bottom-level columns are mandatory; missing upper-level columns are
    synthesized by aggregation, present ones are kept verbatim. Timestamps
    must be strictly increasing integers; they are validated and then
    replaced by positions 1..T. ``train_len`` defaults to 70% of T
    (floored, clamped to [1, T-1]).
    """
    col_nodes, data = _read_wide_csv(path, h)
    for b in h.bottom_ids:
        if b not in col_nodes:
            raise ValueError(f"{path}: missing required bottom-level column for node {b}")
    if data.shape[1] < 2:
        raise ValueError(f"{path}: need at least 2 data rows")

    col_pos = {c: i for i, c in enumerate(col_nodes)}
    values = np.empty((h.n_nodes, data.shape[1]))
    bottom = values[len(h.upper_ids):]
    bottom[:] = data[[col_pos[b] for b in h.bottom_ids]]
    for r, (node, idx) in enumerate(zip(h.upper_ids, h.upper_rows)):
        # Only the upper rows the file lacks are summed, in aggregate_bottom's order.
        values[r] = data[col_pos[node]] if node in col_pos else _ordered_sum(bottom, idx)

    n_time = values.shape[1]
    if train_len is None:
        train_len = min(max(int(0.7 * n_time), 1), n_time - 1)
    return SeriesPanel.from_values(h, values, train_len)


def write_panel_csv(panel: SeriesPanel, path: str | Path) -> None:
    """Write the panel as a wide CSV; re-loading restores it bitwise."""
    _write_wide_csv(path, panel.node_ids, panel.values)
