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
    """Node-by-time observation matrix of a tree with a train/test boundary.

    Rows follow the tree's canonical order (root, mids, bottoms). Values
    are float64 and frozen after construction.
    """

    tree: HierarchySpec
    values: np.ndarray
    train_len: int

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] != self.n_nodes:
            raise ValueError(
                f"values must be a {self.n_nodes} x T matrix, got shape {vals.shape}"
            )
        if vals.shape[1] < 2:
            raise ValueError("panel needs at least 2 timepoints")
        if not np.all(np.isfinite(vals)):
            raise ValueError("panel contains missing or non-finite values")
        if not 1 <= self.train_len <= vals.shape[1] - 1:
            raise ValueError(
                f"train_len {self.train_len} outside [1, {vals.shape[1] - 1}]"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def node_ids(self) -> tuple[int, ...]:
        return self.tree.node_ids

    @property
    def n_nodes(self) -> int:
        return self.tree.n_nodes

    @property
    def n_time(self) -> int:
        return self.values.shape[1]

    @property
    def bottom_values(self) -> np.ndarray:
        return self.values[self.n_nodes - self.tree.n_bottom:]

    def with_train_len(self, train_len: int) -> "SeriesPanel":
        return SeriesPanel(self.tree, self.values, train_len)


def default_train_len(n_time: int) -> int:
    """The training length of a panel of ``n_time`` points unless one is set: 70% of it, floored, in [1, n_time - 1]."""
    return min(max(int(0.7 * n_time), 1), n_time - 1)


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
    return SeriesPanel(panel.tree, vals, panel.train_len)


def lagged_design(rows: np.ndarray, lag: int, start: int, stop: int) -> np.ndarray:
    """One input row (y_{t-lag}, ..., y_{t-1}) of the series ``rows`` per 0-based column t in [start, stop).

    ``rows`` is a series-by-time matrix; t = n_time addresses the first
    point past the data. Oldest lag first, series in row order within each
    lag block.
    """
    if not 1 <= lag <= start < stop <= rows.shape[1] + 1:
        raise ValueError(f"columns [{start}, {stop}) at lag {lag} of {rows.shape[1]} points: "
                         f"need 1 <= lag <= start < stop <= {rows.shape[1] + 1}")
    # windows[:, s] holds columns s .. s + lag - 1, the lags of column s + lag.
    windows = np.lib.stride_tricks.sliding_window_view(rows, lag, axis=1)
    return windows[:, start - lag: stop - lag].transpose(1, 2, 0).reshape(stop - start, -1)


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
    try:  # the whole body in one conversion, which reads each cell with float()
        cells = np.array(body, dtype=np.float64).reshape(len(body), len(header))
        times = [int(r[0]) for r in body]
        if np.isfinite(cells[:, 1:]).all() and all(map(int.__lt__, times, times[1:])):
            return col_nodes, cells[:, 1:].T.copy()
    except ValueError:
        pass
    prev = None  # a fault: this scan names the first in file order, each row by its line (one a record)
    for j, row in enumerate(rows[1:], 2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: row {j} has {len(row)} fields, expected {len(header)}")
        try:
            tval = int(row[0])
        except ValueError as exc:
            raise ValueError(f"{path}: non-integer timestamp {row[0]!r} in row {j}") from exc
        if prev is not None and tval <= prev:
            raise ValueError(f"{path}: duplicate timestamp {tval} in row {j}" if tval == prev else
                             f"{path}: timestamps must be strictly increasing: row {j} has {tval} after {prev}")
        prev = tval
        for i, cell in enumerate(row[1:]):
            try:
                value = float(cell)
            except ValueError as exc:
                raise ValueError(
                    f"{path}: non-numeric cell {cell!r} in row {j}, column {header[i + 1]}"
                ) from exc
            if not math.isfinite(value):
                raise ValueError(f"{path}: non-finite cell {cell!r} in row {j}, column {header[i + 1]}")
    raise AssertionError(f"{path}: the scan found no fault the conversion did")


def _write_wide_csv(path: str | Path, node_ids: tuple[int, ...], values: np.ndarray) -> None:
    """Write a node-by-time matrix as a wide CSV with t = 1..T; reading it back is bitwise.

    The bytes are csv.writer's: no integer id or ``%.17g`` float needs quoting.
    """
    row = "%d" + ",%.17g" * len(node_ids) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("".join(["t," + ",".join(map(str, node_ids)) + "\r\n"]
                        + [row % (t, *col) for t, col in enumerate(values.T.tolist(), start=1)]))


def load_panel_csv(path: str | Path, h: HierarchySpec) -> SeriesPanel:
    """Read a wide CSV (column ``t`` plus one column per node id).

    Bottom-level columns are mandatory; missing upper-level columns are
    synthesized by aggregation, present ones are kept verbatim. Timestamps
    must be strictly increasing integers; they are validated and then
    replaced by positions 1..T. ``train_len`` is :func:`default_train_len`
    of T; ``with_train_len`` sets another.
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

    return SeriesPanel(h, values, default_train_len(values.shape[1]))


def write_panel_csv(panel: SeriesPanel, path: str | Path) -> None:
    """Write the panel as a wide CSV; re-loading restores it bitwise."""
    _write_wide_csv(path, panel.node_ids, panel.values)
