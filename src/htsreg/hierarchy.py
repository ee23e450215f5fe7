"""Two-level tree hierarchies, their aggregation algebra, and per-level RMSE.

A hierarchy has one root (level 0), mid-level nodes (level 1), and
bottom-level nodes (level 2). Every series attached to an upper node is
the sum of the series of its descendant bottom nodes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np

LEVELS = ("root", "mid", "bottom", "average")


@dataclass(frozen=True)
class HierarchySpec:
    """A validated two-level tree in canonical node order.

    ``node_ids`` is ordered root first, then mid-level nodes ascending,
    then bottom-level nodes ascending. All matrices and panels built from
    this spec use that order.
    """

    node_ids: tuple[int, ...]
    parent: dict[int, int]
    root: int
    mid_ids: tuple[int, ...]
    bottom_ids: tuple[int, ...]

    @property
    def upper_ids(self) -> tuple[int, ...]:
        return (self.root,) + self.mid_ids

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_bottom(self) -> int:
        return len(self.bottom_ids)

    @cached_property
    def upper_rows(self) -> tuple[tuple[int, ...], ...]:
        """Positions of the bottom rows summed into each upper node (root, then mids), ascending."""
        return (tuple(range(self.n_bottom)),) + tuple(
            tuple(i for i, b in enumerate(self.bottom_ids) if self.parent[b] == m) for m in self.mid_ids)

    @cached_property
    def level_rows(self) -> tuple[range, range, range]:
        """Row ranges of the root, the mid-level and the bottom-level nodes in canonical order."""
        n_upper = len(self.upper_rows)
        return range(0, 1), range(1, n_upper), range(n_upper, self.n_nodes)


def build_hierarchy(parent_map: Mapping[int, int]) -> HierarchySpec:
    """Validate a child->parent map as a depth-2 rooted tree.

    Raises ValueError on cycles, multiple roots, depth other than 2, or
    a mid-level node without children.
    """
    if not parent_map:
        raise ValueError("empty parent map")
    parent = {int(c): int(p) for c, p in parent_map.items()}
    nodes = set(parent) | set(parent.values())
    roots = sorted(nodes - set(parent))
    if not roots:
        raise ValueError("cycle detected: every node has a parent")
    if len(roots) > 1:
        raise ValueError(f"multiple roots: {roots}")
    root = roots[0]

    children: dict[int, list[int]] = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    levels = [children[root]]  # the nodes at depth 1, 2, ...; a node no level reaches is on or below a cycle
    while deeper := [c for n in levels[-1] for c in children.get(n, ())]:
        levels.append(deeper)
    unreached = nodes - {root}.union(*levels)
    if unreached:
        raise ValueError(f"cycle detected at node {min(unreached)}")
    if len(levels) != 2:
        raise ValueError(f"tree depth is {len(levels)}, expected exactly 2")

    mids, bottoms = tuple(sorted(levels[0])), tuple(sorted(levels[1]))
    parents_of_bottoms = {parent[b] for b in bottoms}
    for m in mids:
        if m not in parents_of_bottoms:
            raise ValueError(f"mid-level node {m} has no children")

    return HierarchySpec(
        node_ids=(root,) + mids + bottoms,
        parent=parent,
        root=root,
        mid_ids=mids,
        bottom_ids=bottoms,
    )


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def structure_matrix(h: HierarchySpec) -> np.ndarray:
    """0/1 matrix mapping bottom nodes to their ancestors.

    Rows are ordered (root, mid-level nodes), columns follow the bottom
    node order. Entry (k, i) is 1 iff upper node k is an ancestor of
    bottom node i.
    """
    mat = np.zeros((len(h.upper_rows), h.n_bottom), dtype=np.float64)
    for r, idx in enumerate(h.upper_rows):
        mat[r, list(idx)] = 1.0
    return _readonly(mat)


def summing_matrix(h: HierarchySpec) -> np.ndarray:
    """Structure matrix stacked on a bottom-level identity block."""
    return _readonly(np.vstack([structure_matrix(h), np.eye(h.n_bottom)]))


def _ordered_sum(rows: np.ndarray, indices: tuple[int, ...]) -> np.ndarray:
    # Left-to-right accumulation in ascending node order keeps upper-level
    # sums bit-reproducible. Rows are the second-to-last axis; leading axes
    # are carried along.
    acc = rows[..., indices[0], :].copy()
    for i in indices[1:]:
        acc = acc + rows[..., i, :]
    return acc


def aggregate_bottom(h: HierarchySpec, y_bottom: np.ndarray) -> np.ndarray:
    """Expand a bottom-level matrix (|B| x T) to the full panel (|N| x T).

    Each upper row is the sum of its descendant bottom rows; bottom rows
    are copied verbatim. Leading axes (a stack of matrices) are kept, and
    each matrix gets the bits of a call on it alone.
    """
    yb = np.asarray(y_bottom)
    if yb.ndim < 2 or yb.shape[-2] != h.n_bottom:
        raise ValueError(f"expected {h.n_bottom} bottom rows, got array of shape {yb.shape}")
    if yb.shape[-1] < 1:
        raise ValueError("need at least one column")
    out = np.empty(yb.shape[:-2] + (h.n_nodes, yb.shape[-1]), dtype=yb.dtype)
    for r, idx in enumerate(h.upper_rows):
        out[..., r, :] = _ordered_sum(yb, idx)
    out[..., len(h.upper_ids):, :] = yb
    return out


def rmse(actual: np.ndarray, forecast: np.ndarray) -> np.ndarray:
    """Root-mean-squared error along the last (time) axis.

    Matrices give one value per row, each with the bits of the call on
    that row pair alone; two rows give a 0-d array. The forecast may carry
    leading axes that ``actual`` lacks (a stack of forecast matrices).
    """
    a = np.asarray(actual, dtype=np.float64)
    f = np.asarray(forecast, dtype=np.float64)
    if a.ndim < 1 or a.shape != f.shape[f.ndim - a.ndim:] or a.shape[-1] < 1:
        raise ValueError(f"actual {a.shape} and forecast {f.shape} must be equal-shape nonempty rows or matrices")
    err = a - f
    err *= err  # squared in place: one temporary, not two
    return np.sqrt(np.mean(err, axis=-1))


def level_means(h: HierarchySpec, per_node: np.ndarray) -> np.ndarray:
    """Per-level means of one value per node in canonical order, in :data:`LEVELS` order.

    The root's level mean is its own value; ``average`` is over all nodes.
    Values of shape (..., |N|) give means of shape (..., 4).
    """
    v = np.asarray(per_node, dtype=np.float64)
    rows = h.level_rows + (range(h.n_nodes),)
    return np.stack([v[..., r.start: r.stop].mean(axis=-1) for r in rows], axis=-1)


def check_coherence(h: HierarchySpec, panel: np.ndarray) -> float:
    """Largest violation max |y_kt - sum of descendant bottom rows| of the aggregation constraint.

    ``panel`` is an |N| x T matrix in canonical node order. The sums are
    taken by :func:`aggregate_bottom`, so its output gives exactly 0.
    """
    vals = np.asarray(panel)
    if vals.ndim != 2 or vals.shape[0] != h.n_nodes:
        raise ValueError(f"expected {h.n_nodes} x T panel, got array of shape {vals.shape}")
    n_upper = len(h.upper_ids)
    return float(np.max(np.abs(vals[:n_upper] - aggregate_bottom(h, vals[n_upper:])[:n_upper])))


def load_hierarchy_json(path: str | Path) -> HierarchySpec:
    """Load a ``{"nodes": [...], "parent": {child: parent}}`` file whose node ids are integers or integer strings."""
    with open(path, encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if not (isinstance(raw, dict) and isinstance(raw.get("nodes"), list) and isinstance(raw.get("parent"), dict)):
        raise ValueError(f"{path}: expected an object with a 'nodes' list and a 'parent' object")

    def node_id(value: object) -> int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
            return int(value)
        raise ValueError(f"{path}: node ids must be integers, got {value!r}")

    parent = {node_id(c): node_id(p) for c, p in raw["parent"].items()}
    declared = sorted(node_id(n) for n in raw["nodes"])
    try:
        h = build_hierarchy(parent)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if declared != sorted(h.node_ids):
        raise ValueError(
            f"{path}: 'nodes' {declared} does not match nodes derived from 'parent'"
        )
    return h
