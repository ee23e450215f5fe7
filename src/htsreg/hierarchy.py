"""Two-level tree hierarchies and their aggregation algebra.

A hierarchy has one root (level 0), mid-level nodes (level 1), and
bottom-level nodes (level 2). Every series attached to an upper node is
the sum of the series of its descendant bottom nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping

import numpy as np


@dataclass(frozen=True)
class HierarchySpec:
    """A validated two-level tree in canonical node order.

    ``node_ids`` is ordered root first, then mid-level nodes ascending,
    then bottom-level nodes ascending. All matrices and panels built from
    this spec use that order.
    """

    node_ids: tuple[int, ...]
    parent: dict[int, int]
    level: dict[int, int]
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

    def index(self, node: int) -> int:
        """Row index of ``node`` in the canonical ordering."""
        return self.node_ids.index(node)

    def children(self, node: int) -> tuple[int, ...]:
        """Direct children of ``node``, ascending."""
        return tuple(sorted(c for c, p in self.parent.items() if p == node))

    @cached_property
    def upper_rows(self) -> tuple[tuple[int, ...], ...]:
        """Positions of the bottom rows summed into each upper node (root, then mids), ascending."""
        pos = {b: i for i, b in enumerate(self.bottom_ids)}
        return (tuple(range(self.n_bottom)),) + tuple(tuple(pos[c] for c in self.children(m)) for m in self.mid_ids)


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

    depth: dict[int, int] = {}
    for node in nodes:
        seen = {node}
        d = 0
        cur = node
        while cur != root:
            cur = parent[cur]
            d += 1
            if cur in seen:
                raise ValueError(f"cycle detected at node {cur}")
            seen.add(cur)
        depth[node] = d

    max_depth = max(depth.values())
    if max_depth != 2:
        raise ValueError(f"tree depth is {max_depth}, expected exactly 2")

    mids = tuple(sorted(n for n in nodes if depth[n] == 1))
    bottoms = tuple(sorted(n for n in nodes if depth[n] == 2))
    parents_of_bottoms = {parent[b] for b in bottoms}
    for m in mids:
        if m not in parents_of_bottoms:
            raise ValueError(f"mid-level node {m} has no children")

    level = {root: 0}
    level.update({m: 1 for m in mids})
    level.update({b: 2 for b in bottoms})
    return HierarchySpec(
        node_ids=(root,) + mids + bottoms,
        parent=parent,
        level=level,
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
    mat = np.zeros((1 + len(h.mid_ids), h.n_bottom), dtype=np.float64)
    mat[0, :] = 1.0
    for r, mid in enumerate(h.mid_ids, start=1):
        for c, bot in enumerate(h.bottom_ids):
            if h.parent[bot] == mid:
                mat[r, c] = 1.0
    return _readonly(mat)


def summing_matrix(h: HierarchySpec) -> np.ndarray:
    """Structure matrix stacked on a bottom-level identity block."""
    return _readonly(np.vstack([structure_matrix(h), np.eye(h.n_bottom)]))


def _ordered_sum(rows: np.ndarray, indices: tuple[int, ...]) -> np.ndarray:
    # Left-to-right accumulation in ascending node order keeps upper-level
    # sums bit-reproducible; check_coherence relies on the identical order.
    acc = rows[indices[0]].copy()
    for i in indices[1:]:
        acc = acc + rows[i]
    return acc


def aggregate_bottom(h: HierarchySpec, y_bottom: np.ndarray) -> np.ndarray:
    """Expand a bottom-level matrix (|B| x T) to the full panel (|N| x T).

    Each upper row is the sum of its descendant bottom rows; bottom rows
    are copied verbatim. A 1-D input is treated as a single timepoint and
    returned 1-D.
    """
    yb = np.asarray(y_bottom)
    squeeze = yb.ndim == 1
    if squeeze:
        yb = yb[:, None]
    if yb.ndim != 2 or yb.shape[0] != h.n_bottom:
        raise ValueError(
            f"expected {h.n_bottom} bottom rows, got array of shape {np.shape(y_bottom)}"
        )
    if yb.shape[1] < 1:
        raise ValueError("need at least one column")
    out = np.empty((h.n_nodes, yb.shape[1]), dtype=yb.dtype)
    for r, idx in enumerate(h.upper_rows):
        out[r] = _ordered_sum(yb, idx)
    out[len(h.upper_ids):] = yb
    return out[:, 0] if squeeze else out


@dataclass(frozen=True)
class CoherenceReport:
    """Max aggregation-constraint violation per upper node."""

    violations: dict[int, float]
    flagged: tuple[int, ...]
    tol: float

    @property
    def max_violation(self) -> float:
        return max(self.violations.values())

    @property
    def ok(self) -> bool:
        return not self.flagged


def check_coherence(h: HierarchySpec, panel: np.ndarray, tol: float = 0.0) -> CoherenceReport:
    """Measure how far a full panel strays from the aggregation constraint.

    ``panel`` is an |N| x T matrix in canonical node order. For each upper
    node the report carries max_t |y_kt - sum of descendant bottom rows|,
    with the sum taken in the same order as :func:`aggregate_bottom` so
    aggregated output checks out at tol = 0 exactly.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    vals = np.asarray(panel)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != h.n_nodes:
        raise ValueError(f"expected {h.n_nodes} rows, got {vals.shape[0]}")
    n_upper = len(h.upper_ids)
    bottom = vals[n_upper:]
    violations: dict[int, float] = {}
    for r, (node, idx) in enumerate(zip(h.upper_ids, h.upper_rows)):
        violations[node] = float(np.max(np.abs(vals[r] - _ordered_sum(bottom, idx))))
    flagged = tuple(n for n, v in violations.items() if v > tol)
    return CoherenceReport(violations=violations, flagged=flagged, tol=tol)


def load_hierarchy_json(path: str | Path) -> HierarchySpec:
    """Load a ``{"nodes": [...], "parent": {child: parent}}`` file."""
    with open(path, encoding="utf-8") as f:
        raw = json.load(f)
    if not isinstance(raw, dict) or "nodes" not in raw or "parent" not in raw:
        raise ValueError(f"{path}: expected an object with 'nodes' and 'parent' keys")
    parent = {int(c): int(p) for c, p in raw["parent"].items()}
    h = build_hierarchy(parent)
    declared = sorted(int(n) for n in raw["nodes"])
    if declared != sorted(h.node_ids):
        raise ValueError(
            f"{path}: 'nodes' {declared} does not match nodes derived from 'parent'"
        )
    return h


def write_hierarchy_json(h: HierarchySpec, path: str | Path) -> None:
    payload = {
        "nodes": list(h.node_ids),
        "parent": {str(c): p for c, p in sorted(h.parent.items())},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
