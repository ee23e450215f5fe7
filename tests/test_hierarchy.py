"""Tests for the hierarchy module."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from htsreg.hierarchy import (
    LEVELS,
    aggregate_bottom,
    build_hierarchy,
    check_coherence,
    level_means,
    load_hierarchy_json,
    rmse,
    structure_matrix,
    summing_matrix,
)
from htsreg.panel import SeriesPanel, load_panel_csv, write_panel_csv

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
WIDE_PARENTS = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 3, 9: 3, 10: 3, 11: 4, 12: 4, 13: 4}


def ancestor_oracle(parents, uppers, bottoms):
    """Independent structure-matrix construction by walking parent chains."""
    mat = np.zeros((len(uppers), len(bottoms)))
    for c, b in enumerate(bottoms):
        node = b
        while node in parents:
            node = parents[node]
            if node in uppers:
                mat[uppers.index(node), c] = 1.0
        mat[0, c] = 1.0  # root is everyone's ancestor
    return mat


def test_build_small_tree():
    """7-node tree has the right node sets and canonical order."""
    h = build_hierarchy(SMALL_PARENTS)
    assert h.node_ids == (1, 2, 3, 4, 5, 6, 7)
    assert h.root == 1
    assert h.mid_ids == (2, 3)
    assert h.bottom_ids == (4, 5, 6, 7)
    assert h.level_rows == (range(0, 1), range(1, 3), range(3, 7))


def test_build_wide_tree():
    """13-node tree: three mids with three children each."""
    h = build_hierarchy(WIDE_PARENTS)
    assert h.n_nodes == 13
    assert h.mid_ids == (2, 3, 4)
    assert h.bottom_ids == tuple(range(5, 14))
    assert h.upper_rows == (tuple(range(9)), (0, 1, 2), (3, 4, 5), (6, 7, 8))


def test_build_rejects_depth_three_chain():
    """A chain of depth 3 is not a two-level tree."""
    with pytest.raises(ValueError, match="depth"):
        build_hierarchy({2: 1, 3: 2, 4: 3})


def test_build_rejects_multiple_roots():
    with pytest.raises(ValueError, match="multiple roots"):
        build_hierarchy({2: 1, 3: 1, 5: 4, 6: 4})


def test_build_rejects_cycle():
    with pytest.raises(ValueError, match="cycle"):
        build_hierarchy({1: 2, 2: 1})


def test_build_names_smallest_node_of_a_cycle_beside_a_rooted_tree():
    with pytest.raises(ValueError, match="^cycle detected at node 5$"):
        build_hierarchy({2: 1, 3: 2, 4: 2, 5: 6, 6: 5})


def test_build_reports_depth_of_a_chain():
    with pytest.raises(ValueError, match="^tree depth is 4, expected exactly 2$"):
        build_hierarchy({2: 1, 3: 2, 4: 3, 5: 4})


def test_build_rejects_childless_mid():
    """A direct child of the root with no children of its own is invalid."""
    with pytest.raises(ValueError, match="no children"):
        build_hierarchy({2: 1, 3: 1, 4: 2, 5: 2})


def test_structure_matrix_small_tree():
    """Known 3x4 pattern: root row all ones, mid rows partition the columns."""
    h = build_hierarchy(SMALL_PARENTS)
    expected = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=float)
    assert np.array_equal(structure_matrix(h), expected)


def test_structure_matrix_single_mid():
    """One mid owning all bottoms duplicates the root row."""
    h = build_hierarchy({2: 1, 3: 2, 4: 2})
    assert np.array_equal(structure_matrix(h), np.ones((2, 2)))


def test_structure_matrix_wide_tree_matches_oracle():
    """4x9 matrix agrees with independent ancestor enumeration."""
    h = build_hierarchy(WIDE_PARENTS)
    got = structure_matrix(h)
    expected = ancestor_oracle(WIDE_PARENTS, [1, 2, 3, 4], list(range(5, 14)))
    assert got.shape == (4, 9)
    assert np.array_equal(got, expected)


def test_summing_matrix_small_tree():
    """7x4 matrix: structure block on top, identity below."""
    h = build_hierarchy(SMALL_PARENTS)
    expected = np.array([
        [1, 1, 1, 1],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ], dtype=float)
    assert np.array_equal(summing_matrix(h), expected)


def test_summing_matrix_single_bottom():
    """Single-bottom tree: a column of ones."""
    h = build_hierarchy({2: 1, 3: 2})
    assert np.array_equal(summing_matrix(h), np.ones((3, 1)))


def test_summing_matrix_wide_tree_column_sums():
    """Stacked oracle; every column sums to 3 (root + mid + identity)."""
    h = build_hierarchy(WIDE_PARENTS)
    s = summing_matrix(h)
    assert s.shape == (13, 9)
    assert np.array_equal(s, np.vstack([structure_matrix(h), np.eye(9)]))
    assert np.array_equal(s.sum(axis=0), np.full(9, 3.0))


@pytest.mark.parametrize("parents", [SMALL_PARENTS, WIDE_PARENTS, {2: 1, 3: 2, 4: 2}])
def test_structure_matrix_properties(parents):
    """Root row is the OR of mid rows; every column sums to exactly 2."""
    h = build_hierarchy(parents)
    mat = structure_matrix(h)
    assert np.array_equal(mat[0], np.minimum(mat[1:].sum(axis=0), 1.0))
    assert np.array_equal(mat.sum(axis=0), np.full(h.n_bottom, 2.0))


def test_aggregate_unit_vector():
    """Unit bottom values sum to (4, 2, 2, 1, 1, 1, 1); (1, 2, 3, 4) to (10, 3, 7, 1, 2, 3, 4)."""
    h = build_hierarchy(SMALL_PARENTS)
    assert np.array_equal(aggregate_bottom(h, np.ones((4, 1)))[:, 0], [4, 2, 2, 1, 1, 1, 1])
    assert np.array_equal(aggregate_bottom(h, np.array([[1.0], [2.0], [3.0], [4.0]]))[:, 0], [10, 3, 7, 1, 2, 3, 4])


def test_aggregate_zero():
    h = build_hierarchy(SMALL_PARENTS)
    assert np.array_equal(aggregate_bottom(h, np.zeros((4, 3))), np.zeros((7, 3)))


def test_aggregate_matches_dense_multiply():
    """Random bottoms on the wide tree: equals S @ y_B."""
    h = build_hierarchy(WIDE_PARENTS)
    yb = np.random.default_rng(3).standard_normal((9, 20))
    assert np.allclose(aggregate_bottom(h, yb), summing_matrix(h) @ yb, rtol=1e-13, atol=1e-13)


def test_aggregate_rejects_wrong_row_count():
    h = build_hierarchy(SMALL_PARENTS)
    with pytest.raises(ValueError, match="bottom rows"):
        aggregate_bottom(h, np.ones((3, 5)))


def test_coherence_of_aggregated_panel_is_exact():
    """aggregate_bottom output has no violation, bit for bit."""
    h = build_hierarchy(WIDE_PARENTS)
    yb = np.random.default_rng(11).standard_normal((9, 50)) * 3.7
    assert check_coherence(h, aggregate_bottom(h, yb)) == 0.0


def test_coherence_flags_perturbed_root():
    """Root bumped by 0.5 shows the largest violation 0.5."""
    h = build_hierarchy(SMALL_PARENTS)
    panel = aggregate_bottom(h, np.ones((4, 5)))
    panel[0, 2] += 0.5
    assert check_coherence(h, panel) == 0.5


def test_hierarchy_json_rejects_node_mismatch(tmp_path):
    """A file that is not JSON, whose nodes or ids are malformed, whose tree is not a depth-2 tree, or whose
    'nodes' disagree with 'parent', raises naming the file."""
    path = tmp_path / "h.json"
    parent = {"2": 1, "3": 2, "4": 2}
    for raw, message in [
        ({"nodes": [1, 2, 3, 4, 99], "parent": parent}, "'nodes' [1, 2, 3, 4, 99] does not match"),
        ({"nodes": [1, 2, 3, 4], "parent": [[2, 1], [3, 2], [4, 2]]}, "expected an object with a 'nodes' list"),
        ({"nodes": 5, "parent": parent}, "expected an object with a 'nodes' list"),
        ({"nodes": [1, 2, 3, 4], "parent": {**parent, "2": None}}, "node ids must be integers, got None"),
        ({"nodes": [[1], 2, 3, 4], "parent": parent}, "node ids must be integers, got [1]"),
        ({"nodes": [1, 2, 3, 4], "parent": {**parent, "2": 1.5}}, "node ids must be integers, got 1.5"),
        ({"nodes": [1, 2, 3, 4], "parent": {**parent, "4": 2.0}}, "node ids must be integers, got 2.0"),
        ({"nodes": [True, 2, 3, 4], "parent": parent}, "node ids must be integers, got True"),
        ({"nodes": [1, 2, 3, 4], "parent": {**parent, "4.0": 2}}, "node ids must be integers, got '4.0'"),
        ('{"nodes": [1,', "invalid JSON (Expecting value"),
        ({"nodes": [1, 2, 3], "parent": {"2": 1, "3": 1}}, "tree depth is 1, expected exactly 2"),
        ({"nodes": [1, 2], "parent": {"1": 2, "2": 1}}, "cycle detected: every node has a parent"),
    ]:
        path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            load_hierarchy_json(path)
    path.write_text(json.dumps({"nodes": ["1", 2, 3, 4], "parent": parent}))  # integer strings pass, as keys do
    assert load_hierarchy_json(path) == build_hierarchy({2: 1, 3: 2, 4: 2})


def test_coherence_violated_by_independent_standardization():
    """Per-node standardization breaks coherence of the observed uppers."""
    from htsreg.panel import standardize

    h = build_hierarchy(WIDE_PARENTS)
    rng = np.random.default_rng(21)
    bottoms = rng.standard_normal((9, 40)) * np.linspace(0.5, 3.0, 9)[:, None]
    raw = SeriesPanel(h, aggregate_bottom(h, bottoms), train_len=28)
    std = standardize(raw)
    assert check_coherence(h, std.values) > 0.1


@st.composite
def depth_two_trees(draw):
    """A child -> parent map of a random depth-2 tree whose node ids are shuffled distinct integers."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))  # children per mid
    n = 1 + len(sizes) + sum(sizes)
    ids = draw(st.lists(st.integers(0, 500), min_size=n, max_size=n, unique=True))
    root, mids, bottoms = ids[0], ids[1: 1 + len(sizes)], iter(ids[1 + len(sizes):])
    parents = {m: root for m in mids}
    for m, k in zip(mids, sizes):
        parents.update({next(bottoms): m for _ in range(k)})
    return parents


@settings(max_examples=40, deadline=None)
@given(depth_two_trees(), st.data())
def test_hierarchy_json_round_trip(parents, data):
    """A random tree written in the file format loads back to an equal spec, and a coherent panel on it written
    as a wide CSV loads back on the loaded tree bit for bit."""
    h = build_hierarchy(parents)
    n_time = data.draw(st.integers(2, 6))
    yb = data.draw(arrays(np.float64, (h.n_bottom, n_time), elements=st.floats(-1e300, 1e300)))
    panel = SeriesPanel(h, aggregate_bottom(h, yb), data.draw(st.integers(1, n_time - 1)))
    with tempfile.TemporaryDirectory() as tmp:
        hier, csv_path = Path(tmp) / "h.json", Path(tmp) / "p.csv"
        hier.write_text(json.dumps({"nodes": list(h.node_ids), "parent": {str(c): p for c, p in h.parent.items()}}))
        assert load_hierarchy_json(hier) == h
        write_panel_csv(panel, csv_path)
        back = load_panel_csv(csv_path, load_hierarchy_json(hier))
    assert back.values.tobytes() == panel.values.tobytes()
    assert back.tree == h


@settings(max_examples=60, deadline=None)
@given(depth_two_trees(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_tree_layout_and_scorer_on_random_trees(parents, n_time, seed):
    """Level rows, S, aggregation, coherence and the row-wise scorer all agree on one tree layout."""
    h = build_hierarchy(parents)
    depth = {n: 0 if n not in parents else 1 if parents[n] not in parents else 2 for n in h.node_ids}
    assert [i for rows in h.level_rows for i in rows] == list(range(h.n_nodes))
    for d, rows in enumerate(h.level_rows):
        assert sorted(h.node_ids[i] for i in rows) == sorted(n for n in h.node_ids if depth[n] == d)

    assert np.array_equal(structure_matrix(h), ancestor_oracle(parents, list(h.upper_ids), list(h.bottom_ids)))
    rng = np.random.default_rng(seed)
    yb = rng.standard_normal((h.n_bottom, n_time)) * 10.0
    full = aggregate_bottom(h, yb)
    assert np.allclose(full, summing_matrix(h) @ yb, rtol=1e-13, atol=1e-13)
    assert check_coherence(h, full) == 0.0

    forecast = full + rng.standard_normal(full.shape)
    per_node = rmse(full, forecast)
    rows = [float(rmse(a, f)) for a, f in zip(full, forecast)]
    assert per_node.tolist() == rows
    means = level_means(h, per_node)
    assert means.shape == (len(LEVELS),)
    for j, d in enumerate((0, 1, 2)):
        assert means[j] == float(np.mean([r for n, r in zip(h.node_ids, rows) if depth[n] == d]))
    assert means[LEVELS.index("average")] == float(np.mean(rows))

    # Leading axes, as the epoch hook passes them (time-major forecasts, transposed):
    # every slice scores with the bits of a call on it alone.
    stack = np.swapaxes(rng.standard_normal((2, 3, n_time, h.n_bottom)), -1, -2)
    agg = aggregate_bottom(h, stack)
    scores = level_means(h, rmse(full, agg))
    assert agg.shape == (2, 3, h.n_nodes, n_time) and scores.shape == (2, 3, len(LEVELS))
    for idx in np.ndindex(2, 3):
        one = aggregate_bottom(h, stack[idx])
        assert np.array_equal(agg[idx].view(np.int64), one.view(np.int64))
        assert np.array_equal(scores[idx].view(np.int64), level_means(h, rmse(full, one)).view(np.int64))
