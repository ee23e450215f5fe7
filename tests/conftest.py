"""Shared fixtures: the two trees used throughout the tests."""

import numpy as np
import pytest

from htsreg.hierarchy import build_hierarchy
from htsreg.panel import SeriesPanel
from htsreg.synthgen import preset_hierarchy

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}


@pytest.fixture
def small_tree():
    """7-node tree: two mids with two bottom children each."""
    return build_hierarchy(SMALL_PARENTS)


@pytest.fixture
def wide_tree():
    """13-node tree: three mids with three bottom children each."""
    return preset_hierarchy()


@pytest.fixture
def small_panel(small_tree):
    """Deterministic 7-node panel with 12 timepoints, train_len 8."""
    rng = np.random.default_rng(42)
    bottoms = rng.standard_normal((4, 12)) + np.arange(1, 5)[:, None]
    from htsreg.hierarchy import aggregate_bottom

    return SeriesPanel(small_tree, aggregate_bottom(small_tree, bottoms), train_len=8)
