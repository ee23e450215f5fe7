"""Tests for the synthetic benchmark generator."""

import numpy as np
import pytest

from htsreg.hierarchy import check_coherence
from htsreg.synthgen import (
    _PRESET_LOADINGS,
    BURN_IN,
    PHI,
    PRNG_IDENTITY,
    SIGMA,
    T_TOTAL,
    _series,
    generate_dataset,
    preset_hierarchy,
)

# Independent copy of the preset parameter table, kept literal on purpose.
EXPECTED_LOADINGS = {
    "NgtvC": {
        5: (0.1, 1.0), 6: (-0.1, -1.0), 7: (1.0, 0.1),
        8: (0.1, 1.0), 9: (-0.1, -1.0), 10: (-1.0, 0.1),
        11: (0.1, 1.0), 12: (-0.1, -1.0), 13: (1.0, 0.1),
    },
    "WeakC": {i: (0.1, 0.1) for i in range(5, 14)},
    "PstvC": {i: (1.0, 1.0) for i in range(5, 14)},
}


def test_ar_factor_matches_stationary_variance():
    """phi=0.3, sigma=0.3: long-run variance near sigma^2/(1-phi^2)."""
    psi = _series("WeakC", 5, t_total=100_000)[0][:, BURN_IN:]
    target = 0.3 ** 2 / (1 - 0.3 ** 2)
    for row in psi:
        assert abs(row.var() - target) / target < 0.05


def test_pstvc_bottoms_positively_correlated():
    """Unit loadings on shared factors push pairwise correlations above 0.3."""
    yb = _series("PstvC", 11, t_total=10_000)[1]
    corr = np.corrcoef(yb)
    off = corr[~np.eye(9, dtype=bool)]
    assert np.min(off) > 0.3


def test_ngtvc_sibling_pair_negatively_correlated():
    """Nodes 5 and 6 share a mid factor with opposite unit loadings."""
    yb = _series("NgtvC", 13, t_total=10_000)[1]
    corr = np.corrcoef(yb[0], yb[1])[0, 1]  # rows for nodes 5 and 6
    assert corr < -0.1


def test_unknown_preset_is_rejected():
    with pytest.raises(ValueError, match="unknown preset 'Nope'"):
        generate_dataset("Nope", seed=1)


def test_dataset_is_deterministic():
    """Same preset and seed give byte-identical panels."""
    a = generate_dataset("NgtvC", seed=17)
    b = generate_dataset("NgtvC", seed=17)
    assert np.array_equal(a.values, b.values)
    assert a.train_len == b.train_len == 70
    assert a.values.shape == (13, 100)


def test_dataset_differs_across_seeds():
    a = generate_dataset("NgtvC", seed=1)
    b = generate_dataset("NgtvC", seed=2)
    assert not np.array_equal(a.values, b.values)


@pytest.mark.parametrize("name", ["NgtvC", "WeakC", "PstvC"])
def test_preset_table_values(name):
    """The preset table matches its literal copy: phi = sigma = 0.3 everywhere, 100 kept steps after 50."""
    assert (PHI, SIGMA, T_TOTAL, BURN_IN) == (0.3, 0.3, 100, 50)
    assert _PRESET_LOADINGS[name] == EXPECTED_LOADINGS[name]


def test_generated_panel_is_coherent():
    """Raw generated panels satisfy the aggregation constraint exactly."""
    panel = generate_dataset("PstvC", seed=23)
    assert check_coherence(preset_hierarchy(), panel.values) == 0.0


def test_every_series_is_an_ar1_on_its_own_substream():
    """Exact oracle: each factor (role 0) and bottom (role 1) series is the AR(1) recursion on
    normals drawn from SeedSequence(seed, spawn_key=(role, node)) alone, so no node's series
    depends on another node's draws."""
    assert "SeedSequence(seed, spawn_key=(role, node))" in PRNG_IDENTITY
    seed, t_total, n_steps = 29, 80, 50 + 80

    def normals(role, node):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(role, node))))
        return rng.standard_normal(n_steps)

    def ar1(shocks):
        path, prev = np.empty(n_steps), 0.0
        for k in range(n_steps):
            prev = 0.3 * prev + shocks[k]
            path[k] = prev
        return path

    psi, yb = _series("NgtvC", seed, t_total)
    factors = {node: ar1(0.3 * normals(0, node)) for node in (1, 2, 3, 4)}
    assert np.array_equal(psi, np.vstack([factors[node] for node in (1, 2, 3, 4)]))
    for row, node in enumerate(range(5, 14)):
        rho, theta = EXPECTED_LOADINGS["NgtvC"][node]
        mid = 2 + (node - 5) // 3
        drive = rho * factors[1] + theta * factors[mid] + 0.3 * normals(1, node)
        assert np.array_equal(yb[row], ar1(drive)[50:])
