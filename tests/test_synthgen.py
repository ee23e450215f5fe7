"""Tests for the synthetic benchmark generators."""

import numpy as np
import pytest

from htsreg.hierarchy import check_coherence
from htsreg.synthgen import (
    SynthParams,
    generate_bottom,
    generate_dataset,
    generate_factors,
    preset_hierarchy,
    preset_params,
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


def long_params(name, t_total, seed=0):
    return preset_params(name, t_total=t_total, seed=seed)


def test_zero_noise_gives_zero_factors(wide_tree):
    """sigma = 0 with zero start stays at zero over burn_in + t_total steps."""
    params = preset_params("WeakC")
    params = SynthParams(
        phi=params.phi, sigma={n: 0.0 for n in params.sigma},
        rho=params.rho, theta=params.theta, t_total=50, seed=1,
    )
    psi = generate_factors(params, wide_tree)
    assert np.array_equal(psi, np.zeros((4, 100)))


def test_iid_factor_matches_noise_sd(wide_tree):
    """phi = 0 makes the path i.i.d.; sample sd approaches sigma."""
    params = preset_params("WeakC", t_total=100_000, seed=3)
    params = SynthParams(
        phi={n: 0.0 for n in params.phi}, sigma=params.sigma,
        rho=params.rho, theta=params.theta, t_total=100_000, seed=3,
    )
    sd = generate_factors(params, wide_tree)[0, params.burn_in:].std()
    assert abs(sd - 0.3) / 0.3 < 0.05


def test_ar_factor_matches_stationary_variance(wide_tree):
    """phi=0.3, sigma=0.3: long-run variance near sigma^2/(1-phi^2)."""
    params = long_params("WeakC", t_total=100_000, seed=5)
    psi = generate_factors(params, wide_tree)[:, params.burn_in:]
    target = 0.3 ** 2 / (1 - 0.3 ** 2)
    for row in psi:
        assert abs(row.var() - target) / target < 0.05


def test_unloaded_bottoms_are_uncorrelated(wide_tree):
    """rho = theta = 0 leaves bottoms as independent AR(1) rows."""
    base = long_params("WeakC", t_total=10_000, seed=7)
    params = SynthParams(
        phi=base.phi, sigma=base.sigma,
        rho={n: 0.0 for n in base.rho}, theta={n: 0.0 for n in base.theta},
        t_total=10_000, seed=7,
    )
    yb = generate_bottom(params, generate_factors(params, wide_tree), wide_tree)
    corr = np.corrcoef(yb)
    off = corr[~np.eye(9, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05


def test_pstvc_bottoms_positively_correlated(wide_tree):
    """Unit loadings on shared factors push pairwise correlations above 0.3."""
    params = long_params("PstvC", t_total=10_000, seed=11)
    yb = generate_bottom(params, generate_factors(params, wide_tree), wide_tree)
    corr = np.corrcoef(yb)
    off = corr[~np.eye(9, dtype=bool)]
    assert np.min(off) > 0.3


def test_ngtvc_sibling_pair_negatively_correlated(wide_tree):
    """Nodes 5 and 6 share a mid factor with opposite unit loadings."""
    params = long_params("NgtvC", t_total=10_000, seed=13)
    yb = generate_bottom(params, generate_factors(params, wide_tree), wide_tree)
    corr = np.corrcoef(yb[0], yb[1])[0, 1]  # rows for nodes 5 and 6
    assert corr < -0.1


def test_generate_bottom_needs_untrimmed_factors(wide_tree):
    """Factor paths must cover burn_in + t_total steps."""
    params = preset_params("WeakC", t_total=60, seed=1)
    trimmed = generate_factors(params, wide_tree)[:, params.burn_in:]
    with pytest.raises(ValueError, match="burn_in"):
        generate_bottom(params, trimmed, wide_tree)


def test_generate_bottom_rejects_loadings_off_the_tree(wide_tree, small_tree):
    """Loadings must name exactly the tree's bottom nodes: none missing, none extra."""
    params = preset_params("WeakC", t_total=60, seed=1)
    rho = {n: v for n, v in params.rho.items() if n != 9}
    missing = SynthParams(phi=params.phi, sigma=params.sigma, rho=rho, theta=params.theta, t_total=60, seed=1)
    with pytest.raises(ValueError, match="loadings"):
        generate_bottom(missing, generate_factors(missing, wide_tree), wide_tree)
    with pytest.raises(ValueError, match="loadings"):  # the 13-node loadings on the 7-node tree
        generate_bottom(params, generate_factors(params, small_tree), small_tree)


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
    """Preset parameters match the literal table copy field for field."""
    params = preset_params(name)
    for node in range(1, 14):
        assert params.phi[node] == 0.3
        assert params.sigma[node] == 0.3
    for node, (rho, theta) in EXPECTED_LOADINGS[name].items():
        assert params.rho[node] == rho
        assert params.theta[node] == theta
    assert params.t_total == 100
    assert params.burn_in == 50


def test_generated_panel_is_coherent():
    """Raw generated panels satisfy the aggregation constraint exactly."""
    panel = generate_dataset("PstvC", seed=23)
    assert check_coherence(preset_hierarchy(), panel.values) == 0.0


def test_adding_nodes_preserves_existing_streams(wide_tree):
    """Per-node substreams: node 5's series ignores other nodes' parameters."""
    a = preset_params("NgtvC", t_total=80, seed=29)
    b_rho = dict(a.rho)
    b_theta = dict(a.theta)
    b_rho[13] = 0.77  # perturb a different node
    b = SynthParams(phi=a.phi, sigma=a.sigma, rho=b_rho, theta=b_theta, t_total=80, seed=29)
    ya = generate_bottom(a, generate_factors(a, wide_tree), wide_tree)
    yb = generate_bottom(b, generate_factors(b, wide_tree), wide_tree)
    assert np.array_equal(ya[0], yb[0])      # node 5 untouched
    assert not np.array_equal(ya[8], yb[8])  # node 13 changed
