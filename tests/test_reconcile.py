"""Tests for bottom-up, top-down, and trace-minimizing reconciliation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_hierarchy import depth_two_trees

from htsreg.hierarchy import aggregate_bottom, build_hierarchy, check_coherence, summing_matrix
from htsreg.panel import SeriesPanel, standardize
from htsreg.reconcile import (
    check_unbiasedness,
    cho_factor,
    cho_solve,
    estimate_w_sample,
    historical_proportions,
    mint_reconcile,
    top_down,
)

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
WIDE_PARENTS = {2: 1, 3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 3, 9: 3, 10: 3, 11: 4, 12: 4, 13: 4}


@pytest.fixture
def tree():
    return build_hierarchy(SMALL_PARENTS)


@pytest.fixture
def wide():
    return build_hierarchy(WIDE_PARENTS)


def random_w(n, seed, scale=1.0):
    """Random symmetric positive definite matrix."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n + 4))
    return scale * (a @ a.T) / (n + 4)


# ------------------------------------------------------------- top-down

def coherent_panel(tree, bottoms, train_len):
    return SeriesPanel.from_values(tree, aggregate_bottom(tree, bottoms), train_len)


def test_proportions_sum_to_one_on_coherent_panel(tree):
    rng = np.random.default_rng(2)
    panel = coherent_panel(tree, np.abs(rng.standard_normal((4, 10))) + 1.0, train_len=7)
    p = historical_proportions(panel)
    assert abs(p.sum() - 1.0) < 1e-12


def test_proportions_equal_for_equal_bottoms(tree):
    panel = coherent_panel(tree, np.full((4, 6), 3.0), train_len=4)
    assert np.allclose(historical_proportions(panel), 0.25)


def test_proportions_reject_zero_root(tree):
    bottoms = np.array([[1.0, -1.0]] * 2 + [[-1.0, 1.0]] * 2).repeat(2, axis=1)[:, :4]
    panel = coherent_panel(tree, bottoms, train_len=2)
    with pytest.raises(ValueError, match="zero root total"):
        historical_proportions(panel)


def test_proportions_on_standardized_panel_lose_unit_sum(tree):
    """Per-node standardization breaks the unit-sum identity."""
    rng = np.random.default_rng(3)
    raw = coherent_panel(tree, np.abs(rng.standard_normal((4, 20))) + np.arange(1, 5)[:, None], 14)
    std = standardize(raw)
    p = historical_proportions(std)
    assert not np.isclose(p.sum(), 1.0, atol=1e-3)


def test_top_down_quarter_split(tree):
    got = top_down(tree, np.array([10.0]), np.full(4, 0.25))
    assert np.array_equal(got[:, 0], [10, 5, 5, 2.5, 2.5, 2.5, 2.5])


def test_top_down_zero_root(tree):
    got = top_down(tree, np.zeros(5), np.full(4, 0.25))
    assert np.array_equal(got, np.zeros((7, 5)))


def test_top_down_preserves_root_when_proportions_sum_to_one(tree):
    """Exact quarters keep the root row untouched; random p within rounding."""
    root = np.array([8.0, -3.0, 12.5])
    got = top_down(tree, root, np.array([0.25, 0.25, 0.25, 0.25]))
    assert np.array_equal(got[0], root)
    rng = np.random.default_rng(4)
    p = np.abs(rng.standard_normal(4))
    p /= p.sum()
    assert np.allclose(top_down(tree, root, p)[0], root, rtol=1e-12)


# ------------------------------------------------------------- sample covariance

def test_w_zero_for_identical_residuals(tree):
    base = np.tile(np.arange(7.0)[:, None], (1, 10))
    actual = base + 0.5
    assert np.array_equal(estimate_w_sample(base, actual), np.zeros((7, 7)))


def test_w_hand_computed_two_vectors():
    """Residuals (1,0,..) and (-1,0,..): W_11 = 1, everything else 0."""
    n = 3
    actual = np.zeros((n, n + 1))
    actual[0, 0] = 1.0
    actual[0, 1] = -1.0
    base = np.zeros((n, n + 1))
    w = estimate_w_sample(base, actual)
    expected = np.zeros((n, n))
    expected[0, 0] = 0.5  # two of four centered vectors are nonzero
    assert np.allclose(w, expected)


def test_w_hand_computed_minimal_pair():
    """With exactly the two opposite residuals, W_11 = 1."""
    n = 1
    actual = np.array([[1.0, -1.0]])
    base = np.zeros((1, 2))
    w = estimate_w_sample(base, actual)
    assert np.allclose(w, [[1.0]])


def test_w_requires_enough_residuals(tree):
    with pytest.raises(ValueError, match="at least 8"):
        estimate_w_sample(np.zeros((7, 7)), np.ones((7, 7)))


def test_w_rejects_non_finite():
    actual = np.ones((3, 5))
    actual[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        estimate_w_sample(np.zeros((3, 5)), actual)


def test_w_is_symmetric(wide):
    rng = np.random.default_rng(5)
    base = rng.standard_normal((13, 40))
    actual = base + rng.standard_normal((13, 40))
    w = estimate_w_sample(base, actual)
    assert np.array_equal(w, w.T)


# ------------------------------------------------------------- MinT

def test_mint_fixes_coherent_inputs(tree):
    """Already-coherent base forecasts are fixed points of the projection."""
    rng = np.random.default_rng(6)
    base = aggregate_bottom(tree, rng.standard_normal((4, 9)))
    w = random_w(7, 7)
    got = mint_reconcile(tree, base, w)
    assert np.allclose(got, base, rtol=1e-12, atol=1e-12)


def test_mint_identity_weights_is_least_squares(tree):
    """W = I reduces to the orthogonal projection min_b ||y^ - S b||."""
    rng = np.random.default_rng(8)
    base = rng.standard_normal((7, 5))
    s = summing_matrix(tree)
    got = mint_reconcile(tree, base, np.eye(7))
    b, *_ = np.linalg.lstsq(s, base, rcond=None)
    assert np.allclose(got, s @ b, atol=1e-10)


def test_mint_scale_invariant(tree):
    rng = np.random.default_rng(9)
    base = rng.standard_normal((7, 6))
    w = random_w(7, 10)
    a = mint_reconcile(tree, base, w)
    b = mint_reconcile(tree, base, 5.0 * w)
    assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


def test_mint_output_is_coherent(wide):
    rng = np.random.default_rng(11)
    base = rng.standard_normal((13, 20))
    got = mint_reconcile(wide, base, random_w(13, 12))
    assert check_coherence(wide, got, tol=1e-9).ok


def test_mint_idempotent(wide):
    rng = np.random.default_rng(13)
    base = rng.standard_normal((13, 4))
    w = random_w(13, 14)
    once = mint_reconcile(wide, base, w)
    twice = mint_reconcile(wide, once, w)
    assert np.allclose(twice, once, rtol=1e-9, atol=1e-11)


def test_mint_approaches_bottom_up_with_heavy_upper_weights(tree):
    """Huge upper-level variances push the solution onto the bottom forecasts."""
    rng = np.random.default_rng(15)
    base = rng.standard_normal((7, 5))
    w = np.diag([1e8, 1e8, 1e8, 1.0, 1.0, 1.0, 1.0])
    got = mint_reconcile(tree, base, w)
    assert np.allclose(got, aggregate_bottom(tree, base[3:]), atol=1e-4)


def test_mint_rejects_hopeless_w(tree):
    with pytest.raises(ValueError, match="singular beyond repair"):
        mint_reconcile(tree, np.ones((7, 2)), np.zeros((7, 7)))


def test_mint_info_reports_gamma_and_p(wide):
    rng = np.random.default_rng(16)
    base = rng.standard_normal((13, 3))
    coherent, info = mint_reconcile(wide, base, random_w(13, 17), return_info=True)
    assert info.gamma == 1e-8
    assert info.p_matrix.shape == (9, 13)
    assert info.w_condition > 1.0
    s = summing_matrix(wide)
    assert np.allclose(s @ (info.p_matrix @ base), coherent, rtol=1e-10, atol=1e-12)


# ------------------------------------------------------------- unbiasedness

def test_unbiasedness_bottom_up_exact(tree):
    p = np.hstack([np.zeros((4, 3)), np.eye(4)])
    check = check_unbiasedness(p, summing_matrix(tree))
    assert check.max_deviation == 0.0
    assert check.within_tol


def test_unbiasedness_mint_identity_weights(tree):
    _, info = mint_reconcile(tree, np.ones((7, 1)), np.eye(7), return_info=True)
    check = check_unbiasedness(info.p_matrix, summing_matrix(tree), tol=1e-10)
    assert check.within_tol


def test_unbiasedness_top_down_fails(tree):
    """Proportional disaggregation distorts mid rows even with unit-sum p."""
    p_vec = np.full(4, 0.25)
    p = np.hstack([p_vec[:, None], np.zeros((4, 6))])
    check = check_unbiasedness(p, summing_matrix(tree), tol=1e-8)
    assert not check.within_tol
    # S(PS) turns identity rows into constant-quarter rows: deviation 0.75
    assert check.max_deviation == pytest.approx(0.75)


def test_mint_rejects_asymmetric_w(wide):
    """The Cholesky factorization reads one triangle, so an asymmetric W is an error, not a silent half."""
    base = np.random.default_rng(9).standard_normal((13, 4))
    w = random_w(13, 8)
    skewed = w.copy()
    skewed[0, 5] += 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        mint_reconcile(wide, base, skewed)
    rounded = w.copy()
    rounded[0, 5] *= 1.0 + 1e-15  # rounding-level asymmetry stays accepted
    assert np.allclose(mint_reconcile(wide, base, rounded), mint_reconcile(wide, base, w), rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(parents=depth_two_trees(), seed=st.integers(0, 2**32 - 1))
def test_mint_keeps_sps_equal_s_and_coherent_input_on_random_trees(parents, seed):
    """For a random SPD W on a random tree, S P S = S and coherent base forecasts come back unchanged."""
    h = build_hierarchy(parents)
    rng = np.random.default_rng(seed)
    n = h.n_nodes
    a = rng.standard_normal((n, n + 3))
    w = a @ a.T / (n + 3) + 0.1 * np.eye(n)
    coherent = aggregate_bottom(h, rng.standard_normal((h.n_bottom, 5)))
    got, info = mint_reconcile(h, coherent, w, return_info=True)
    assert check_unbiasedness(info.p_matrix, summing_matrix(h), tol=1e-9).within_tol
    assert np.allclose(got, coherent, rtol=1e-9, atol=1e-9)
    assert check_coherence(h, got, tol=1e-9).ok


# ------------------------------------------------------------- Cholesky

@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 13), cols=st.one_of(st.none(), st.integers(1, 13)), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-100, 1.0, 1e100]))
def test_cholesky_solve_matches_numpy_solve(n, cols, seed, scale):
    """cho_solve(cho_factor(a), b) solves a x = b for an SPD a (condition below 60), a vector or matrix b."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n + 4))
    a = scale * (g @ g.T / (n + 4) + 0.1 * np.eye(n))
    b = rng.standard_normal(n if cols is None else (n, cols))
    c = cho_factor(a)
    assert np.array_equal(c, np.tril(c)) and np.linalg.norm(c @ c.T - a) <= 1e-14 * np.linalg.norm(a)
    got, want = cho_solve(c, b), np.linalg.solve(a, b)
    assert got.shape == b.shape
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_cho_factor_reads_the_lower_triangle_and_rejects_indefinite():
    a = random_w(5, 3)
    upper_garbage = a + np.triu(np.full((5, 5), 7.0), 1)
    assert np.array_equal(cho_factor(upper_garbage), cho_factor(a))
    with pytest.raises(np.linalg.LinAlgError):
        cho_factor(np.diag([1.0, -1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cholesky_rejects_non_finite_input(bad):
    """LAPACK would return a NaN factor or solution; these raise instead."""
    a = random_w(4, 5)
    c = cho_factor(a)
    a[2, 1] = a[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cho_factor(a)
    b = np.ones((4, 2))
    b[3, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cho_solve(c, b)
    c[3, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        cho_solve(c, np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mint_rejects_non_finite_base_forecasts(wide, bad):
    base = np.random.default_rng(2).standard_normal((13, 3))
    base[7, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        mint_reconcile(wide, base, random_w(13, 4))


@pytest.mark.parametrize("w_diag", [1e308, 1e-308], ids=["ridge_overflows", "sws_overflows"])
def test_mint_rejects_overflowing_w(wide, w_diag):
    """A diagonal of 1e308 overflows mean(diag(W)), so the ridge is infinite; one of 1e-308 keeps
    W^-1 S finite (1e308) but overflows S' W^-1 S. Either raises, without a warning, never returns NaN."""
    base = np.random.default_rng(3).standard_normal((13, 2))
    with pytest.raises(ValueError, match="non-finite"):
        mint_reconcile(wide, base, w_diag * np.eye(13))


def test_mint_rejects_overflowing_result(wide):
    """Every input and intermediate is finite, but the coherent forecasts are not. A W of condition 1e8
    lets MinT amplify one direction of the base forecasts 16-fold; scaled so that the result's norm is
    4 times the float maximum, some entry of it (13 entries, 4 > sqrt(13)) must overflow."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((13, 13)))
    w = q @ np.diag(np.logspace(0, 8, 13)) @ q.T
    w = (w + w.T) / 2
    _, info = mint_reconcile(wide, np.ones(13), w, return_info=True)
    _, sv, vt = np.linalg.svd(summing_matrix(wide) @ info.p_matrix)
    assert sv[0] > 10
    with pytest.raises(ValueError, match="reconciled forecasts overflow"):
        mint_reconcile(wide, vt[0] * (np.finfo(np.float64).max / sv[0] * 4), w)
