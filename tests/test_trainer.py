"""Tests for the structured objective, specialized backprop, and training loop."""

from dataclasses import replace

import numpy as np
import pytest

from htsreg.evaluate import DEFAULT_LAMBDA_GRID, tune_lambda
from htsreg.hierarchy import aggregate_bottom, build_hierarchy, structure_matrix
from htsreg.neuralnet import NetworkDims, init_params
from htsreg.panel import SeriesPanel, lagged_design, standardize
from htsreg.synthgen import generate_dataset, preset_hierarchy
from htsreg.trainer import (
    RegWeights,
    TrainConfig,
    TrainingDiverged,
    forecast_timepoints,
    forward,
    loss_and_grads,
    predict,
    train_all_node_batch,
    train_batch,
    training_timepoints,
)

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}


@pytest.fixture
def tree():
    return build_hierarchy(SMALL_PARENTS)


@pytest.fixture
def h_matrix(tree):
    return structure_matrix(tree)


def loss(params, x, y, reg, h_matrix, kind="sigmoid"):
    """loss_and_grads on observation rows y = (upper | bottom), one row per input row."""
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    n_upper = h_matrix.shape[0]
    return loss_and_grads(params, x, y[:, n_upper:], y[:, :n_upper], h_matrix, reg.vec, kind)


def fixed_output(u3):
    """A 4-8-4 network whose output is u3 whatever the input (zero W3, bias u3)."""
    params = init_params(NetworkDims(4, 8, 4), 0)
    params.w3[:] = 0.0
    params.b3[:] = u3
    return params


# ------------------------------------------------------------- objective

def test_reg_weights_assignment(tree):
    reg = RegWeights.build(tree, 0.4, 1.5)
    assert np.array_equal(reg.vec, [0.4, 1.5, 1.5])


def test_reg_weights_reject_negative(tree):
    with pytest.raises(ValueError, match="nonnegative"):
        RegWeights.build(tree, -0.1, 0.0)


@pytest.mark.parametrize("lam", [(float("nan"), 0.0), (0.0, float("inf")), (float("-inf"), 1.0)])
def test_reg_weights_reject_non_finite(tree, lam):
    with pytest.raises(ValueError, match="finite"):
        RegWeights.build(tree, *lam)


def test_error_reduces_to_rss_at_lambda_zero(tree, h_matrix):
    rng = np.random.default_rng(0)
    y = rng.standard_normal((3, 7))
    x = rng.standard_normal((3, 4))
    params = init_params(NetworkDims(4, 8, 4), 0)
    u3 = forward(params, x, "sigmoid")[1]
    expected = 0.5 * np.sum((y[:, 3:] - u3) ** 2)
    objective, _ = loss(params, x, y, RegWeights.build(tree, 0.0, 0.0), h_matrix)
    assert objective == pytest.approx(expected, rel=1e-15)


def test_error_zero_at_exact_coherent_fit(tree, h_matrix):
    yb = np.array([1.0, 2.0, 3.0, 4.0])
    y = aggregate_bottom(tree, yb)
    objective, _ = loss(fixed_output(yb), np.ones(4), y, RegWeights.build(tree, 1.0, 1.0), h_matrix)
    assert objective == 0.0


def test_error_hand_value(tree, h_matrix):
    """y = (4,2,2,1,1,1,1), output 0, unit weights: 2 + 12 = 14."""
    y = np.array([4.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    objective, _ = loss(fixed_output(0.0), np.ones(4), y, RegWeights.build(tree, 1.0, 1.0), h_matrix)
    assert objective == pytest.approx(14.0)


# ------------------------------------------------------------- deltas
# With one input row the bias gradients are the deltas: b3 gets d3, b2 gets d2.

def test_output_delta_lambda_zero_is_residual(tree, h_matrix):
    rng = np.random.default_rng(1)
    y = rng.standard_normal(7)
    x = rng.standard_normal(4)
    params = init_params(NetworkDims(4, 8, 4), 1)
    _, g = loss(params, x, y, RegWeights.build(tree, 0.0, 0.0), h_matrix)
    u3 = forward(params, x[None], "sigmoid")[1][0]
    assert np.array_equal(g.b3, u3 - y[3:])


def test_output_delta_zero_at_perfect_coherent_fit(tree, h_matrix):
    yb = np.array([0.5, -1.5, 2.0, 3.0])
    y = aggregate_bottom(tree, yb)
    _, g = loss(fixed_output(yb), np.ones(4), y, RegWeights.build(tree, 0.7, 1.3), h_matrix)
    assert np.allclose(g.b3, 0.0, atol=1e-12)


def fd_check(params, arr, got, x, y, reg, h_matrix, eps=1e-7, rel=1e-7, abs_=1e-9):
    """Central differences of the objective over every entry of ``arr`` match ``got``."""
    for k in range(arr.size):
        orig = arr[k]
        arr[k] = orig + eps
        e_up = loss(params, x, y, reg, h_matrix)[0]
        arr[k] = orig - eps
        e_dn = loss(params, x, y, reg, h_matrix)[0]
        arr[k] = orig
        assert got[k] == pytest.approx((e_up - e_dn) / (2 * eps), rel=rel, abs=abs_)


def test_output_delta_matches_finite_differences(tree, h_matrix):
    """d3 = dE/du3, perturbing u3 through the output bias."""
    rng = np.random.default_rng(2)
    y = rng.standard_normal(7)
    x = rng.standard_normal(4)
    params = init_params(NetworkDims(4, 8, 4), 2)
    reg = RegWeights.build(tree, 0.9, 1.7)
    _, g = loss(params, x, y, reg, h_matrix)
    fd_check(params, params.b3, g.b3, x, y, reg, h_matrix)


def test_hidden_delta_zero_incoming(tree, h_matrix):
    """Targets equal to the output give d3 = 0, hence d2 = 0."""
    params = init_params(NetworkDims(4, 8, 4), 3)
    x = np.random.default_rng(3).standard_normal((1, 4))
    u3 = forward(params, x, "sigmoid")[1]
    y = np.hstack([u3 @ h_matrix.T, u3])
    _, g = loss(params, x, y, RegWeights.build(tree, 0.5, 0.5), h_matrix)
    assert np.array_equal(g.b3, np.zeros(4))
    assert np.array_equal(g.b2, np.zeros(8))


def test_hidden_delta_dead_relu_units(tree, h_matrix):
    """Hidden pre-activations at or below 0 pass no gradient (the rectifier takes f'(0) = 0)."""
    params = init_params(NetworkDims(4, 8, 4), 4)
    params.w2[:] = 0.0
    for bias in (-1.0, 0.0):
        params.b2[:] = bias
        _, g = loss(params, np.ones(4), np.ones(7), RegWeights.build(tree, 0.5, 0.5), h_matrix, "relu")
        assert np.array_equal(g.b2, np.zeros(8))
        assert np.array_equal(g.w2, np.zeros((8, 4)))


def test_hidden_delta_matches_finite_differences(tree, h_matrix):
    """d2 = dE/du2, perturbing u2 through the hidden bias."""
    rng = np.random.default_rng(5)
    params = init_params(NetworkDims(4, 8, 4), 5)
    x = rng.standard_normal(4)
    y = rng.standard_normal(7)
    reg = RegWeights.build(tree, 0.6, 1.1)
    _, g = loss(params, x, y, reg, h_matrix)
    fd_check(params, params.b2, g.b2, x, y, reg, h_matrix, rel=1e-6)


# ------------------------------------------------------------- gradients

def test_gradients_zero_input_zero_w2_gradient(tree, h_matrix):
    params = init_params(NetworkDims(4, 8, 4), 6)
    reg = RegWeights.build(tree, 0.5, 0.5)
    y = np.random.default_rng(6).standard_normal((3, 7))
    _, g = loss(params, np.zeros((3, 4)), y, reg, h_matrix)
    assert np.array_equal(g.w2, np.zeros((8, 4)))


def grad_check(params, x, y, reg, h_matrix, kind="sigmoid", eps=1e-6,
               rel_tol=1e-5, abs_tol=1e-8):
    """Worst deviation between analytic and central-difference gradients.

    Both come from loss_and_grads, the function training runs. Each entry
    must satisfy |analytic - fd| <= max(rel_tol * |fd|, abs_tol); the
    return value is the largest ratio against that bound (< 1 passes).
    """
    _, g = loss(params, x, y, reg, h_matrix, kind)
    worst = 0.0
    for arr, ga in ((params.w2, g.w2), (params.b2, g.b2), (params.w3, g.w3), (params.b3, g.b3)):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            e_up = loss(params, x, y, reg, h_matrix, kind)[0]
            arr[idx] = orig - eps
            e_dn = loss(params, x, y, reg, h_matrix, kind)[0]
            arr[idx] = orig
            fd = (e_up - e_dn) / (2 * eps)
            worst = max(worst, abs(ga[idx] - fd) / max(rel_tol * abs(fd), abs_tol))
    return worst


@pytest.mark.parametrize("lam", [0.0, 0.7, 2.4])
def test_gradients_match_finite_differences(tree, h_matrix, lam):
    """The primary correctness gate: every partial within 1e-5 rel / 1e-8 abs, over three rows."""
    rng = np.random.default_rng(7)
    params = init_params(NetworkDims(4, 8, 4), 7)
    x = rng.standard_normal((3, 4))
    y = rng.standard_normal((3, 7))
    reg = RegWeights.build(tree, lam, lam)
    assert grad_check(params, x, y, reg, h_matrix) < 1.0


def test_lambda_zero_gradients_equal_plain_rss(tree, h_matrix):
    """Zero weights reduce the specialized gradients to plain-RSS ones, bitwise."""
    rng = np.random.default_rng(8)
    params = init_params(NetworkDims(4, 8, 4), 8)
    x = rng.standard_normal(4)
    y = rng.standard_normal(7)
    _, g = loss(params, x, y, RegWeights.build(tree, 0.0, 0.0), h_matrix)

    z2, u3 = (v[0] for v in forward(params, x[None], "sigmoid"))
    d3 = u3 - y[3:]
    d2 = (params.w3.T @ d3) * (z2 * (1 - z2))
    assert np.array_equal(g.w3, np.outer(d3, z2))
    assert np.array_equal(g.b3, d3)
    assert np.array_equal(g.w2, np.outer(d2, x))
    assert np.array_equal(g.b2, d2)


def test_gradient_symmetry_under_bottom_permutation(tree, h_matrix):
    """Renaming bottom nodes permutes gradients without changing values."""
    rng = np.random.default_rng(9)
    params = init_params(NetworkDims(4, 8, 4), 9)
    x = rng.standard_normal(4)
    y = rng.standard_normal(7)
    reg = RegWeights.build(tree, 0.8, 1.4)
    _, g = loss(params, x, y, reg, h_matrix)

    perm = np.array([2, 0, 3, 1])
    params_p = replace(params, w2=params.w2[:, perm], w3=params.w3[perm, :], b3=params.b3[perm])
    y_p = np.concatenate([y[:3], y[3:][perm]])
    _, g_p = loss(params_p, x[perm], y_p, reg, h_matrix[:, perm])

    assert np.allclose(g_p.w3, g.w3[perm, :], rtol=1e-12, atol=1e-14)
    assert np.allclose(g_p.b3, g.b3[perm], rtol=1e-12, atol=1e-14)
    assert np.allclose(g_p.w2, g.w2[:, perm], rtol=1e-12, atol=1e-14)
    assert np.allclose(g_p.b2, g.b2, rtol=1e-12, atol=1e-14)


# ------------------------------------------------------------- training loop

def std_panel(tree, seed=0, n_time=30, train_len=20):
    rng = np.random.default_rng(seed)
    bottoms = rng.standard_normal((4, n_time)).cumsum(axis=1) * 0.3 + rng.standard_normal((4, n_time))
    panel = SeriesPanel.from_values(tree, aggregate_bottom(tree, bottoms), train_len)
    return standardize(panel)


def test_zero_epoch_budget_returns_initial_params(tree):
    panel = std_panel(tree)
    cfg = TrainConfig(max_epochs=0, lag=2, seed=5)
    result = train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], cfg)[0]
    fresh = init_params(NetworkDims(8, 16, 4), 5)
    assert np.array_equal(result.params.w2, fresh.w2)
    assert np.array_equal(result.params.w3, fresh.w3)
    assert result.epochs == 0
    assert result.objective.size == 0
    assert result.reason == "max_epochs"


def capture_hook(store, x):
    """Stack hook on the rows of x keeping a copy of the one model's forecasts after every epoch."""
    def hook(first_epoch, forecasts):
        store.extend(forecasts[:, 0].copy())
        return np.zeros(forecasts.shape[:2])

    hook.x = x
    return hook


def test_lambda_zero_training_is_bitwise_identical(tree):
    """Two zero-weight runs with the same seed share every parameter and forecast bit."""
    panel = std_panel(tree, seed=1)
    cfg = TrainConfig(max_epochs=30, seed=11)
    x = lagged_design(panel.bottom_values, cfg.lag, forecast_timepoints(panel))
    snaps_a, snaps_b = [], []
    ra = train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], cfg, hook=capture_hook(snaps_a, x))[0]
    rb = train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], cfg, hook=capture_hook(snaps_b, x))[0]
    assert np.array_equal(ra.objective, rb.objective)
    assert len(snaps_a) == len(snaps_b) == ra.epochs == 30
    for sa, sb in zip(snaps_a, snaps_b):
        assert np.array_equal(sa, sb)
    for arr_a, arr_b in zip(ra.params, rb.params):
        assert np.array_equal(arr_a, arr_b)


def test_first_update_equals_sum_of_pointwise_gradients(tree, h_matrix):
    """One engine epoch applies eta times the sum of per-timepoint gradients."""
    panel = std_panel(tree, seed=2)
    cfg = TrainConfig(max_epochs=1, eta=1e-4, lag=2, seed=13)
    reg = RegWeights.build(tree, 0.5, 1.5)
    result = train_batch(panel, tree, [reg], cfg)[0]

    params0 = init_params(NetworkDims(8, 16, 4), 13)
    grads = [loss(params0, lagged_design(panel.bottom_values, cfg.lag, [t]), panel.values[:, t - 1], reg, h_matrix)[1]
             for t in training_timepoints(panel, cfg.lag)]
    for name in ("w2", "b2", "w3", "b3"):
        total = sum(getattr(g, name) for g in grads)
        want = getattr(params0, name) - cfg.eta * total
        assert np.allclose(getattr(result.params, name), want, rtol=1e-12, atol=1e-14), name


def test_objective_monotone_on_preset_panel():
    """At the default step size the objective never rises before termination."""
    panel = standardize(generate_dataset("NgtvC", seed=3))
    h = preset_hierarchy()
    result = train_batch(panel, h, [RegWeights.build(h, 0.0, 2.1)], TrainConfig(max_epochs=300, seed=1))[0]
    diffs = np.diff(result.objective)
    assert np.all(diffs[:-1] <= 0)


def test_divergence_raises_with_epoch(tree):
    """A step size large enough to overflow in one update aborts the trial."""
    panel = std_panel(tree, seed=4)
    cfg = TrainConfig(eta=1e160, max_epochs=200, seed=1)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged) as err:
            train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], cfg)
    assert err.value.epoch >= 1


def test_training_always_halts(tree):
    """The epoch cap guarantees termination even with a tiny threshold."""
    panel = std_panel(tree, seed=5)
    cfg = TrainConfig(eps=1e-300, max_epochs=25, seed=2)
    result = train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], cfg)[0]
    assert result.epochs == 25
    assert result.reason == "max_epochs"


def test_training_is_deterministic(tree):
    panel = std_panel(tree, seed=6)
    cfg = TrainConfig(max_epochs=40, seed=21)
    a = train_batch(panel, tree, [RegWeights.build(tree, 0.3, 0.9)], cfg)[0]
    b = train_batch(panel, tree, [RegWeights.build(tree, 0.3, 0.9)], cfg)[0]
    assert np.array_equal(a.params.w2, b.params.w2)
    assert np.array_equal(a.objective, b.objective)


def test_all_node_base_network_trains(tree):
    """The unregularized all-node network descends its squared error."""
    panel = std_panel(tree, seed=7)
    cfg = TrainConfig(max_epochs=50, seed=3)
    result = train_all_node_batch(panel, cfg, [cfg.seed])[0]
    assert result.params.dims.input_dim == cfg.lag * 7
    assert result.params.dims.output_dim == 7
    assert result.objective[-1] < result.objective[0]


def test_predict_bottom_matches_single_forward(tree):
    panel = std_panel(tree, seed=8)
    cfg = TrainConfig(max_epochs=5, seed=4)
    result = train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], cfg)[0]

    fc = predict(result.params, panel.bottom_values, cfg, [10, 11])
    one = forward(result.params, lagged_design(panel.bottom_values, cfg.lag, [10]), cfg.activation)[1][0]
    assert np.allclose(fc[:, 0], one, rtol=1e-13)


# ------------------------------------------------------------- lambda tuning

def test_tune_lambda_degenerate_grid(tree):
    panel = std_panel(tree, seed=9, n_time=40, train_len=28)
    cfg = TrainConfig(max_epochs=10, seed=5)
    assert tune_lambda(panel, tree, [0.0], [0.0], cfg) == (0.0, 0.0)


def test_tune_lambda_rejects_empty_grid(tree):
    panel = std_panel(tree, seed=9, n_time=40, train_len=28)
    with pytest.raises(ValueError, match="nonempty"):
        tune_lambda(panel, tree, [], [0.0], TrainConfig(max_epochs=5))


def test_tune_lambda_matches_reevaluation_oracle(tree):
    """An independent pass over the grid reproduces the selection."""
    panel = std_panel(tree, seed=10, n_time=48, train_len=32)
    cfg = TrainConfig(max_epochs=15, seed=6)
    grid1, grid_m = [0.0, 1.0], [0.0, 0.8, 1.6]
    chosen = tune_lambda(panel, tree, grid1, grid_m, cfg)

    fit_len = int(0.75 * panel.train_len)
    fit_panel = panel.with_train_len(fit_len)
    val_tps = range(fit_len + 1, panel.train_len + 1)
    actual = panel.values[:, [t - 1 for t in val_tps]]

    def score(l1, lm):
        res = train_batch(fit_panel, tree, [RegWeights.build(tree, l1, lm)], cfg)[0]
        coherent = aggregate_bottom(tree, predict(res.params, fit_panel.bottom_values, cfg, val_tps))
        return float(np.mean(np.sqrt(np.mean((actual - coherent) ** 2, axis=1))))

    scored = {(l1, lm): score(l1, lm) for l1 in grid1 for lm in grid_m}
    best = min(scored, key=lambda k: (scored[k], k[0] + k[1], k[0]))
    assert chosen == best
    assert scored[chosen] == pytest.approx(score(*chosen), rel=1e-12)


def test_default_lambda_grid_contents():
    """Regular 0.0..3.0 grid in steps of 0.1 covers reported selections."""
    assert DEFAULT_LAMBDA_GRID[0] == 0.0
    assert DEFAULT_LAMBDA_GRID[-1] == 3.0
    assert len(DEFAULT_LAMBDA_GRID) == 31
    for v in (0.4, 1.2, 1.5, 2.1, 2.4):
        assert v in DEFAULT_LAMBDA_GRID


def test_train_rejects_mismatched_panel(tree):
    """Panels must carry the hierarchy's canonical node order."""
    panel = std_panel(tree, seed=11)
    other = build_hierarchy({20: 10, 30: 10, 40: 20, 50: 20, 60: 30, 70: 30})
    with pytest.raises(ValueError, match="node order"):
        train_batch(panel, other, [RegWeights.build(other, 0.0, 0.0)], TrainConfig(max_epochs=1))
