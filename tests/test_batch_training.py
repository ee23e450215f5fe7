"""Batched training: K stacked models against K separate runs, bit for bit.

The epoch kernel trains every model of a batch in the same numpy calls and
drops each one from the stack at its own stopping epoch. Each model must
come out exactly as a batch of one: same parameters, objective array,
epoch count and stop reason.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htsreg
from htsreg import trainer
from htsreg.cli import main
from htsreg.evaluate import make_epoch_hook
from htsreg.hierarchy import aggregate_bottom, build_hierarchy, structure_matrix
from htsreg.neuralnet import NetworkDims, NetworkParams, activation, init_params
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
)

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
LAMBDAS = [(0.0, 0.0), (0.6, 0.0), (0.0, 1.4), (2.0, 2.0), (3.0, 0.5)]


@pytest.fixture(scope="module")
def tree():
    return build_hierarchy(SMALL_PARENTS)


def std_panel(tree, seed=0, n_time=30, train_len=20):
    rng = np.random.default_rng(seed)
    bottoms = rng.standard_normal((4, n_time)).cumsum(axis=1) * 0.3 + rng.standard_normal((4, n_time))
    panel = SeriesPanel.from_values(tree, aggregate_bottom(tree, bottoms), train_len)
    return standardize(panel)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_same_result(batched, single):
    assert batched.epochs == single.epochs
    assert batched.reason == single.reason
    assert np.array_equal(bits(batched.objective), bits(single.objective))
    for name in ("w2", "b2", "w3", "b3"):
        assert np.array_equal(bits(getattr(batched.params, name)), bits(getattr(single.params, name))), name


def assert_batch_matches_single_runs(panel, tree, cfg, lambdas=LAMBDAS):
    regs = [RegWeights.build(tree, *lam) for lam in lambdas]
    batch = train_batch(panel, tree, regs, cfg)
    singles = [train_batch(panel, tree, [reg], cfg)[0] for reg in regs]
    for b, s in zip(batch, singles):
        assert_same_result(b, s)
    return singles


def test_batch_with_staggered_stops_matches_single_runs(tree):
    """Models leave the stack at different epochs; the rest carry on unchanged."""
    panel = std_panel(tree, seed=3)
    cfg = TrainConfig(eta=5e-4, eps=3e-3, max_epochs=300, seed=4)
    singles = assert_batch_matches_single_runs(panel, tree, cfg)
    assert [(r.epochs, r.reason) for r in singles] == [
        (243, "converged"), (236, "converged"), (208, "converged"), (300, "max_epochs"), (300, "max_epochs")]


def test_batch_larger_than_stack_limit_runs_in_consecutive_stacks(tree, monkeypatch):
    monkeypatch.setattr(trainer, "STACK_LIMIT", 2)
    panel = std_panel(tree, seed=3)
    assert_batch_matches_single_runs(panel, tree, TrainConfig(eta=5e-4, eps=3e-3, max_epochs=300, seed=4))


def test_batch_matches_single_runs_without_bias(tree):
    panel = std_panel(tree, seed=5)
    assert_batch_matches_single_runs(panel, tree, TrainConfig(eta=3e-4, max_epochs=60, seed=2, bias=False))


def test_batch_matches_single_runs_with_relu(tree):
    panel = std_panel(tree, seed=6)
    assert_batch_matches_single_runs(panel, tree, TrainConfig(eta=5e-5, max_epochs=60, seed=3, activation="relu"))


def test_zero_epoch_batch_matches_single_runs(tree):
    panel = std_panel(tree, seed=7)
    assert_batch_matches_single_runs(panel, tree, TrainConfig(max_epochs=0, seed=1))


def test_stacked_all_node_models_match_single_runs(tree):
    """The all-node base (empty H) stacked over seeds equals its one-model runs."""
    panel = std_panel(tree, seed=8)
    cfg = TrainConfig(eta=1e-3, eps=1e-3, max_epochs=200, seed=0)
    seeds = [1, 2, 3, 4]
    batch = train_all_node_batch(panel, cfg, seeds)
    singles = [train_all_node_batch(panel, cfg, [s])[0] for s in seeds]
    for b, s in zip(batch, singles):
        assert_same_result(b, s)


def test_batch_with_per_model_seeds_matches_single_runs(tree):
    panel = std_panel(tree, seed=3)
    cfg = TrainConfig(eta=5e-4, eps=3e-3, max_epochs=300)
    seeds = [4, 9, 1, 7, 2]
    regs = [RegWeights.build(tree, *lam) for lam in LAMBDAS]
    for b, reg, seed in zip(train_batch(panel, tree, regs, cfg, seeds=seeds), regs, seeds):
        assert_same_result(b, train_batch(panel, tree, [reg], replace(cfg, seed=seed))[0])


def watch_design(panel, cfg):
    return lagged_design(panel.bottom_values, cfg.lag, forecast_timepoints(panel))


def forecast_hook(calls, x):
    """Stack hook on the rows of x whose row for a model and epoch is the epoch and the model's forecasts; logs block shapes."""
    def hook(first_epoch, forecasts):
        e, k = forecasts.shape[:2]
        calls.append((first_epoch, e, k))
        epochs = np.broadcast_to(np.arange(first_epoch, first_epoch + e, dtype=np.float64)[:, None, None], (e, k, 1))
        return np.concatenate([epochs, forecasts.reshape(e, k, -1)], axis=-1)
    hook.x = x
    return hook


def test_per_model_hooks_see_single_run_params(tree, monkeypatch):
    """The stack hook's rows for a model of a batch are that model's own run, epoch by epoch.

    Models stop at staggered epochs, and blocks of at most TRACE_ROWS
    model-epochs (one epoch when the stack is larger) are scored at once.
    """
    panel = std_panel(tree, seed=3)
    cfg = TrainConfig(eta=5e-4, eps=3e-3, max_epochs=300, seed=4)
    regs = [RegWeights.build(tree, *lam) for lam in LAMBDAS]
    x = watch_design(panel, cfg)
    for trace_rows in (trainer.TRACE_ROWS, 7, 1):
        monkeypatch.setattr(trainer, "TRACE_ROWS", trace_rows)
        calls = []
        batch = train_batch(panel, tree, regs, cfg, hook=forecast_hook(calls, x))
        assert all(e * k <= max(trace_rows, k) for _, e, k in calls)
        assert sum(e * k for _, e, k in calls) == sum(b.epochs for b in batch)
        for reg, b in zip(regs, batch):
            single = train_batch(panel, tree, [reg], cfg, hook=forecast_hook([], x))[0]
            assert_same_result(b, single)
            assert np.array_equal(b.epoch_eval[:, 0], np.arange(1, b.epochs + 1))
            assert np.array_equal(bits(b.epoch_eval), bits(single.epoch_eval))
            # the last row holds the forecasts of the returned parameters
            assert np.array_equal(bits(b.epoch_eval[-1, 1:]), bits(forward(b.params, x, cfg.activation)[1].ravel()))
    assert len({b.epochs for b in batch}) > 2


def test_hook_sees_no_diverged_weights(tree):
    """Models that diverge leave the stack before the forecasts of their last weights reach the hook."""
    panel = std_panel(tree, seed=10)
    calls = []

    def hook(first_epoch, forecasts):
        calls.append((forecasts.shape[:2], bool(np.isfinite(forecasts).all())))
        return np.zeros(forecasts.shape[:2])

    hook.x = watch_design(panel, DIVERGING)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        train_batch(panel, tree, [RegWeights.build(tree, *lam) for lam in DIVERGING_LAMBDAS], DIVERGING, hook=hook)
    assert err.value.epoch == 2 and err.value.model == 0
    assert calls == [((1, 1), True)]  # epoch 1 of the (0, 0) model, the only one still finite


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 5), rows=st.integers(1, 8), input_dim=st.integers(1, 6), hidden=st.integers(1, 9),
       upper=st.booleans(), kind=st.sampled_from(["sigmoid", "relu"]), seed=st.integers(0, 2**32 - 1))
def test_stacked_loss_and_grads_slices_equal_single_calls(tree, k, rows, input_dim, hidden, upper, kind, seed):
    """Model j's slice of a stacked call has the bits of a 2-D call on model j alone."""
    rng = np.random.default_rng(seed)
    H = structure_matrix(tree) if upper else np.zeros((0, 4))
    x, yb, yu = (rng.standard_normal(shape) for shape in ((rows, input_dim), (rows, 4), (rows, H.shape[0])))
    lams = rng.uniform(0.0, 3.0, (k, H.shape[0]))
    models = [init_params(NetworkDims(input_dim, hidden, 4), int(s)) for s in rng.integers(0, 2**31, k)]
    stacked = NetworkParams(*(np.stack([getattr(m, n) for m in models]) for n in ("w2", "b2", "w3", "b3")))
    stacked.b2, stacked.b3 = stacked.b2[:, None], stacked.b3[:, None]
    objective, grads = loss_and_grads(stacked, x, yb, yu, H, lams[:, None], kind)
    assert objective.shape == (k,)
    for j, model in enumerate(models):
        e, g = loss_and_grads(model, x, yb, yu, H, lams[j], kind)
        assert np.float64(e).tobytes() == objective[j].tobytes()
        for n in ("w2", "b2", "w3", "b3"):
            assert np.array_equal(bits(getattr(g, n)), bits(getattr(grads, n)[j].reshape(getattr(model, n).shape))), n


def allocating_loss_and_grads(params, x, yb, yu, H, lam, kind):
    """The objective and gradient as first written, one fresh array per step: the oracle of the workspace."""
    z2 = activation(x @ np.swapaxes(params.w2, -1, -2) + params.b2, kind)
    u3 = z2 @ np.swapaxes(params.w3, -1, -2) + params.b3
    res_b = u3 - yb
    res_u = yu - u3 @ H.T
    upper = res_u * lam
    objective = 0.5 * (res_b * res_b).sum(axis=(-2, -1)) + 0.5 * (upper * upper).sum(axis=(-2, -1))
    d3 = res_b - (res_u * (lam * lam)) @ H
    d2 = (d3 @ params.w3) * (z2 * (1.0 - z2) if kind == "sigmoid" else z2 > 0)
    grads = NetworkParams(w2=np.swapaxes(d2, -1, -2) @ x, b2=d2.sum(axis=-2).reshape(params.b2.shape),
                          w3=np.swapaxes(d3, -1, -2) @ z2, b3=d3.sum(axis=-2).reshape(params.b3.shape))
    return objective, grads


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 5), rows=st.integers(1, 9), watch=st.integers(0, 6), input_dim=st.integers(1, 6),
       hidden=st.integers(1, 9), n_upper=st.integers(0, 3), kind=st.sampled_from(["sigmoid", "relu"]),
       seed=st.integers(0, 2**32 - 1))
def test_loss_and_grads_equal_the_allocating_formula(k, rows, watch, input_dim, hidden, n_upper, kind, seed):
    """The workspace gives the oracle's bits, with watch rows appended to x or not, and |U| = 0 included."""
    rng = np.random.default_rng(seed)
    x, yb, yu = (rng.standard_normal(shape) for shape in ((rows, input_dim), (rows, 3), (rows, n_upper)))
    H = rng.standard_normal((n_upper, 3))
    lam = rng.uniform(0.0, 3.0, (k, 1, n_upper))
    stacked = NetworkParams(*(rng.standard_normal(shape) for shape in
                              ((k, hidden, input_dim), (k, 1, hidden), (k, 3, hidden), (k, 1, 3))))
    want_e, want_g = allocating_loss_and_grads(stacked, x, yb, yu, H, lam, kind)
    for design in (x, np.vstack([x, rng.standard_normal((watch, input_dim)) * 100])):
        e, g = loss_and_grads(stacked, design, yb, yu, H, lam, kind)
        assert np.array_equal(bits(e), bits(want_e))
        for name in ("w2", "b2", "w3", "b3"):
            assert np.array_equal(bits(getattr(g, name)), bits(getattr(want_g, name))), name


@pytest.mark.parametrize("kind, bias", [("sigmoid", True), ("relu", False)])
def test_watch_rows_leave_training_unchanged(kind, bias):
    """Training with a hook, whose rows ride along in every epoch, returns the bits of training without one.

    58 fitted and 40 watch rows of the 13-node preset: at these sizes one
    product over all 98 rows would round some fitted rows differently.
    """
    tree = preset_hierarchy()
    panel = standardize(generate_dataset("WeakC", seed=2).with_train_len(60))
    cfg = TrainConfig(eta=1e-5, max_epochs=30, activation=kind, bias=bias)
    regs = [RegWeights.build(tree, *lam) for lam in LAMBDAS[:3]]
    hooked = train_batch(panel, tree, regs, cfg, seeds=[1, 2, 3], hook=forecast_hook([], watch_design(panel, cfg)))
    for with_hook, plain in zip(hooked, train_batch(panel, tree, regs, cfg, seeds=[1, 2, 3])):
        assert_same_result(with_hook, plain)
        assert with_hook.epoch_eval.shape == (30, 1 + 40 * 9) and plain.epoch_eval is None


# ------------------------------------------------------------- divergence

# At this step size the (0, 0) model overflows at epoch 2, the others at epoch 1.
DIVERGING = TrainConfig(eta=1e150, max_epochs=50, seed=1)
DIVERGING_LAMBDAS = [(0.0, 0.0), (1.5, 1.5), (3.0, 3.0)]


def diverged_epoch(panel, tree, lam):
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        train_batch(panel, tree, [RegWeights.build(tree, *lam)], DIVERGING)
    return err.value.epoch


@pytest.mark.parametrize("stack_limit", [trainer.STACK_LIMIT, 2, 1])
def test_batch_divergence_reports_lowest_index_model(tree, monkeypatch, stack_limit):
    """The error names the epoch a model-by-model run would report, not the first in time."""
    monkeypatch.setattr(trainer, "STACK_LIMIT", stack_limit)
    panel = std_panel(tree, seed=10)
    epochs = [diverged_epoch(panel, tree, lam) for lam in DIVERGING_LAMBDAS]
    assert epochs == [2, 1, 1]
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        train_batch(panel, tree, [RegWeights.build(tree, *lam) for lam in DIVERGING_LAMBDAS], DIVERGING)
    assert err.value.epoch == epochs[0]


def test_sweep_divergence_exit_code(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text('{"panel": {"preset": "NgtvC", "seed": 7}, "trial_seeds": [1], "x_grid": [0, 2.1], '
                   '"train": {"eta": 1e160, "max_epochs": 50}}')
    with np.errstate(all="ignore"):
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 3


# ------------------------------------------------------------- kernel pieces

def masked_sigmoid(u):
    """The sigmoid as first written: boolean-mask branches on the sign of u."""
    arr = np.atleast_1d(np.asarray(u, dtype=np.float64))
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    eu = np.exp(arr[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out.reshape(np.shape(u))


float64_bits = st.builds(lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
                         st.integers(0, 1), st.one_of(st.just(0), st.just(2047), st.integers(0, 2047)),
                         st.one_of(st.just(0), st.just(1), st.integers(0, 2**52 - 1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(float64_bits, min_size=1, max_size=40))
def test_sigmoid_is_bit_equal_to_masked_formula_on_any_bit_pattern(patterns):
    """Zeros, subnormals, infinities and NaN payloads of either sign included."""
    u = np.array(patterns, dtype=np.uint64).view(np.float64)
    with np.errstate(all="ignore"):
        assert np.array_equal(bits(activation(u, "sigmoid")), bits(masked_sigmoid(u)))
        assert bits(np.float64(activation(float(u[0]), "sigmoid"))) == bits(masked_sigmoid(u[:1]))[0]


@settings(max_examples=200, deadline=None)
@given(st.lists(float64_bits, min_size=1, max_size=40), st.sampled_from(["sigmoid", "relu"]))
def test_activation_out_is_bit_equal_to_a_fresh_result(patterns, kind):
    """Written to a given array or over its own input, the activation has the bits of a fresh result."""
    u = np.array(patterns, dtype=np.uint64).view(np.float64)
    with np.errstate(all="ignore"):
        want = activation(u, kind)
        out, inplace = np.full_like(u, 7.0), u.copy()
        assert activation(u, kind, out=out) is out
        activation(inplace, kind, out=inplace)
    assert np.array_equal(bits(out), bits(want)) and np.array_equal(bits(inplace), bits(want))


def test_sigmoid_is_bit_equal_to_masked_formula():
    special = [0.0, 1e-300, 5e-324, 0.5, 1.0, 36.7, 700.0, 709.8, 745.0, 745.2, 800.0, np.inf]
    grid = np.array(special + [-v for v in special] + [np.nan, -np.nan])
    grid = np.concatenate([grid, np.random.default_rng(0).standard_normal(20_000) * 30])
    with np.errstate(all="ignore"):
        old, new = masked_sigmoid(grid), activation(grid, "sigmoid")
    assert np.array_equal(bits(new), bits(old))


def test_epoch_hook_matches_predict_bottom_formula(tree):
    """The stack hook's rows equal the per-model, per-epoch prediction formula bit for bit."""
    panel = std_panel(tree, seed=11)
    cfg = TrainConfig(eta=1e-3, max_epochs=40)
    hook = make_epoch_hook(panel, tree, cfg)
    tps = forecast_timepoints(panel)
    actual = panel.values[:, panel.train_len:]

    def reference(params):
        coherent = aggregate_bottom(tree, predict(params, panel.bottom_values, cfg, tps))
        per_node = np.sqrt(np.mean((actual - coherent) ** 2, axis=1))
        return [per_node[0], per_node[1:3].mean(), per_node[3:].mean(), per_node.mean()]

    seen = []

    def recording(first_epoch, forecasts):
        seen.append((first_epoch, forecasts.copy()))
        return hook(first_epoch, forecasts)

    recording.x = hook.x
    regs, seeds = [RegWeights.build(tree, *lam) for lam in LAMBDAS[:3]], [2, 3, 4]
    batch = train_batch(panel, tree, regs, cfg, seeds=seeds, hook=recording)
    assert [b.epoch_eval.shape for b in batch] == [(40, 4)] * 3
    assert sum(len(forecasts) for _, forecasts in seen) == 40
    for first_epoch, forecasts in seen:
        for e, k in np.ndindex(forecasts.shape[:2]):
            epoch = first_epoch + e  # the weights after this epoch, from a run stopped there
            params = train_batch(panel, tree, [regs[k]], replace(cfg, max_epochs=epoch, seed=seeds[k]))[0].params
            assert np.array_equal(bits(forecasts[e, k]), bits(predict(params, panel.bottom_values, cfg, tps).T))
            assert np.array_equal(bits(batch[k].epoch_eval[epoch - 1]), bits(reference(params)))


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(htsreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, htsreg.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
