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
from htsreg.panel import SeriesPanel, standardize
from htsreg.trainer import (
    RegWeights,
    TrainConfig,
    TrainingDiverged,
    forecast_timepoints,
    loss_and_grads,
    predict_bottom,
    train,
    train_all_node_base,
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
    return standardize(panel)[0]


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
    singles = [train(panel, tree, reg, cfg) for reg in regs]
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
    assert_batch_matches_single_runs(panel, tree, TrainConfig(eta=1e-3, max_epochs=60, seed=2, bias=False))


def test_batch_matches_single_runs_with_relu(tree):
    panel = std_panel(tree, seed=6)
    assert_batch_matches_single_runs(panel, tree, TrainConfig(eta=1e-3, max_epochs=60, seed=3, activation="relu"))


def test_zero_epoch_batch_matches_single_runs(tree):
    panel = std_panel(tree, seed=7)
    assert_batch_matches_single_runs(panel, tree, TrainConfig(max_epochs=0, seed=1))


def test_stacked_all_node_models_match_single_runs(tree):
    """The all-node base (empty H) stacked over seeds equals its one-model runs."""
    panel = std_panel(tree, seed=8)
    cfg = TrainConfig(eta=1e-3, eps=1e-3, max_epochs=200, seed=0)
    seeds = [1, 2, 3, 4]
    batch = train_all_node_batch(panel, cfg, seeds)
    singles = [train_all_node_base(panel, TrainConfig(eta=1e-3, eps=1e-3, max_epochs=200, seed=s))
               for s in seeds]
    for b, s in zip(batch, singles):
        assert_same_result(b, s)


def test_batch_with_per_model_seeds_matches_single_runs(tree):
    panel = std_panel(tree, seed=3)
    cfg = TrainConfig(eta=5e-4, eps=3e-3, max_epochs=300)
    seeds = [4, 9, 1, 7, 2]
    regs = [RegWeights.build(tree, *lam) for lam in LAMBDAS]
    for b, reg, seed in zip(train_batch(panel, tree, regs, cfg, seeds=seeds), regs, seeds):
        assert_same_result(b, train(panel, tree, reg, replace(cfg, seed=seed)))


def snapshot_hook(calls):
    """Stack hook whose row for a model and epoch is the epoch and the model's weights; logs block shapes."""
    def hook(first_epoch, nets):
        e, k = nets.w2.shape[:2]
        calls.append((first_epoch, e, k))
        epochs = np.broadcast_to(np.arange(first_epoch, first_epoch + e, dtype=np.float64)[:, None, None], (e, k, 1))
        return np.concatenate([epochs] + [a.reshape(e, k, -1) for a in nets], axis=-1)
    return hook


def test_per_model_hooks_see_single_run_params(tree, monkeypatch):
    """The stack hook's rows for a model of a batch are that model's own run, epoch by epoch.

    Models stop at staggered epochs, and blocks of at most TRACE_ROWS
    model-epochs (one epoch when the stack is larger) are scored at once.
    """
    panel = std_panel(tree, seed=3)
    cfg = TrainConfig(eta=5e-4, eps=3e-3, max_epochs=300, seed=4)
    regs = [RegWeights.build(tree, *lam) for lam in LAMBDAS]
    for trace_rows in (trainer.TRACE_ROWS, 7, 1):
        monkeypatch.setattr(trainer, "TRACE_ROWS", trace_rows)
        calls = []
        batch = train_batch(panel, tree, regs, cfg, hook=snapshot_hook(calls))
        assert all(e * k <= max(trace_rows, k) for _, e, k in calls)
        assert sum(e * k for _, e, k in calls) == sum(b.epochs for b in batch)
        for reg, b in zip(regs, batch):
            single = train(panel, tree, reg, cfg, epoch_hook=snapshot_hook([]))
            assert_same_result(b, single)
            assert np.array_equal(b.epoch_eval[:, 0], np.arange(1, b.epochs + 1))
            assert np.array_equal(bits(b.epoch_eval), bits(single.epoch_eval))
            assert np.array_equal(bits(b.epoch_eval[-1, 1:]), bits(np.concatenate([a.ravel() for a in b.params])))
    assert len({b.epochs for b in batch}) > 2


def test_hook_sees_no_diverged_weights(tree):
    """Models that diverge leave the stack before their last epoch reaches the hook."""
    panel = std_panel(tree, seed=10)
    calls = []
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        train_batch(panel, tree, [RegWeights.build(tree, *lam) for lam in DIVERGING_LAMBDAS], DIVERGING,
                    hook=lambda first, nets: calls.append(np.isfinite(nets.w3).all()) or np.zeros(nets.w2.shape[:2]))
    assert err.value.epoch == 2 and err.value.model == 0
    assert calls == [True]  # epoch 1 of the (0, 0) model, the only one still finite


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


# ------------------------------------------------------------- divergence

# At this step size the (0, 0) model overflows at epoch 2, the others at epoch 1.
DIVERGING = TrainConfig(eta=1e150, max_epochs=50, seed=1)
DIVERGING_LAMBDAS = [(0.0, 0.0), (1.5, 1.5), (3.0, 3.0)]


def diverged_epoch(panel, tree, lam):
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        train(panel, tree, RegWeights.build(tree, *lam), DIVERGING)
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
        coherent = aggregate_bottom(tree, predict_bottom(params, panel, cfg, tps))
        per_node = np.sqrt(np.mean((actual - coherent) ** 2, axis=1))
        return [per_node[0], per_node[1:3].mean(), per_node[3:].mean(), per_node.mean()]

    seen = []

    def recording(first_epoch, nets):
        seen.append((first_epoch, NetworkParams(*(a.copy() for a in nets))))
        return hook(first_epoch, nets)

    regs = [RegWeights.build(tree, *lam) for lam in LAMBDAS[:3]]
    batch = train_batch(panel, tree, regs, cfg, seeds=[2, 3, 4], hook=recording)
    assert [b.epoch_eval.shape for b in batch] == [(40, 4)] * 3
    for first_epoch, nets in seen:
        for e, k in np.ndindex(nets.w2.shape[:2]):
            params = NetworkParams(nets.w2[e, k], nets.b2[e, k, 0], nets.w3[e, k], nets.b3[e, k, 0])
            assert np.array_equal(bits(batch[k].epoch_eval[first_epoch - 1 + e]), bits(reference(params)))


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(htsreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, htsreg.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
