"""Batched training: K stacked models against K separate runs, bit for bit.

The epoch kernel trains every model of a batch in the same numpy calls and
drops each one from the stack at its own stopping epoch. Each model must
come out exactly as a batch of one: same parameters, objective array,
epoch count and stop reason.
"""

import os
import subprocess
import sys
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
    _all_node_problem,
    _bottom_problem,
    _fit,
    forecast_timepoints,
    loss_and_grads,
    predict_bottom,
    train,
    train_all_node_base,
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
    x, y, yu, H, dims = _all_node_problem(panel, cfg)
    seeds = [1, 2, 3, 4]
    batch = _fit(x, y, yu, H, np.zeros((len(seeds), 0)),
                 [init_params(dims, s, bias=cfg.bias) for s in seeds], cfg)
    singles = [train_all_node_base(panel, TrainConfig(eta=1e-3, eps=1e-3, max_epochs=200, seed=s))
               for s in seeds]
    for b, s in zip(batch, singles):
        assert_same_result(b, s)


def test_per_model_hooks_see_single_run_params(tree):
    """A hook in a batch sees exactly the parameters of its model's own run."""
    panel = std_panel(tree, seed=9)
    cfg = TrainConfig(eta=5e-4, eps=1e-2, max_epochs=300, seed=4)

    def recorder(store):
        def hook(epoch, params):
            store.append((epoch, params.w2.copy(), params.b3.copy()))
            return epoch
        return hook

    x, yb, yu, H, dims = _bottom_problem(panel, tree, cfg)
    regs = [RegWeights.build(tree, *lam) for lam in LAMBDAS]
    stores = [[] for _ in regs]
    batch = _fit(x, yb, yu, H, np.stack([r.vec for r in regs]),
                 [init_params(dims, cfg.seed) for _ in regs], cfg, [recorder(s) for s in stores])
    for reg, store, b in zip(regs, stores, batch):
        own = []
        single = train(panel, tree, reg, cfg, epoch_hook=recorder(own))
        assert_same_result(b, single)
        assert b.epoch_eval == single.epoch_eval == list(range(1, single.epochs + 1))
        assert len(store) == len(own)
        for (ea, w2a, b3a), (eb, w2b, b3b) in zip(store, own):
            assert ea == eb
            assert np.array_equal(bits(w2a), bits(w2b)) and np.array_equal(bits(b3a), bits(b3b))


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


def test_sigmoid_is_bit_equal_to_masked_formula():
    special = [0.0, 1e-300, 5e-324, 0.5, 1.0, 36.7, 700.0, 709.8, 745.0, 745.2, 800.0, np.inf]
    grid = np.array(special + [-v for v in special] + [np.nan, -np.nan])
    grid = np.concatenate([grid, np.random.default_rng(0).standard_normal(20_000) * 30])
    with np.errstate(all="ignore"):
        old, new = masked_sigmoid(grid), activation(grid, "sigmoid")
    assert np.array_equal(bits(new), bits(old))


def test_epoch_hook_matches_predict_bottom_formula(tree):
    """The precomputed-design hook equals the per-call prediction bit for bit."""
    panel = std_panel(tree, seed=11)
    cfg = TrainConfig(eta=1e-3, max_epochs=6, seed=2)
    hook = make_epoch_hook(panel, tree, cfg)
    tps = forecast_timepoints(panel)
    actual = panel.values[:, panel.train_len:]

    def reference(epoch, params):
        coherent = aggregate_bottom(tree, predict_bottom(params, panel, cfg, tps))
        per_node = np.sqrt(np.mean((actual - coherent) ** 2, axis=1))
        return {"root": float(per_node[0]), "mid": float(per_node[1:3].mean()),
                "bottom": float(per_node[3:].mean()), "average": float(per_node.mean())}

    pairs = []
    train(panel, tree, RegWeights.build(tree, 0.5, 1.0), cfg,
          epoch_hook=lambda epoch, params: pairs.append((hook(epoch, params), reference(epoch, params))))
    assert len(pairs) == 6
    for got, want in pairs:
        assert got.keys() == want.keys()
        assert all(np.float64(got[k]).view(np.int64) == np.float64(want[k]).view(np.int64) for k in want)


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(htsreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, htsreg.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
