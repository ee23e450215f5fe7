"""Batched training: K stacked models against K separate runs, bit for bit.

The epoch kernel trains every model of a batch in the same numpy calls and
drops each one from the stack at its own stopping epoch. Each model must
come out exactly as a batch of one: same parameters, epoch count and stop
reason.
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
from kernel import loss_and_grads

import htsreg
from htsreg import trainer
from htsreg.cli import main
from htsreg.evaluate import _bottom_weights, make_epoch_hook
from htsreg.hierarchy import aggregate_bottom, build_hierarchy, structure_matrix
from htsreg.neuralnet import NetworkDims, NetworkParams, activation, init_params
from htsreg.panel import SeriesPanel, standardize
from htsreg.synthgen import generate_dataset, preset_hierarchy
from htsreg.trainer import TrainConfig, TrainingDiverged, predict, train_batch

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
LAMBDAS = [(0.0, 0.0), (0.6, 0.0), (0.0, 1.4), (2.0, 2.0), (3.0, 0.5)]


@pytest.fixture(scope="module")
def tree():
    return build_hierarchy(SMALL_PARENTS)


def std_panel(tree, seed=0, n_time=30, train_len=20):
    rng = np.random.default_rng(seed)
    bottoms = rng.standard_normal((4, n_time)).cumsum(axis=1) * 0.3 + rng.standard_normal((4, n_time))
    panel = SeriesPanel(tree, aggregate_bottom(tree, bottoms), train_len)
    return standardize(panel)


def train_bottom(panel, lambdas, seeds, cfg, hook=None):
    """Bottom networks, one per (lambda_root, lambda_mid) pair and seed, as one batch."""
    return train_batch(panel, *_bottom_weights(panel.tree, lambdas), seeds, cfg, hook)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def assert_same_result(batched, single):
    assert batched.epochs == single.epochs
    assert batched.reason == single.reason
    assert np.array_equal(bits(batched.params.theta), bits(single.params.theta))


def assert_batch_matches_single_runs(panel, cfg, seed, lambdas=LAMBDAS):
    batch = train_bottom(panel, lambdas, [seed] * len(lambdas), cfg)
    singles = [train_bottom(panel, [lam], [seed], cfg)[0] for lam in lambdas]
    for b, s in zip(batch, singles):
        assert_same_result(b, s)
    return singles


def test_batch_with_staggered_stops_matches_single_runs(tree):
    """Models leave the stack at different epochs; the rest carry on unchanged."""
    panel = std_panel(tree, seed=3)
    cfg = TrainConfig(eta=5e-4, eps=3e-3, max_epochs=300)
    singles = assert_batch_matches_single_runs(panel, cfg, 4)
    assert [(r.epochs, r.reason) for r in singles] == [
        (243, "converged"), (236, "converged"), (208, "converged"), (300, "max_epochs"), (300, "max_epochs")]


def test_batch_larger_than_stack_limit_runs_in_consecutive_stacks(tree, monkeypatch):
    monkeypatch.setattr(trainer, "STACK_LIMIT", 2)
    panel = std_panel(tree, seed=3)
    assert_batch_matches_single_runs(panel, TrainConfig(eta=5e-4, eps=3e-3, max_epochs=300), 4)


def test_batch_matches_single_runs_without_bias(tree):
    panel = std_panel(tree, seed=5)
    assert_batch_matches_single_runs(panel, TrainConfig(eta=3e-4, max_epochs=60, bias=False), 2)


def test_batch_matches_single_runs_with_relu(tree):
    panel = std_panel(tree, seed=6)
    assert_batch_matches_single_runs(panel, TrainConfig(eta=5e-5, max_epochs=60, activation="relu"), 3)


def test_zero_epoch_batch_matches_single_runs(tree):
    panel = std_panel(tree, seed=7)
    assert_batch_matches_single_runs(panel, TrainConfig(max_epochs=0), 1)


def test_stacked_all_node_models_match_single_runs(tree):
    """The all-node base (empty H) stacked over seeds equals its one-model runs."""
    panel = std_panel(tree, seed=8)
    cfg = TrainConfig(eta=1e-3, eps=1e-3, max_epochs=200)
    seeds = [1, 2, 3, 4]
    batch = train_batch(panel, np.zeros((0, 7)), np.zeros((4, 0)), seeds, cfg)
    singles = [train_batch(panel, np.zeros((0, 7)), np.zeros((1, 0)), [s], cfg)[0] for s in seeds]
    for b, s in zip(batch, singles):
        assert_same_result(b, s)


def test_batch_with_per_model_seeds_matches_single_runs(tree):
    panel = std_panel(tree, seed=3)
    cfg = TrainConfig(eta=5e-4, eps=3e-3, max_epochs=300)
    seeds = [4, 9, 1, 7, 2]
    for b, lam, seed in zip(train_bottom(panel, LAMBDAS, seeds, cfg), LAMBDAS, seeds):
        assert_same_result(b, train_bottom(panel, [lam], [seed], cfg)[0])


def forecast_hook(calls):
    """Stack hook whose row for a weight row is its place among all rows the hook saw, then its watch-row forecasts.

    ``calls`` logs the number of rows of each call.
    """
    def hook(forecasts):
        n, first = len(forecasts), sum(calls)
        calls.append(n)
        return np.concatenate([np.arange(first, first + n, dtype=np.float64)[:, None], forecasts.reshape(n, -1)],
                              axis=-1)
    return hook


def assert_rows_in_epoch_order(fit):
    """A model's hook rows reached the hook in epoch order, one per epoch."""
    assert len(fit.epoch_eval) == fit.epochs and np.all(np.diff(fit.epoch_eval[:, 0]) > 0)


def test_per_model_hooks_see_single_run_params(tree, monkeypatch):
    """The stack hook's rows for a model of a batch are that model's own run, epoch by epoch.

    Models stop at staggered epochs, and each call scores at most
    max(TRACE_ROWS, K) weight rows.
    """
    panel = std_panel(tree, seed=3)
    cfg = TrainConfig(eta=5e-4, eps=3e-3, max_epochs=300)
    seeds = [4] * len(LAMBDAS)
    for trace_rows in (trainer.TRACE_ROWS, 7, 1):
        monkeypatch.setattr(trainer, "TRACE_ROWS", trace_rows)
        calls = []
        batch = train_bottom(panel, LAMBDAS, seeds, cfg, forecast_hook(calls))
        assert all(n <= max(trace_rows, len(LAMBDAS)) for n in calls)
        assert sum(calls) == sum(b.epochs for b in batch)
        for lam, b in zip(LAMBDAS, batch):
            single = train_bottom(panel, [lam], [4], cfg, forecast_hook([]))[0]
            assert_same_result(b, single)
            assert_rows_in_epoch_order(b)
            assert np.array_equal(bits(b.epoch_eval[:, 1:]), bits(single.epoch_eval[:, 1:]))
            # the last row holds the forecasts of the returned parameters
            test = predict(b.params, panel, cfg, panel.train_len, panel.n_time)
            assert np.array_equal(bits(b.epoch_eval[-1, 1:]), bits(test.T.ravel()))
    assert len({b.epochs for b in batch}) > 2


def test_each_trace_row_is_the_forecast_of_that_epochs_weights(tree, monkeypatch):
    """Trace row e of a stacked model is the test forecast of a batch of one trained for e epochs.

    The three models stop at epochs 6, 10 and 12, so the stack's models
    change while rows are buffered.
    """
    panel = std_panel(tree, seed=3)
    cfg = TrainConfig(eta=2e-3, eps=5e-2, max_epochs=12)
    seeds = [4, 5, 6]

    def forecast_after(lam, seed, epochs):
        fit = train_bottom(panel, [lam], [seed], replace(cfg, max_epochs=epochs))[0]
        assert fit.epochs == epochs
        return predict(fit.params, panel, cfg, panel.train_len, panel.n_time).T.ravel()

    stops = [6, 10, 12]
    want = [[forecast_after(lam, seed, e) for e in range(1, stop + 1)]
            for lam, seed, stop in zip(LAMBDAS, seeds, stops)]
    for trace_rows in (trainer.TRACE_ROWS, 7, 1):
        monkeypatch.setattr(trainer, "TRACE_ROWS", trace_rows)
        calls = []
        batch = train_bottom(panel, LAMBDAS[:3], seeds, cfg, forecast_hook(calls))
        assert [b.epochs for b in batch] == stops
        assert all(n <= max(trace_rows, 3) for n in calls)
        for b, rows in zip(batch, want):
            assert_rows_in_epoch_order(b)
            for e, row in enumerate(rows, 1):
                assert np.array_equal(bits(b.epoch_eval[e - 1, 1:]), bits(row)), (trace_rows, e)


def test_models_leaving_the_stack_do_not_flush_the_trace(tree):
    """The stack of 6, 10 and 12 epochs fills 28 of the TRACE_ROWS = 64 rows: one hook call scores them all."""
    panel = std_panel(tree, seed=3)
    calls = []
    batch = train_bottom(panel, LAMBDAS[:3], [4, 5, 6], TrainConfig(eta=2e-3, eps=5e-2, max_epochs=12),
                         forecast_hook(calls))
    assert [b.epochs for b in batch] == [6, 10, 12] and trainer.TRACE_ROWS == 64
    assert calls == [28]


def test_hook_sees_no_diverged_weights(tree):
    """Models that diverge leave the stack before the forecasts of their last weights reach the hook."""
    panel = std_panel(tree, seed=10)
    calls = []

    def hook(forecasts):
        calls.append((len(forecasts), bool(np.isfinite(forecasts).all())))
        return np.zeros(len(forecasts))

    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        train_bottom(panel, DIVERGING_LAMBDAS, [1] * 3, DIVERGING, hook)
    assert err.value.epoch == 2 and err.value.model == 0
    assert calls == [(1, True)]  # epoch 1 of the (0, 0) model, the only one still finite


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
    stacked = NetworkParams(np.stack([m.theta for m in models]), models[0].dims)
    objective, grads = loss_and_grads(stacked, x, yb, yu, H, lams[:, None], kind)
    assert objective.shape == (k,)
    for j, model in enumerate(models):
        e, g = loss_and_grads(model, x, yb, yu, H, lams[j], kind)
        assert np.float64(e).tobytes() == objective[j].tobytes()
        for n in ("w2", "b2", "w3", "b3"):
            assert np.array_equal(bits(getattr(g, n)), bits(getattr(grads, n)[j].reshape(getattr(model, n).shape))), n


def allocating_loss_and_grads(params, x, yb, yu, H, lam, kind):
    """The objective and gradient (w2, b2, w3, b3) in the folded layout, one fresh array per step: the oracle of
    the workspace.

    Layer 1 is [x | 1] times [w2 | b2]', so the b2 gradient comes out of the
    w2 product, and the b3 gradient is ones @ d3.
    """
    x1 = np.hstack([x, np.ones((len(x), 1))])
    w1 = np.concatenate([params.w2, np.swapaxes(params.b2, -1, -2)], axis=-1)
    z2 = activation(x1 @ np.swapaxes(w1, -1, -2), kind)
    u3 = z2 @ np.swapaxes(params.w3, -1, -2) + params.b3
    res_b = u3 - yb
    res_u = yu - u3 @ H.T
    upper = res_u * lam
    objective = 0.5 * (res_b * res_b).sum(axis=(-2, -1)) + 0.5 * (upper * upper).sum(axis=(-2, -1))
    d3 = res_b - (res_u * (lam * lam)) @ H
    d2 = (d3 @ params.w3) * (z2 * (1.0 - z2) if kind == "sigmoid" else z2 > 0)
    g1 = np.swapaxes(d2, -1, -2) @ x1
    grads = (g1[..., :-1], np.swapaxes(g1[..., -1:], -1, -2), np.swapaxes(d3, -1, -2) @ z2, np.ones((1, len(x))) @ d3)
    return objective, grads


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 5), rows=st.integers(1, 9), input_dim=st.integers(1, 6),
       hidden=st.integers(1, 9), n_upper=st.integers(0, 3), kind=st.sampled_from(["sigmoid", "relu"]),
       seed=st.integers(0, 2**32 - 1))
def test_loss_and_grads_equal_the_allocating_formula(k, rows, input_dim, hidden, n_upper, kind, seed):
    """The workspace gives the oracle's bits, |U| = 0 included."""
    rng = np.random.default_rng(seed)
    x, yb, yu = (rng.standard_normal(shape) for shape in ((rows, input_dim), (rows, 3), (rows, n_upper)))
    H = rng.standard_normal((n_upper, 3))
    lam = rng.uniform(0.0, 3.0, (k, 1, n_upper))
    dims = NetworkDims(input_dim, hidden, 3)
    stacked = NetworkParams(rng.standard_normal((k,) + NetworkParams.zeros(dims).theta.shape), dims)
    want_e, want_g = allocating_loss_and_grads(stacked, x, yb, yu, H, lam, kind)
    e, g = loss_and_grads(stacked, x, yb, yu, H, lam, kind)
    assert np.array_equal(bits(e), bits(want_e))
    for name, got, want in zip(("w2", "b2", "w3", "b3"), g, want_g):
        assert np.array_equal(bits(got), bits(want)), name


@pytest.mark.parametrize("kind, bias", [("sigmoid", True), ("relu", False)])
def test_watch_rows_leave_training_unchanged(kind, bias):
    """Training with a hook, whose rows ride along in every epoch, returns the bits of training without one.

    58 fitted and 40 watch rows of the 13-node preset: at these sizes one
    product over all 98 rows would round some fitted rows differently.
    """
    panel = standardize(generate_dataset("WeakC", seed=2).with_train_len(60))
    cfg = TrainConfig(eta=1e-5, max_epochs=30, activation=kind, bias=bias)
    hooked = train_bottom(panel, LAMBDAS[:3], [1, 2, 3], cfg, forecast_hook([]))
    for with_hook, plain in zip(hooked, train_bottom(panel, LAMBDAS[:3], [1, 2, 3], cfg)):
        assert_same_result(with_hook, plain)
        assert with_hook.epoch_eval.shape == (30, 1 + 40 * 9) and plain.epoch_eval is None


@pytest.mark.parametrize("kind", ["sigmoid", "relu"])
@pytest.mark.parametrize("rows", [1, 30, 68, 98])
def test_every_stack_of_up_to_70_published_size_models_equals_batches_of_one(rows, kind):
    """Stacks of the first K = 1..70 of 70 networks 18-36-9 (4 upper nodes, 30 watch rows) match batches of one.

    BLAS may choose its kernel by a product's shape, which the stack size
    and row count set; each model must still be rounded as if alone.
    """
    rng = np.random.default_rng(rows)
    H = structure_matrix(preset_hierarchy())
    x, yb, yu, watch = (rng.standard_normal(shape) for shape in ((rows, 18), (rows, 9), (rows, 4), (30, 18)))
    lams = rng.uniform(0.0, 3.0, (70, 4))
    cfg = TrainConfig(eta=1e-5 if kind == "sigmoid" else 1e-7, max_epochs=3, activation=kind)

    def fit(k, calls):
        params = [init_params(NetworkDims(18, 36, 9), seed) for seed in range(k)]
        return trainer._fit(x, yb, yu, H, lams[:k], params, cfg, forecast_hook(calls), watch)

    singles = [trainer._fit(x, yb, yu, H, lams[m:m + 1], [init_params(NetworkDims(18, 36, 9), m)], cfg,
                            forecast_hook([]), watch)[0] for m in range(70)]
    for k in range(1, 71):
        calls = []
        for got, want in zip(fit(k, calls), singles):
            assert_same_result(got, want)
            assert_rows_in_epoch_order(got)
            assert np.array_equal(bits(got.epoch_eval[:, 1:]), bits(want.epoch_eval[:, 1:]))
        assert all(n <= max(trainer.TRACE_ROWS, k) for n in calls) and sum(calls) == 3 * k


BLAS_SCRIPT = """
import hashlib, numpy as np
from htsreg.evaluate import _bottom_weights, make_epoch_hook
from htsreg.panel import standardize
from htsreg.synthgen import generate_dataset
from htsreg.trainer import TrainConfig, train_batch
panel = standardize(generate_dataset("NgtvC", seed=7))
cfg = TrainConfig(max_epochs=20)
bottom = train_batch(panel, *_bottom_weights(panel.tree, [(0.0, 2.1)] * 60), range(1, 61), cfg,
                     make_epoch_hook(panel))
bases = train_batch(panel, np.zeros((0, 13)), np.zeros((30, 0)), range(1, 31), cfg)
digest = hashlib.sha256()
for fit in bottom + bases:
    for a in (fit.params.theta,) + ((fit.epoch_eval,) if fit.epoch_eval is not None else ()):
        digest.update(np.ascontiguousarray(a).tobytes())
print([fit.params.w2.shape for fit in (bottom[0], bases[0])], len(bottom[0].epoch_eval), digest.hexdigest())
"""


def test_published_size_stacks_are_byte_identical_across_blas_threads():
    """The 60-network 18-36-9 stack with its 30 watch rows and the 30-network 26-52-13 stack, 20 epochs each."""
    src = str(Path(htsreg.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outs.append(subprocess.run([sys.executable, "-c", BLAS_SCRIPT], capture_output=True, text=True, check=True,
                                   env=env).stdout)
    assert outs[0].startswith("[(36, 18), (52, 26)] 20 ") and outs[0] == outs[1]


# ------------------------------------------------------------- divergence

# At this step size the (0, 0) model overflows at epoch 2, the others at epoch 1.
DIVERGING = TrainConfig(eta=1e150, max_epochs=50)  # trained from seed 1
DIVERGING_LAMBDAS = [(0.0, 0.0), (1.5, 1.5), (3.0, 3.0)]


def diverged_epoch(panel, lam):
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        train_bottom(panel, [lam], [1], DIVERGING)
    return err.value.epoch


@pytest.mark.parametrize("stack_limit", [trainer.STACK_LIMIT, 2, 1])
def test_batch_divergence_reports_lowest_index_model(tree, monkeypatch, stack_limit):
    """The error names the epoch a model-by-model run would report, not the first in time."""
    monkeypatch.setattr(trainer, "STACK_LIMIT", stack_limit)
    panel = std_panel(tree, seed=10)
    epochs = [diverged_epoch(panel, lam) for lam in DIVERGING_LAMBDAS]
    assert epochs == [2, 1, 1]
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
        train_bottom(panel, DIVERGING_LAMBDAS, [1] * 3, DIVERGING)
    assert err.value.epoch == epochs[0]


def test_sweep_divergence_exit_code(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text('{"panel": {"preset": "NgtvC", "seed": 7}, "trial_seeds": [1], "x_grid": [0, 2.1], '
                   '"train": {"eta": 1e160, "max_epochs": 50}}')
    with np.errstate(all="ignore"):
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 3


# ------------------------------------------------------------- kernel pieces

float64_bits = st.builds(lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
                         st.integers(0, 1), st.one_of(st.just(0), st.just(2047), st.integers(0, 2047)),
                         st.one_of(st.just(0), st.just(1), st.integers(0, 2**52 - 1)))


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


def sigmoid_ulps(u):
    """The sigmoid's error at u in units in the last place of a long-double evaluation."""
    exact = 1.0 / (1.0 + np.exp(-u.astype(np.longdouble)))
    return np.abs(activation(u, "sigmoid").astype(np.longdouble) - exact) / np.spacing(exact.astype(np.float64))


def test_sigmoid_is_within_3_ulp_of_long_double():
    """Near 0 and +/-1e-300, out to +/-709.7 and +/-745, and on 40 000 random inputs."""
    special = [0.0, 1e-300, 5e-324, 0.5, 1.0, 36.7, 700.0, 709.7, 745.0]
    rng = np.random.default_rng(0)
    grid = np.concatenate([special, np.negative(special), rng.standard_normal(20_000) * 30,
                           rng.uniform(-709.7, 709.7, 20_000)])
    assert sigmoid_ulps(grid).max() <= 3


def test_sigmoid_flushes_to_exact_0_and_1():
    """0 from u <= -709.79 and -inf, 1 from 745.2 and +inf, NaN from NaN, and no overflow escapes.

    exp(-u) overflows below u = -709.78 inside activation; the result is
    then exactly 0, where the true value is below 5.6e-309.
    """
    low = np.array([-709.79, -710.0, -745.0, -745.2, -800.0, -1e308, -np.inf])
    high = np.array([745.2, 800.0, 1e308, np.inf])
    with np.errstate(over="raise"):
        assert np.array_equal(bits(activation(low, "sigmoid")), np.zeros(len(low), dtype=np.int64))
        assert np.array_equal(activation(high, "sigmoid"), np.ones(len(high)))
        assert np.isnan(activation(np.array([np.nan, -np.nan]), "sigmoid")).all()
    assert (1.0 / (1.0 + np.exp(-low[:5].astype(np.longdouble))) < 5.6e-309).all()


def test_epoch_hook_matches_predict_bottom_formula(tree):
    """The stack hook's rows equal the per-model, per-epoch prediction formula bit for bit."""
    panel = std_panel(tree, seed=11)
    cfg = TrainConfig(eta=1e-3, max_epochs=40)
    hook = make_epoch_hook(panel)
    test = (panel.train_len, panel.n_time)
    actual = panel.values[:, panel.train_len:]

    def reference(params):
        coherent = aggregate_bottom(tree, predict(params, panel, cfg, *test))
        per_node = np.sqrt(np.mean((actual - coherent) ** 2, axis=1))
        return [per_node[0], per_node[1:3].mean(), per_node[3:].mean(), per_node.mean()]

    seen = []

    def recording(forecasts):
        seen.append(forecasts.copy())
        return hook(forecasts)

    lams, seeds = LAMBDAS[:3], [2, 3, 4]
    batch = train_bottom(panel, lams, seeds, cfg, recording)
    assert [b.epoch_eval.shape for b in batch] == [(40, 4)] * 3
    assert all(len(forecasts) <= trainer.TRACE_ROWS for forecasts in seen)
    # No model stops early, so the rows arrive epoch by epoch, each epoch's models in stack order.
    for row, forecast in enumerate(np.concatenate(seen)):
        epoch, k = row // 3 + 1, row % 3  # the weights after this epoch, from a run stopped there
        params = train_bottom(panel, [lams[k]], [seeds[k]], replace(cfg, max_epochs=epoch))[0].params
        assert np.array_equal(bits(forecast), bits(predict(params, panel, cfg, *test).T))
        assert np.array_equal(bits(batch[k].epoch_eval[epoch - 1]), bits(reference(params)))


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(htsreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, htsreg.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
