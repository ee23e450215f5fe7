"""Tests for metrics, trial summaries, epoch traces, sweeps, and the benchmark."""

from dataclasses import replace

import numpy as np
import pytest

from htsreg.evaluate import (
    MethodSpec,
    baseline_forecast_matrix,
    make_epoch_hook,
    node_report,
    reg_sweep,
    rmse,
    run_benchmark,
    summarize_trials,
)
from htsreg.hierarchy import aggregate_bottom, build_hierarchy
from htsreg.panel import SeriesPanel, standardize
from htsreg import trainer
from htsreg.trainer import RegWeights, TrainConfig, train_all_node_batch, train_batch

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}


@pytest.fixture
def tree():
    return build_hierarchy(SMALL_PARENTS)


@pytest.fixture
def panel(tree):
    rng = np.random.default_rng(0)
    bottoms = rng.standard_normal((4, 40)).cumsum(axis=1) * 0.2 + rng.standard_normal((4, 40))
    raw = SeriesPanel.from_values(tree, aggregate_bottom(tree, bottoms), train_len=28)
    return standardize(raw)


# ------------------------------------------------------------- rmse

def test_rmse_perfect_forecast_is_zero():
    y = np.arange(5.0)
    assert rmse(y, y) == 0.0


def test_rmse_constant_error():
    y = np.arange(5.0)
    assert rmse(y, y - 3.0) == pytest.approx(3.0)


def test_rmse_hand_value():
    """Errors (3, 4) over two points: sqrt(12.5)."""
    assert rmse(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(np.sqrt(12.5))


def test_rmse_rejects_empty():
    with pytest.raises(ValueError):
        rmse(np.array([]), np.array([]))


def test_rmse_translation_and_permutation_invariance():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(12)
    f = rng.standard_normal(12)
    assert rmse(y + 2.5, f + 2.5) == pytest.approx(rmse(y, f), rel=1e-12)
    perm = rng.permutation(12)
    assert rmse(y[perm], f[perm]) == pytest.approx(rmse(y, f), rel=1e-12)


# ------------------------------------------------------------- reports

def test_report_aggregates_are_means(tree):
    rng = np.random.default_rng(2)
    actual = rng.standard_normal((7, 10))
    forecast = rng.standard_normal((7, 10))
    rep = node_report(tree, actual, forecast, "demo")
    values = [rep.per_node[n] for n in tree.node_ids]
    assert list(rep.levels) == ["root", "mid", "bottom", "average"]
    assert rep.levels["root"] == rep.per_node[1]
    assert rep.levels["mid"] == pytest.approx(np.mean(values[1:3]), abs=1e-12)
    assert rep.levels["bottom"] == pytest.approx(np.mean(values[3:]), abs=1e-12)
    assert rep.levels["average"] == pytest.approx(np.mean(values), abs=1e-12)


def test_summary_of_identical_reports_has_zero_halfwidth(tree):
    rng = np.random.default_rng(3)
    actual = rng.standard_normal((7, 8))
    forecast = rng.standard_normal((7, 8))
    rep = node_report(tree, actual, forecast, "demo")
    summary = summarize_trials([rep, rep, rep])
    for mean, hw in summary.per_node.values():
        assert hw == pytest.approx(0.0, abs=1e-12)


def test_summary_two_trials_uses_student_t(tree):
    """Values 0 and 2: mean 1, half-width t(.975, 1) * sd / sqrt(2) = 12.706."""
    rep0 = node_report(tree, np.zeros((7, 4)), np.zeros((7, 4)), "demo")
    rep2 = node_report(tree, np.zeros((7, 4)), np.full((7, 4), 2.0), "demo")
    summary = summarize_trials([rep0, rep2])
    mean, hw = summary.per_node[1]
    assert mean == pytest.approx(1.0)
    assert hw == pytest.approx(12.7062, rel=1e-4)


def test_summary_halfwidth_scale_is_right(tree):
    """30 standard-normal trial values: half-width near 2.045 / sqrt(30)."""
    rng = np.random.default_rng(4)
    reps = [node_report(tree, np.zeros((7, 4)), np.full((7, 4), abs(v)), "demo")
            for v in rng.standard_normal(30)]
    _, hw = summarize_trials(reps).per_node[1]
    expected = 2.045 / np.sqrt(30)
    assert abs(hw - expected) / expected < 0.35


def test_summary_needs_two_reports(tree):
    rep = node_report(tree, np.zeros((7, 4)), np.zeros((7, 4)), "demo")
    with pytest.raises(ValueError, match="at least 2"):
        summarize_trials([rep])


# ------------------------------------------------------------- epoch traces

def test_epoch_trace_length_matches_epochs(tree, panel):
    cfg = TrainConfig(max_epochs=17, seed=1)
    result = train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], cfg,
                         hook=make_epoch_hook(panel, tree, cfg))[0]
    assert result.epoch_eval.shape == (result.epochs, 4)  # one column per LEVELS entry


def test_epoch_trace_zero_reg_equals_bottom_up_run(tree, panel):
    cfg = TrainConfig(max_epochs=12, seed=2)
    a = train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], cfg,
                    hook=make_epoch_hook(panel, tree, cfg))[0]
    b = train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], cfg,
                    hook=make_epoch_hook(panel, tree, cfg))[0]
    assert np.array_equal(a.epoch_eval, b.epoch_eval)


def test_epoch_trace_emitted_for_single_epoch(tree, panel):
    cfg = TrainConfig(max_epochs=1, seed=3)
    result = train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], cfg,
                         hook=make_epoch_hook(panel, tree, cfg))[0]
    assert len(result.epoch_eval) == 1


def test_epoch_trace_requires_hook(tree, panel):
    """Without a hook a run records no epoch evaluations."""
    result = train_batch(panel, tree, [RegWeights.build(tree, 0.0, 0.0)], TrainConfig(max_epochs=2, seed=4))[0]
    assert result.epochs == 2 and result.epoch_eval is None


# ------------------------------------------------------------- sweeps

def test_sweep_zero_point_is_exactly_zero(tree, panel):
    cfg = TrainConfig(max_epochs=6, seed=5)
    curves = reg_sweep(panel, tree, [0.0, 0.5], [1, 2], cfg)
    for mode in curves:
        for level in curves[mode]:
            assert curves[mode][level][0] == 0.0


def test_sweep_modes_agree_at_zero_and_single_trial_is_raw_diff(tree, panel):
    cfg = TrainConfig(max_epochs=6, seed=6)
    curves = reg_sweep(panel, tree, [0.0, 0.4], [7], cfg)
    for mode in ("(x,0)", "(0,x)", "(x,x)"):
        assert curves[mode]["average"][0] == 0.0
    # single trial: curves equal the raw per-seed differences of separate runs
    from dataclasses import replace

    from htsreg.trainer import forecast_timepoints, predict

    cfg7 = replace(cfg, seed=7)

    def average_rmse(lam):
        result = train_batch(panel, tree, [RegWeights.build(tree, *lam)], cfg7)[0]
        coherent = aggregate_bottom(tree, predict(result.params, panel.bottom_values, cfg7, forecast_timepoints(panel)))
        return float(np.sqrt(np.mean((panel.values[:, panel.train_len:] - coherent) ** 2, axis=1)).mean())

    assert curves["(x,0)"]["average"][1] == average_rmse((0.4, 0.0)) - average_rmse((0.0, 0.0))


def test_sweep_requires_zero_in_grid(tree, panel):
    with pytest.raises(ValueError, match="include 0"):
        reg_sweep(panel, tree, [0.5, 1.0], [1], TrainConfig(max_epochs=2))


# ------------------------------------------------------------- benchmark

def small_benchmark(panel, tree, seeds, jobs=1):
    methods = [
        MethodSpec(name="MA", grid=(1, 2, 3)),
        MethodSpec(name="ES", grid=(0.2, 0.8)),
        MethodSpec(name="NN+BU"),
        MethodSpec(name="NN+MinT"),
        MethodSpec(name="NN+SR", lambda1=0.0, lambdaM=1.0),
    ]
    return run_benchmark(panel, tree, methods, seeds, TrainConfig(max_epochs=8), jobs=jobs)


def test_benchmark_shapes_and_labels(tree, panel):
    result = small_benchmark(panel, tree, [1, 2])
    assert len(result.labels) == 5
    ma_label = result.labels[0]
    assert ma_label.startswith("MA(")
    assert result.summaries[ma_label] is None           # deterministic, no CI
    assert len(result.reports[ma_label]) == 1
    for label in result.labels[2:]:
        assert len(result.reports[label]) == 2          # one per seed
        assert result.summaries[label] is not None
    assert "NN+SR(0.0, 1.0)" in result.labels


def test_benchmark_deterministic_end_to_end(tree, panel):
    a = small_benchmark(panel, tree, [5])
    b = small_benchmark(panel, tree, [5])
    for label in a.labels:
        for ra, rb in zip(a.reports[label], b.reports[label]):
            assert ra.per_node == rb.per_node


def test_benchmark_zero_lambda_equals_bottom_up_rows(tree, panel):
    """NN+SR(0, 0) reproduces NN+BU per seed, value for value."""
    methods = [MethodSpec(name="NN+BU"), MethodSpec(name="NN+SR", lambda1=0.0, lambdaM=0.0)]
    result = run_benchmark(panel, tree, methods, [3, 4], TrainConfig(max_epochs=10))
    for rep_bu, rep_sr in zip(result.reports["NN+BU"], result.reports["NN+SR(0.0, 0.0)"]):
        assert rep_bu.per_node == rep_sr.per_node


def test_benchmark_parallel_matches_serial(tree, panel):
    a = small_benchmark(panel, tree, [1, 2])
    b = small_benchmark(panel, tree, [1, 2], jobs=2)
    for label in a.labels:
        for ra, rb in zip(a.reports[label], b.reports[label]):
            assert ra.per_node == rb.per_node


def test_benchmark_stacks_match_trial_by_trial_runs(tree, panel, monkeypatch):
    """Stacked training (several stacks, blocks of hook rows, shards) equals one single-model run per trial."""
    monkeypatch.setattr(trainer, "STACK_LIMIT", 4)
    monkeypatch.setattr(trainer, "TRACE_ROWS", 5)
    cfg = TrainConfig(eta=5e-4, eps=5e-3, max_epochs=150)
    seeds = [4, 1, 3]
    methods = [MethodSpec(name="NN+SR", lambda1=1.0, lambdaM=0.0), MethodSpec(name="NN+MinT"),
               MethodSpec(name="NN+BU"), MethodSpec(name="NN+SR", lambda1=0.0, lambdaM=3.0)]
    lams = {"NN+SR(1.0, 0.0)": (1.0, 0.0), "NN+BU": (0.0, 0.0), "NN+SR(0.0, 3.0)": (0.0, 3.0)}
    for jobs in (1, 2):
        result = run_benchmark(panel, tree, methods, seeds, cfg, jobs=jobs)
        assert result.labels == ["NN+SR(1.0, 0.0)", "NN+MinT", "NN+BU", "NN+SR(0.0, 3.0)"]
        for label in result.labels:
            assert [rep.params["seed"] for rep in result.reports[label]] == seeds
            for seed, fit in result.fits[label].items():
                one = replace(cfg, seed=seed)
                if label == "NN+MinT":
                    alone = train_all_node_batch(panel, one, [one.seed])[0]
                    assert fit.epoch_eval is None
                else:
                    alone = train_batch(panel, tree, [RegWeights.build(tree, *lams[label])], one,
                                        hook=make_epoch_hook(panel, tree, one))[0]
                    assert np.array_equal(fit.epoch_eval, alone.epoch_eval)
                assert (fit.epochs, fit.reason) == (alone.epochs, alone.reason)
                assert np.array_equal(fit.objective, alone.objective)
                assert all(np.array_equal(a, b) for a, b in zip(fit.params, alone.params))
    assert len({fit.epochs for fits in result.fits.values() for fit in fits.values()}) > 2


def test_benchmark_rejects_duplicate_seeds(tree, panel):
    with pytest.raises(ValueError, match="distinct"):
        run_benchmark(panel, tree, [MethodSpec(name="NN+BU")], [1, 1], TrainConfig(max_epochs=2))


def test_baseline_forecast_matrix_alignment(tree, panel):
    """Baseline test forecasts line up with per-row forecast vectors."""
    from htsreg.baselines import BaselineChoice, ma_forecast

    mat = baseline_forecast_matrix(panel, BaselineChoice("MA", 2))
    row0 = ma_forecast(panel.values[0], 2)
    assert np.array_equal(mat[0], row0[panel.train_len: panel.n_time])
    assert mat.shape == (7, panel.test_len)
