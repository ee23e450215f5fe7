"""Tests for metrics, trial summaries, epoch traces, sweeps, and the benchmark."""

import numpy as np
import pytest

from htsreg.evaluate import (
    MethodSpec,
    _bottom_weights,
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
from htsreg.trainer import TrainConfig, train_batch

SMALL_PARENTS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}


@pytest.fixture
def tree():
    return build_hierarchy(SMALL_PARENTS)


def train_bottom(panel, lam, seed, cfg, hook=None):
    """The bottom network of weights lam = (root, mid) trained from seed."""
    return train_batch(panel, *_bottom_weights(panel.tree, [lam]), [seed], cfg, hook)[0]


@pytest.fixture
def panel(tree):
    rng = np.random.default_rng(0)
    bottoms = rng.standard_normal((4, 40)).cumsum(axis=1) * 0.2 + rng.standard_normal((4, 40))
    raw = SeriesPanel(tree, aggregate_bottom(tree, bottoms), train_len=28)
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

def test_epoch_trace_length_matches_epochs(panel):
    cfg = TrainConfig(max_epochs=17)
    result = train_bottom(panel, (0.0, 0.0), 1, cfg, make_epoch_hook(panel))
    assert result.epoch_eval.shape == (result.epochs, 4)  # one column per LEVELS entry


def test_epoch_trace_zero_reg_equals_bottom_up_run(panel):
    cfg = TrainConfig(max_epochs=12)
    a = train_bottom(panel, (0.0, 0.0), 2, cfg, make_epoch_hook(panel))
    b = train_bottom(panel, (0.0, 0.0), 2, cfg, make_epoch_hook(panel))
    assert np.array_equal(a.epoch_eval, b.epoch_eval)


def test_epoch_trace_emitted_for_single_epoch(panel):
    cfg = TrainConfig(max_epochs=1)
    result = train_bottom(panel, (0.0, 0.0), 3, cfg, make_epoch_hook(panel))
    assert len(result.epoch_eval) == 1


def test_epoch_trace_requires_hook(panel):
    """Without a hook a run records no epoch evaluations."""
    result = train_bottom(panel, (0.0, 0.0), 4, TrainConfig(max_epochs=2))
    assert result.epochs == 2 and result.epoch_eval is None


# ------------------------------------------------------------- sweeps

def test_sweep_zero_point_is_exactly_zero(panel):
    cfg = TrainConfig(max_epochs=6)
    curves = reg_sweep(panel, [0.0, 0.5], [1, 2], cfg)
    for mode in curves:
        for level in curves[mode]:
            assert curves[mode][level][0] == 0.0


def test_sweep_modes_agree_at_zero_and_single_trial_is_raw_diff(tree, panel):
    cfg = TrainConfig(max_epochs=6)
    curves = reg_sweep(panel, [0.0, 0.4], [7], cfg)
    for mode in ("(x,0)", "(0,x)", "(x,x)"):
        assert curves[mode]["average"][0] == 0.0
    # single trial: curves equal the raw per-seed differences of separate runs
    from htsreg.trainer import predict

    def average_rmse(lam):
        result = train_bottom(panel, lam, 7, cfg)
        coherent = aggregate_bottom(tree, predict(result.params, panel, cfg, panel.train_len, panel.n_time))
        return float(np.sqrt(np.mean((panel.values[:, panel.train_len:] - coherent) ** 2, axis=1)).mean())

    assert curves["(x,0)"]["average"][1] == average_rmse((0.4, 0.0)) - average_rmse((0.0, 0.0))


def test_sweep_requires_zero_in_grid(panel):
    with pytest.raises(ValueError, match="include 0"):
        reg_sweep(panel, [0.5, 1.0], [1], TrainConfig(max_epochs=2))


def test_sweep_rejects_a_negative_grid_value(panel, monkeypatch):
    """The sweep's own check names x_grid, before any network trains."""
    monkeypatch.setattr("htsreg.evaluate.train_batch", None)
    with pytest.raises(ValueError, match=r"x_grid values must not be negative, got \[-1.0, 0.0\]"):
        reg_sweep(panel, [-1.0, 0.0], [1], TrainConfig(max_epochs=2))


# ------------------------------------------------------------- benchmark

def small_benchmark(panel, seeds, jobs=1):
    methods = [
        MethodSpec(name="NN+BU"),
        MethodSpec(name="MA", grid=(1, 2, 3)),
        MethodSpec(name="ES", grid=(0.2, 0.8)),
        MethodSpec(name="NN+MinT"),
        MethodSpec(name="NN+SR", lambda1=0.0, lambdaM=1.0),
    ]
    return run_benchmark(panel, methods, seeds, TrainConfig(max_epochs=8), jobs=jobs)


def test_benchmark_shapes_and_labels(tree, panel):
    """The baseline columns come first, then the network columns in config order, each in seed-list order."""
    result = small_benchmark(panel, [2, 1])
    labels = list(result)
    assert len(labels) == 5
    assert labels[0].startswith("MA(") and labels[1].startswith("ES(")
    assert labels[2:] == ["NN+BU", "NN+MinT", "NN+SR(0.0, 1.0)"]
    for label in labels[:2]:  # deterministic: one report, no fit
        (report,) = result[label]
        assert report.fit is None and report.extra == {} and "seed" not in report.params
    for label in labels[2:]:
        assert [rep.params["seed"] for rep in result[label]] == [2, 1]  # one per seed
        assert all(rep.method == label and rep.fit is not None for rep in result[label])
        assert all(rep.extra == {} for rep in result[label]) == (label != "NN+MinT")
    for rep in result["NN+MinT"]:  # MinT's first ridge rung, on a well-conditioned W
        assert set(rep.extra) == {"gamma", "w_condition"}
        assert rep.extra["gamma"] == 1e-8 and 1 <= rep.extra["w_condition"] < 1e8


def test_benchmark_deterministic_end_to_end(tree, panel):
    a = small_benchmark(panel, [5])
    b = small_benchmark(panel, [5])
    assert list(a) == list(b)
    for label in a:
        for ra, rb in zip(a[label], b[label], strict=True):
            assert ra.per_node == rb.per_node


def test_benchmark_zero_lambda_equals_bottom_up_rows(panel):
    """NN+SR(0, 0) reproduces NN+BU per seed, value for value."""
    methods = [MethodSpec(name="NN+BU"), MethodSpec(name="NN+SR", lambda1=0.0, lambdaM=0.0)]
    result = run_benchmark(panel, methods, [3, 4], TrainConfig(max_epochs=10))
    for rep_bu, rep_sr in zip(result["NN+BU"], result["NN+SR(0.0, 0.0)"], strict=True):
        assert rep_bu.per_node == rep_sr.per_node


def test_benchmark_parallel_matches_serial(tree, panel):
    """Even and uneven seed ranges, and more jobs than seeds, give the reports of one process."""
    for seeds, jobs in (([1, 2], 2), ([4, 1, 5], 4), ([4, 1, 5, 2, 3], 2), ([4, 1, 5, 2, 3], 3)):
        a = small_benchmark(panel, seeds)
        b = small_benchmark(panel, seeds, jobs=jobs)
        assert list(a) == list(b)
        for label in a:
            for ra, rb in zip(a[label], b[label], strict=True):
                assert (ra.params, ra.per_node, ra.extra) == (rb.params, rb.per_node, rb.extra)
                if ra.fit is not None:
                    assert ra.fit.epochs == rb.fit.epochs
                    assert np.array_equal(ra.fit.epoch_eval, rb.fit.epoch_eval)


def test_benchmark_stacks_match_trial_by_trial_runs(panel, monkeypatch):
    """Stacked training (several stacks, a small trace buffer, seed ranges) equals one single-model run per trial."""
    monkeypatch.setattr(trainer, "STACK_LIMIT", 4)
    monkeypatch.setattr(trainer, "TRACE_ROWS", 5)
    cfg = TrainConfig(eta=5e-4, eps=5e-3, max_epochs=150)
    seeds = [4, 1, 3]
    methods = [MethodSpec(name="NN+SR", lambda1=1.0, lambdaM=0.0), MethodSpec(name="NN+MinT"),
               MethodSpec(name="NN+BU"), MethodSpec(name="NN+SR", lambda1=0.0, lambdaM=3.0)]
    lams = {"NN+SR(1.0, 0.0)": (1.0, 0.0), "NN+BU": (0.0, 0.0), "NN+SR(0.0, 3.0)": (0.0, 3.0)}
    for jobs in (1, 2):
        result = run_benchmark(panel, methods, seeds, cfg, jobs=jobs)
        assert list(result) == ["NN+SR(1.0, 0.0)", "NN+MinT", "NN+BU", "NN+SR(0.0, 3.0)"]
        for label, reports in result.items():
            assert [rep.params["seed"] for rep in reports] == seeds
            for rep in reports:
                seed, fit = rep.params["seed"], rep.fit
                if label == "NN+MinT":
                    alone = train_batch(panel, np.zeros((0, 7)), np.zeros((1, 0)), [seed], cfg)[0]
                    assert fit.epoch_eval is None
                else:
                    alone = train_bottom(panel, lams[label], seed, cfg, make_epoch_hook(panel))
                    assert np.array_equal(fit.epoch_eval, alone.epoch_eval)
                assert (fit.epochs, fit.reason) == (alone.epochs, alone.reason)
                assert all(np.array_equal(a, b) for a, b in zip(fit.params, alone.params))
    assert len({rep.fit.epochs for reports in result.values() for rep in reports}) > 2


def test_benchmark_rejects_duplicate_seeds(panel):
    with pytest.raises(ValueError, match="distinct"):
        run_benchmark(panel, [MethodSpec(name="NN+BU")], [1, 1], TrainConfig(max_epochs=2))


def test_baseline_forecast_matrix_alignment(tree, panel):
    """A baseline's report scores the test slice of each row's forecast vector."""
    from htsreg.baselines import ma_forecast

    result = run_benchmark(panel, [MethodSpec(name="MA", grid=[2])], [1], TrainConfig(max_epochs=1))
    (report,) = result["MA(2)"]
    t, n = panel.train_len, panel.n_time
    for node, row in zip(tree.node_ids, panel.values):
        assert report.per_node[node] == float(rmse(row[t:], ma_forecast(row, 2)[t:n]))
