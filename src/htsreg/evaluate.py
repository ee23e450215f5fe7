"""RMSE metrics, trial aggregation, epoch traces, sweeps, and the benchmark runner."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.special import stdtrit

from .baselines import BaselineChoice, es_forecast, ma_forecast, select_param
from .hierarchy import HierarchySpec, aggregate_bottom
from .neuralnet import NetworkParams, forward
from .panel import Scaler, SeriesPanel, lagged_design
from .reconcile import estimate_w_sample, mint_reconcile
from .trainer import (
    DEFAULT_LAMBDA_GRID,
    RegWeights,
    TrainConfig,
    forecast_timepoints,
    predict_all_nodes,
    predict_bottom,
    train,
    train_all_node_base,
    train_batch,
    training_timepoints,
    tune_lambda,
)

LEVELS = ("root", "mid", "bottom", "average")


def rmse(actual: np.ndarray, forecast: np.ndarray) -> float:
    """Root-mean-squared error over a test period."""
    a = np.asarray(actual, dtype=np.float64)
    f = np.asarray(forecast, dtype=np.float64)
    if a.shape != f.shape or a.ndim != 1 or a.shape[0] < 1:
        raise ValueError(f"actual {a.shape} and forecast {f.shape} must be equal-length nonempty rows")
    err = a - f
    return float(np.sqrt(np.mean(err * err)))


@dataclass(frozen=True)
class EvalReport:
    """Per-node RMSEs of one method run plus level aggregates."""

    method: str
    params: dict
    per_node: dict[int, float]
    root: float
    mid_mean: float
    bottom_mean: float
    all_mean: float


def node_report(h: HierarchySpec, actual: np.ndarray, forecast: np.ndarray,
                method: str, params: dict | None = None,
                scaler: Scaler | None = None) -> EvalReport:
    """Score |N| x T forecast rows against actuals, optionally on the raw scale."""
    a = np.asarray(actual, dtype=np.float64)
    f = np.asarray(forecast, dtype=np.float64)
    if scaler is not None:
        a = scaler.inverse_values(a)
        f = scaler.inverse_values(f)
    per_node = {node: rmse(a[i], f[i]) for i, node in enumerate(h.node_ids)}
    mids = [per_node[m] for m in h.mid_ids]
    bottoms = [per_node[b] for b in h.bottom_ids]
    return EvalReport(
        method=method,
        params=dict(params or {}),
        per_node=per_node,
        root=per_node[h.root],
        mid_mean=float(np.mean(mids)),
        bottom_mean=float(np.mean(bottoms)),
        all_mean=float(np.mean(list(per_node.values()))),
    )


@dataclass(frozen=True)
class TrialSummary:
    """Mean and 95% Student-t half-width per node and per level aggregate."""

    n_trials: int
    per_node: dict[int, tuple[float, float]]
    levels: dict[str, tuple[float, float]]


def _mean_halfwidth(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    n = arr.shape[0]
    hw = float(stdtrit(n - 1, 0.975) * arr.std(ddof=1) / np.sqrt(n))
    return float(arr.mean()), hw


def summarize_trials(reports: list[EvalReport]) -> TrialSummary:
    """Aggregate repeated-trial reports into mean +/- 95% CI half-widths."""
    if len(reports) < 2:
        raise ValueError("need at least 2 trial reports to summarize")
    nodes = list(reports[0].per_node)
    per_node = {n: _mean_halfwidth([r.per_node[n] for r in reports]) for n in nodes}
    levels = {
        "root": _mean_halfwidth([r.root for r in reports]),
        "mid": _mean_halfwidth([r.mid_mean for r in reports]),
        "bottom": _mean_halfwidth([r.bottom_mean for r in reports]),
        "average": _mean_halfwidth([r.all_mean for r in reports]),
    }
    return TrialSummary(n_trials=len(reports), per_node=per_node, levels=levels)


def _level_rmses(h: HierarchySpec, actual: np.ndarray, forecast: np.ndarray) -> dict[str, float]:
    per_node = np.sqrt(np.mean((actual - forecast) ** 2, axis=1))
    n_mid = len(h.mid_ids)
    return {
        "root": float(per_node[0]),
        "mid": float(per_node[1: 1 + n_mid].mean()),
        "bottom": float(per_node[1 + n_mid:].mean()),
        "average": float(per_node.mean()),
    }


def make_epoch_hook(panel: SeriesPanel, h: HierarchySpec, config: TrainConfig):
    """Hook recording per-level test RMSE of bottom-up forecasts after each epoch."""
    x = lagged_design(panel.bottom_values, config.lag, forecast_timepoints(panel))
    actual = panel.values[:, panel.train_len:]

    def hook(epoch: int, params: NetworkParams) -> dict[str, float]:
        u3 = forward(params, x, config.activation)[1]
        return _level_rmses(h, actual, aggregate_bottom(h, u3.T))

    return hook


SWEEP_MODES = ("(x,0)", "(0,x)", "(x,x)")


def reg_sweep(panel: SeriesPanel, h: HierarchySpec, x_grid: tuple | list,
              seeds: list[int], config: TrainConfig,
              modes: tuple[str, ...] = SWEEP_MODES) -> dict[str, dict[str, np.ndarray]]:
    """Relative test RMSE versus the unregularized run, trial-averaged.

    For each seed the RMSE of the (0, 0) run is subtracted from every grid
    point, so a negative value means that regularization mode helped at
    that strength. One curve per mode per level.
    """
    xs = sorted(float(x) for x in x_grid)
    if 0.0 not in xs:
        raise ValueError("x_grid must include 0")
    for mode in modes:
        if mode not in SWEEP_MODES:
            raise ValueError(f"unknown sweep mode {mode!r}; choose from {SWEEP_MODES}")

    points = [(mode, x_idx, {"(x,0)": (x, 0.0), "(0,x)": (0.0, x), "(x,x)": (x, x)}[mode])
              for mode in modes for x_idx, x in enumerate(xs) if x != 0.0]
    regs = [RegWeights.build(h, 0.0, 0.0)] + [RegWeights.build(h, *lam) for *_, lam in points]
    tps, actual = forecast_timepoints(panel), panel.values[:, panel.train_len:]
    diffs = {mode: {lvl: np.zeros((len(seeds), len(xs))) for lvl in LEVELS} for mode in modes}
    for s_idx, seed in enumerate(seeds):
        # One batch per seed: the (0, 0) run and every grid point share the design and init.
        cfg = replace(config, seed=seed)
        base, *rest = [_level_rmses(h, actual, aggregate_bottom(h, predict_bottom(r.params, panel, cfg, tps)))
                       for r in train_batch(panel, h, regs, cfg)]
        for (mode, x_idx, _), point in zip(points, rest):
            for lvl in LEVELS:  # x = 0 stays exactly zero: no self-subtraction
                diffs[mode][lvl][s_idx, x_idx] = point[lvl] - base[lvl]
    return {mode: {lvl: diffs[mode][lvl].mean(axis=0) for lvl in LEVELS} for mode in modes}


@dataclass(frozen=True)
class MethodSpec:
    """One column of the benchmark table."""

    name: str  # "MA" | "ES" | "NN+BU" | "NN+MinT" | "NN+SR"
    grid: tuple | None = None
    lambda_root: float | None = None
    lambda_mid: float | None = None
    tune: bool = False
    tune_grid_root: tuple | None = None
    tune_grid_mid: tuple | None = None


@dataclass
class BenchmarkResult:
    labels: list[str]
    seeds: list[int]
    reports: dict[str, list[EvalReport]]
    summaries: dict[str, TrialSummary | None]
    traces: dict[str, dict[int, list[dict[str, float]]]] = field(default_factory=dict)
    checkpoints: dict[str, dict[int, NetworkParams]] = field(default_factory=dict)


def _fmt_lambda(v: float) -> str:
    return f"{v:.1f}" if abs(v * 10 - round(v * 10)) < 1e-9 else f"{v:g}"


def baseline_forecast_matrix(panel: SeriesPanel, choice: BaselineChoice) -> np.ndarray:
    """Per-node one-step baseline forecasts over the test period (|N| x test_len)."""
    rows = []
    for row in panel.values:
        fc = ma_forecast(row, int(choice.param)) if choice.method == "MA" else es_forecast(row, choice.param)
        rows.append(fc[panel.train_len: panel.n_time])
    return np.vstack(rows)


def _nn_trial(panel: SeriesPanel, h: HierarchySpec, config: TrainConfig, label: str,
              kind: str, lam: tuple[float, float], collect_trace: bool,
              seed: int) -> tuple[EvalReport, list | None, NetworkParams]:
    cfg = replace(config, seed=seed)
    actual = panel.values[:, panel.train_len:]
    if kind == "mint":
        result = train_all_node_base(panel, cfg)
        fit_tps = training_timepoints(panel, cfg.lag)
        base_fit = predict_all_nodes(result.params, panel, cfg, fit_tps)
        w = estimate_w_sample(base_fit, panel.values[:, [t - 1 for t in fit_tps]])
        base_test = predict_all_nodes(result.params, panel, cfg, forecast_timepoints(panel))
        coherent = mint_reconcile(h, base_test, w)
        trace = None
    else:
        hook = make_epoch_hook(panel, h, cfg) if collect_trace else None
        result = train(panel, h, RegWeights.build(h, *lam), cfg, epoch_hook=hook)
        coherent = aggregate_bottom(h, predict_bottom(result.params, panel, cfg, forecast_timepoints(panel)))
        trace = result.epoch_eval if collect_trace else None
    report = node_report(h, actual, coherent, label, params={"seed": seed})
    return report, trace, result.params


def run_benchmark(panel: SeriesPanel, h: HierarchySpec, methods: list[MethodSpec],
                  seeds: list[int], config: TrainConfig,
                  collect_traces: bool = True, jobs: int = 1) -> BenchmarkResult:
    """Evaluate every requested method on the panel's test period.

    Baselines are deterministic and produce a single report; network
    methods produce one report per seed plus a trial summary. Fully
    deterministic given the seed list; ``jobs`` parallelizes across
    network trials only.
    """
    if len(set(seeds)) != len(seeds):
        raise ValueError("trial seeds must be distinct")
    result = BenchmarkResult(labels=[], seeds=list(seeds), reports={}, summaries={})
    actual = panel.values[:, panel.train_len:]

    nn_tasks: list[tuple[str, str, tuple[float, float], bool]] = []
    for spec in methods:
        if spec.name in ("MA", "ES"):
            choice = select_param(panel, spec.name, spec.grid)
            report = node_report(h, actual, baseline_forecast_matrix(panel, choice),
                                 choice.label, params={"param": choice.param})
            result.labels.append(choice.label)
            result.reports[choice.label] = [report]
            result.summaries[choice.label] = None
        elif spec.name == "NN+BU":
            nn_tasks.append(("NN+BU", "sr", (0.0, 0.0), collect_traces))
        elif spec.name == "NN+MinT":
            nn_tasks.append(("NN+MinT", "mint", (0.0, 0.0), False))
        elif spec.name == "NN+SR":
            if spec.tune:
                lam = tune_lambda(
                    panel, h,
                    spec.tune_grid_root or DEFAULT_LAMBDA_GRID,
                    spec.tune_grid_mid or DEFAULT_LAMBDA_GRID,
                    replace(config, seed=seeds[0]),
                )
            else:
                if spec.lambda_root is None or spec.lambda_mid is None:
                    raise ValueError("NN+SR needs lambda_root and lambda_mid (or tune=True)")
                lam = (float(spec.lambda_root), float(spec.lambda_mid))
            label = f"NN+SR({_fmt_lambda(lam[0])}, {_fmt_lambda(lam[1])})"
            nn_tasks.append((label, "sr", lam, collect_traces))
        else:
            raise ValueError(f"unknown method {spec.name!r}")

    trial_args = [(label, kind, lam, trace, seed)
                  for label, kind, lam, trace in nn_tasks for seed in seeds]
    if jobs > 1 and trial_args:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            outcomes = list(ex.map(
                partial(_trial_entry, panel, h, config),
                trial_args,
            ))
    else:
        outcomes = [_trial_entry(panel, h, config, args) for args in trial_args]

    for (label, kind, lam, trace_on, seed), (report, trace, params) in zip(trial_args, outcomes):
        if label not in result.reports:
            result.labels.append(label)
            result.reports[label] = []
            result.traces[label] = {}
            result.checkpoints[label] = {}
        result.reports[label].append(report)
        result.checkpoints[label][seed] = params
        if trace is not None:
            result.traces[label][seed] = trace
    for label, *_ in nn_tasks:
        result.summaries[label] = (
            summarize_trials(result.reports[label]) if len(result.reports[label]) >= 2 else None
        )
    return result


def _trial_entry(panel: SeriesPanel, h: HierarchySpec, config: TrainConfig,
                 args: tuple[str, str, tuple[float, float], bool, int]):
    label, kind, lam, collect_trace, seed = args
    return _nn_trial(panel, h, config, label, kind, lam, collect_trace, seed)
