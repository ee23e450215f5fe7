"""Per-node and per-level reports, trial aggregation, epoch traces, sweeps, and the benchmark runner."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product

import numpy as np

from .baselines import BaselineChoice, select_param
from .hierarchy import LEVELS, HierarchySpec, aggregate_bottom, level_means, rmse
from .panel import SeriesPanel, lagged_design
from .reconcile import estimate_w_sample, mint_reconcile
from .trainer import (
    RegWeights,
    TrainConfig,
    TrainingDiverged,
    TrainResult,
    forecast_timepoints,
    forward,
    predict,
    train_all_node_batch,
    train_batch,
    training_timepoints,
)

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(31))

@dataclass(frozen=True)
class EvalReport:
    """Per-node RMSEs of one method run plus their level means, keyed by ``LEVELS``."""

    method: str
    params: dict
    per_node: dict[int, float]
    levels: dict[str, float]


def node_report(h: HierarchySpec, actual: np.ndarray, forecast: np.ndarray,
                method: str, params: dict | None = None) -> EvalReport:
    """Score |N| x T forecast rows against actuals."""
    per_node = rmse(actual, forecast)
    return EvalReport(method=method, params=dict(params or {}), per_node=dict(zip(h.node_ids, per_node.tolist())),
                      levels=dict(zip(LEVELS, level_means(h, per_node).tolist())))


@dataclass(frozen=True)
class TrialSummary:
    """Mean and 95% Student-t half-width per node and per level aggregate."""

    n_trials: int
    per_node: dict[int, tuple[float, float]]
    levels: dict[str, tuple[float, float]]


def _mean_halfwidth(values: list[float]) -> tuple[float, float]:
    from scipy.special import stdtrit  # loaded on first use: it takes longer to import than all of htsreg

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
    levels = {lvl: _mean_halfwidth([r.levels[lvl] for r in reports]) for lvl in LEVELS}
    return TrialSummary(n_trials=len(reports), per_node=per_node, levels=levels)


def make_epoch_hook(panel: SeriesPanel, h: HierarchySpec, config: TrainConfig):
    """Stack hook for training: per-level test RMSE of bottom-up forecasts.

    ``hook.x`` holds the lagged inputs of the test period. Training forwards
    them with its own rows each epoch (see ``trainer._fit``) and calls
    ``hook(first_epoch, forecasts)`` with their bottom forecasts, shaped
    (epochs, models, test_len, |B|). The hook returns their level means,
    shaped (epochs, models, 4) in :data:`LEVELS` order.
    """
    actual = panel.values[:, panel.train_len:]

    def hook(first_epoch: int, forecasts: np.ndarray) -> np.ndarray:
        return level_means(h, rmse(actual, aggregate_bottom(h, np.swapaxes(forecasts, -1, -2))))

    hook.x = lagged_design(panel.bottom_values, config.lag, forecast_timepoints(panel))
    return hook


def _held_out_levels(panel: SeriesPanel, h: HierarchySpec, regs: list[RegWeights], config: TrainConfig,
                     seeds: list[int] | None = None) -> np.ndarray:
    """Test RMSEs per level, (K, 4), of a network per weight set trained as one batch, scored by the epoch hook."""
    hook = make_epoch_hook(panel, h, config)
    fits = train_batch(panel, h, regs, config, seeds=seeds)
    return hook(1, np.stack([forward(fit.params, hook.x, config.activation)[1] for fit in fits])[None])[0]


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
    if len(set(xs)) != len(xs):
        raise ValueError(f"x_grid values must not repeat, got {list(x_grid)!r}")
    if not modes or any(mode not in SWEEP_MODES for mode in modes):
        raise ValueError(f"modes must be a nonempty list of sweep modes {list(SWEEP_MODES)}, got {list(modes)!r}")
    if len(set(modes)) != len(modes):
        raise ValueError(f"modes must not repeat, got {list(modes)!r}")

    points = [(mode, x_idx, {"(x,0)": (x, 0.0), "(0,x)": (0.0, x), "(x,x)": (x, x)}[mode])
              for mode in modes for x_idx, x in enumerate(xs) if x != 0.0]
    regs = [RegWeights.build(h, 0.0, 0.0)] + [RegWeights.build(h, *lam) for *_, lam in points]
    # Seed-major: the (0, 0) run and every grid point of a seed share its initialization.
    scores = _held_out_levels(panel, h, regs * len(seeds), config, seeds=[s for s in seeds for _ in regs])
    scores = scores.reshape(len(seeds), len(regs), len(LEVELS))
    rel = scores[:, 1:] - scores[:, :1]  # x = 0 stays exactly zero: no self-subtraction
    diffs = {mode: {lvl: np.zeros((len(seeds), len(xs))) for lvl in LEVELS} for mode in modes}
    for p, (mode, x_idx, _) in enumerate(points):
        for j, lvl in enumerate(LEVELS):
            diffs[mode][lvl][:, x_idx] = rel[:, p, j]
    return {mode: {lvl: diffs[mode][lvl].mean(axis=0) for lvl in LEVELS} for mode in modes}


def tune_lambda(panel: SeriesPanel, h: HierarchySpec,
                grid_root: tuple | list = DEFAULT_LAMBDA_GRID,
                grid_mid: tuple | list = DEFAULT_LAMBDA_GRID,
                config: TrainConfig = TrainConfig()) -> tuple[float, float]:
    """Hold-out selection of (lambda_root, lambda_mid).

    The first 75% of the training period fits the model, the rest scores
    coherent bottom-up forecasts by average all-node RMSE. Every grid point
    is fitted in one batch from the config seed. Ties break toward smaller
    lambda_root + lambda_mid, then smaller lambda_root.
    """
    if not grid_root or not grid_mid:
        raise ValueError("lambda grids must be nonempty")
    fit_len = int(0.75 * panel.train_len)
    if fit_len <= config.lag or fit_len >= panel.train_len:
        raise ValueError(f"training period of {panel.train_len} timepoints cannot be split for hold-out validation")
    grid = list(product(sorted(grid_root), sorted(grid_mid)))
    # A panel whose test period is exactly the validation window.
    val = SeriesPanel(panel.node_ids, panel.values[:, :panel.train_len], fit_len, panel.n_bottom)
    scores = _held_out_levels(val, h, [RegWeights.build(h, *lam) for lam in grid], config)
    best = min((float(score), l_root + l_mid, l_root, l_mid)
               for (l_root, l_mid), score in zip(grid, scores[:, LEVELS.index("average")]))
    return best[2], best[3]


METHOD_NAMES = ("MA", "ES", "NN+BU", "NN+MinT", "NN+SR")


@dataclass(frozen=True)
class MethodSpec:
    """One column of the benchmark table, with the fields of a run config's ``methods`` entry."""

    name: str
    grid: tuple | list | None = None
    lambda1: float | None = None
    lambdaM: float | None = None
    tune: bool = False
    tune_grid1: tuple | list = DEFAULT_LAMBDA_GRID
    tune_gridM: tuple | list = DEFAULT_LAMBDA_GRID

    def __post_init__(self) -> None:
        if self.name not in METHOD_NAMES:
            raise ValueError(f"unknown method {self.name!r}; choose from {METHOD_NAMES}")
        if self.name == "NN+SR" and not self.tune and (self.lambda1 is None or self.lambdaM is None):
            raise ValueError("NN+SR needs lambda1 and lambdaM (or tune=true)")
        if self.tune and not (self.tune_grid1 and self.tune_gridM):
            raise ValueError("tune_grid1 and tune_gridM must be nonempty")
        if self.name in ("MA", "ES"):
            for param in self.grid or ():
                BaselineChoice(self.name, param)  # raises on a window below 1 or an alpha outside [0, 1]
        for key, values in (("lambda1", [self.lambda1]), ("lambdaM", [self.lambdaM]),
                            ("tune_grid1", self.tune_grid1), ("tune_gridM", self.tune_gridM)):
            if any(v is not None and v < 0 for v in values):
                raise ValueError(f"{key} must not be negative, got {getattr(self, key)!r}")
        for key in ("grid", "tune_grid1", "tune_gridM"):
            values = getattr(self, key)
            if values is not None and len({float(v) for v in values}) != len(values):  # 1 and 1.0 repeat
                raise ValueError(f"{key} values must not repeat, got {list(values)!r}")


@dataclass
class BenchmarkResult:
    labels: list[str]
    seeds: list[int]
    reports: dict[str, list[EvalReport]]
    summaries: dict[str, TrialSummary | None]
    # Network trials by label and seed: parameters, stop and epoch trace ((epochs, 4) or None).
    fits: dict[str, dict[int, TrainResult]] = field(default_factory=dict)


def _sr_label(lam: tuple[float, float]) -> str:
    """``NN+SR(l1, lM)``: each weight with one decimal where that is exact, else in ``%g`` form."""
    return "NN+SR({}, {})".format(*(f"{v:.1f}" if abs(v * 10 - round(v * 10)) < 1e-9 else f"{v:g}" for v in lam))


def _check_columns(columns: list[str]) -> None:
    """Two methods that fill the same table column would merge their trials, fits and checkpoints."""
    first: dict[str, int] = {}
    for i, column in enumerate(columns):
        if column in first:
            raise ValueError(f"methods[{first[column]}] and methods[{i}] both fill the table column {column}; "
                             "list each method once")
        first[column] = i


def baseline_forecast_matrix(panel: SeriesPanel, choice: BaselineChoice) -> np.ndarray:
    """Per-node one-step baseline forecasts over the test period (|N| x test_len)."""
    return choice.forecast(panel.values)[:, panel.train_len: panel.n_time]


def _nn_trials(panel: SeriesPanel, h: HierarchySpec, config: TrainConfig,
               trials: list[tuple[str, str, tuple[float, float], int]], collect_traces: bool) -> list:
    """Train network trials (label, kind, lam, seed): the bottom networks in one set of stacks, MinT's bases in another.

    Returns a (coherent test forecast, fit) pair per trial. The bottom
    networks share one epoch hook. A diverged stack leaves its trials
    None and puts its error at the trial it names, so the first error in
    trial order is the one a trial-by-trial run would raise.
    """
    out: list = [None] * len(trials)
    sr = [i for i, t in enumerate(trials) if t[1] == "sr"]
    mint = [i for i, t in enumerate(trials) if t[1] == "mint"]
    test_tps, fit_tps = forecast_timepoints(panel), training_timepoints(panel, config.lag)
    if sr:
        hook = make_epoch_hook(panel, h, config) if collect_traces else None
        try:
            fits = train_batch(panel, h, [RegWeights.build(h, *trials[i][2]) for i in sr], config,
                               seeds=[trials[i][3] for i in sr], hook=hook)
        except TrainingDiverged as exc:
            out[sr[exc.model]], fits = exc, []
        for i, fit in zip(sr, fits):
            out[i] = aggregate_bottom(h, predict(fit.params, panel.bottom_values, config, test_tps)), fit
    if mint:
        try:
            fits = train_all_node_batch(panel, config, [trials[i][3] for i in mint])
        except TrainingDiverged as exc:
            out[mint[exc.model]], fits = exc, []
        for i, fit in zip(mint, fits):
            base_fit = predict(fit.params, panel.values, config, fit_tps)
            w = estimate_w_sample(base_fit, panel.values[:, [t - 1 for t in fit_tps]])
            out[i] = mint_reconcile(h, predict(fit.params, panel.values, config, test_tps), w), fit
    return out


def run_benchmark(panel: SeriesPanel, h: HierarchySpec, methods: list[MethodSpec],
                  seeds: list[int], config: TrainConfig,
                  collect_traces: bool = True, jobs: int = 1) -> BenchmarkResult:
    """Evaluate every requested method on the panel's test period.

    Baselines are deterministic and produce a single report; network
    methods produce one report per seed plus a trial summary. Every
    network trains in a stack with the others of its kind (see
    :func:`_nn_trials`); ``jobs`` > 1 splits the seeds into that many
    contiguous shards trained as their own stacks in parallel processes.
    Fully deterministic given the seed list, whatever ``jobs``.
    """
    if len(set(seeds)) != len(seeds):
        raise ValueError("trial seeds must be distinct")
    result = BenchmarkResult(labels=[], seeds=list(seeds), reports={}, summaries={})
    actual = panel.values[:, panel.train_len:]

    # The column each method fills, checked for repeats before any network trains. A tuned NN+SR is
    # known by its grids until it is tuned; its pick is checked against the other columns after.
    choices: dict[int, BaselineChoice] = {}
    lams: dict[int, tuple[float, float]] = {}
    columns: list[str] = []
    for i, spec in enumerate(methods):
        if spec.name in ("MA", "ES"):
            choices[i] = select_param(panel, spec.name, spec.grid)
            columns.append(choices[i].label)
        elif spec.name != "NN+SR":
            columns.append(spec.name)
        elif spec.tune:
            grids = [sorted(map(float, g)) for g in (spec.tune_grid1, spec.tune_gridM)]
            columns.append(f"NN+SR tuned on {grids[0]} x {grids[1]}")
        else:
            lams[i] = (float(spec.lambda1), float(spec.lambdaM))
            columns.append(_sr_label(lams[i]))
    _check_columns(columns)
    for i, spec in enumerate(methods):
        if spec.name == "NN+SR" and i not in lams:
            lams[i] = tune_lambda(panel, h, spec.tune_grid1, spec.tune_gridM, replace(config, seed=seeds[0]))
            columns[i] = _sr_label(lams[i])
            _check_columns(columns)

    nn_tasks: list[tuple[str, str, tuple[float, float]]] = []
    for i, (spec, label) in enumerate(zip(methods, columns)):
        if i in choices:
            report = node_report(h, actual, baseline_forecast_matrix(panel, choices[i]),
                                 label, params={"param": choices[i].param})
            result.labels.append(label)
            result.reports[label] = [report]
            result.summaries[label] = None
        else:
            nn_tasks.append((label, "mint" if spec.name == "NN+MinT" else "sr", lams.get(i, (0.0, 0.0))))

    trials = [(label, kind, lam, seed) for label, kind, lam in nn_tasks for seed in seeds]
    shards = min(jobs, len(seeds)) if trials else 1
    if shards > 1:  # contiguous seed ranges, each trained as its own stacks
        from concurrent.futures import ProcessPoolExecutor

        parts = [[i for i in range(len(trials)) if shards * (i % len(seeds)) // len(seeds) == s]
                 for s in range(shards)]
        outcomes: list = [None] * len(trials)
        with ProcessPoolExecutor(max_workers=shards) as ex:
            done = ex.map(partial(_nn_trials, panel, h, config, collect_traces=collect_traces),
                          [[trials[i] for i in part] for part in parts])
            for part, part_out in zip(parts, done):
                for i, outcome in zip(part, part_out):
                    outcomes[i] = outcome
    else:
        outcomes = _nn_trials(panel, h, config, trials, collect_traces)
    diverged = next((o for o in outcomes if isinstance(o, TrainingDiverged)), None)
    if diverged is not None:
        raise diverged

    for (label, _, _, seed), (coherent, fit) in zip(trials, outcomes):
        if label not in result.reports:
            result.labels.append(label)
            result.reports[label] = []
            result.fits[label] = {}
        result.reports[label].append(node_report(h, actual, coherent, label, params={"seed": seed}))
        result.fits[label][seed] = fit
    for label, *_ in nn_tasks:
        result.summaries[label] = (
            summarize_trials(result.reports[label]) if len(result.reports[label]) >= 2 else None
        )
    return result

