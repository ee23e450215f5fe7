"""Per-node and per-level reports, trial aggregation, epoch traces, sweeps, and the benchmark runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count, product

import numpy as np

from .baselines import BaselineChoice, select_param
from .hierarchy import LEVELS, HierarchySpec, aggregate_bottom, level_means, rmse, structure_matrix
from .panel import SeriesPanel
from .reconcile import estimate_w_sample, mint_reconcile
from .trainer import TrainConfig, TrainingDiverged, TrainResult, predict, train_batch

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(31))

@dataclass(frozen=True)
class EvalReport:
    """Per-node RMSEs of one method run plus their level means, keyed by ``LEVELS``.

    A network trial's report also carries its fit and ``extra``, the fields
    its method adds to the trial's ``trials.json`` entry (NN+MinT's
    ``gamma`` and ``w_condition``).
    """

    method: str
    params: dict
    per_node: dict[int, float]
    levels: dict[str, float]
    fit: TrainResult | None = None
    extra: dict = field(default_factory=dict)


def node_report(h: HierarchySpec, actual: np.ndarray, forecast: np.ndarray, method: str,
                params: dict | None = None, fit: TrainResult | None = None, extra: dict | None = None) -> EvalReport:
    """Score |N| x T forecast rows against actuals."""
    per_node = rmse(actual, forecast)
    return EvalReport(method=method, params=dict(params or {}), per_node=dict(zip(h.node_ids, per_node.tolist())),
                      levels=dict(zip(LEVELS, level_means(h, per_node).tolist())), fit=fit, extra=dict(extra or {}))


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


def make_epoch_hook(panel: SeriesPanel):
    """Stack hook for training: per-level test RMSE of bottom-up forecasts.

    Training calls ``hook(forecasts)`` with the bottom forecasts of the test
    period, one per weight row, shaped (rows, test columns, |B|) (see
    ``trainer._Trace``). The hook returns their level means, shaped
    (rows, 4) in :data:`LEVELS` order.
    """
    h, actual = panel.tree, panel.values[:, panel.train_len:]

    def hook(forecasts: np.ndarray) -> np.ndarray:
        return level_means(h, rmse(actual, aggregate_bottom(h, np.swapaxes(forecasts, -1, -2))))

    return hook


def _bottom_weights(h: HierarchySpec, lams: list[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    """H and the weight rows (root, then each mid) of bottom networks, one per (lambda_root, lambda_mid)."""
    return structure_matrix(h), np.array([[l_root] + [l_mid] * len(h.mid_ids) for l_root, l_mid in lams])


def _held_out_levels(panel: SeriesPanel, lams: list[tuple[float, float]], seeds: list[int],
                     config: TrainConfig) -> np.ndarray:
    """Test RMSEs per level, (K, 4), of a bottom network per weight pair and seed, scored by the epoch hook."""
    fits = train_batch(panel, *_bottom_weights(panel.tree, lams), seeds, config)
    forecasts = [predict(fit.params, panel, config, panel.train_len, panel.n_time).T for fit in fits]
    return make_epoch_hook(panel)(np.stack(forecasts))


SWEEP_MODES = ("(x,0)", "(0,x)", "(x,x)")


def reg_sweep(panel: SeriesPanel, x_grid: tuple | list,
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
    if xs[0] < 0:
        raise ValueError(f"x_grid values must not be negative, got {list(x_grid)!r}")
    if xs[-1] == 0:  # the (0, 0) runs alone would give only exact zeros
        raise ValueError(f"x_grid needs a value above 0, got {list(x_grid)!r}")
    if len(set(xs)) != len(xs):
        raise ValueError(f"x_grid values must not repeat, got {list(x_grid)!r}")
    if not modes or any(mode not in SWEEP_MODES for mode in modes):
        raise ValueError(f"modes must be a nonempty list of sweep modes {list(SWEEP_MODES)}, got {list(modes)!r}")
    if len(set(modes)) != len(modes):
        raise ValueError(f"modes must not repeat, got {list(modes)!r}")

    # xs[0] is 0: the (0, 0) run, then each mode's points at xs[1:].
    lams = [(0.0, 0.0)] + [{"(x,0)": (x, 0.0), "(0,x)": (0.0, x), "(x,x)": (x, x)}[mode]
                           for mode in modes for x in xs[1:]]
    # Seed-major: the (0, 0) run and every grid point of a seed share its initialization.
    scores = _held_out_levels(panel, lams * len(seeds), [s for s in seeds for _ in lams], config)
    scores = scores.reshape(len(seeds), len(lams), len(LEVELS))
    rel = (scores[:, 1:] - scores[:, :1]).mean(axis=0).reshape(len(modes), len(xs) - 1, len(LEVELS))
    # x = 0 is an exact zero, not a self-subtraction.
    return {mode: {lvl: np.concatenate(([0.0], rel[m, :, j])) for j, lvl in enumerate(LEVELS)}
            for m, mode in enumerate(modes)}


def _fit_len(train_len: int) -> int:
    """Timepoints of the fit period of :func:`tune_lambda`'s hold-out split."""
    return int(0.75 * train_len)


def tune_lambda(panel: SeriesPanel, grid_root: tuple | list, grid_mid: tuple | list,
                config: TrainConfig, seed: int) -> tuple[float, float]:
    """Hold-out selection of (lambda_root, lambda_mid).

    The first 75% of the training period fits the model, the rest scores
    coherent bottom-up forecasts by average all-node RMSE. Every grid point
    is fitted in one batch from ``seed``. Ties break toward smaller
    lambda_root + lambda_mid, then smaller lambda_root.
    """
    if not grid_root or not grid_mid:
        raise ValueError("lambda grids must be nonempty")
    fit_len = _fit_len(panel.train_len)
    if fit_len <= config.lag or fit_len >= panel.train_len:
        raise ValueError(f"training period of {panel.train_len} timepoints cannot be split for hold-out validation")
    grid = list(product(sorted(grid_root), sorted(grid_mid)))
    # A panel whose test period is exactly the validation window.
    val = SeriesPanel(panel.tree, panel.values[:, :panel.train_len], fit_len)
    scores = _held_out_levels(val, grid, [seed] * len(grid), config)
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

    def min_train_len(self, n_nodes: int, lag: int) -> int:
        """The shortest training period this method runs on, for a tree of ``n_nodes`` and networks of this lag.

        A network needs a training timepoint past its lags, NN+MinT's W
        estimate ``n_nodes + 1`` of them, and a tuned NN+SR a hold-out fit
        period longer than the lag.
        """
        if self.name in ("MA", "ES"):
            return 1
        if self.name == "NN+MinT":
            return lag + n_nodes + 1
        if self.tune:
            return next(n for n in count(lag + 1) if _fit_len(n) > lag)
        return lag + 1


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


def _nn_trials(panel: SeriesPanel, config: TrainConfig, nets: list[tuple[str, tuple[float, float] | None]],
               seeds: list[int], collect_traces: bool) -> dict[str, list]:
    """Train and score each network column (label, weight pair, or None for NN+MinT) at each seed.

    Returns each label's reports in seed order. The bottom networks train in
    one set of stacks, sharing one epoch hook, and MinT's in another. A
    diverged stack leaves its trials None and puts its error in the slot of
    the trial it names, so the first error in column-then-seed order is the
    one a trial-by-trial run would raise.
    """
    out: dict[str, list] = {label: [None] * len(seeds) for label, _ in nets}
    h, actual = panel.tree, panel.values[:, panel.train_len:]
    fit_cols, test_cols = (config.lag, panel.train_len), (panel.train_len, panel.n_time)
    for mint in (False, True):
        labels = [label for label, lam in nets if (lam is None) == mint]
        if not labels:
            continue
        if mint:
            hook, design = None, (np.zeros((0, panel.n_nodes)), np.zeros((len(labels) * len(seeds), 0)))
        else:
            hook = make_epoch_hook(panel) if collect_traces else None
            design = _bottom_weights(h, [lam for _, lam in nets if lam is not None for _ in seeds])
        try:
            fits = train_batch(panel, *design, seeds * len(labels), config, hook)
        except TrainingDiverged as exc:
            column, trial = divmod(exc.model, len(seeds))
            out[labels[column]][trial], fits = exc, []
        for (label, (trial, seed)), fit in zip(product(labels, enumerate(seeds)), fits):
            if not mint:
                coherent, extra = aggregate_bottom(h, predict(fit.params, panel, config, *test_cols)), {}
            else:
                w = estimate_w_sample(predict(fit.params, panel, config, *fit_cols), panel.values[:, slice(*fit_cols)])
                coherent, gamma, w_condition = mint_reconcile(h, predict(fit.params, panel, config, *test_cols), w)
                extra = {"gamma": gamma, "w_condition": w_condition}
            out[label][trial] = node_report(h, actual, coherent, label, {"seed": seed}, fit, extra)
    return out


def run_benchmark(panel: SeriesPanel, methods: list[MethodSpec],
                  seeds: list[int], config: TrainConfig,
                  collect_traces: bool = True, jobs: int = 1) -> dict[str, list[EvalReport]]:
    """Evaluate every requested method on the panel's test period.

    Returns the table's columns, each label with its reports: the
    baselines first, then the network methods, each in config order. A
    baseline is deterministic and has one report; a network method has one
    per seed, in seed-list order, each carrying its fit. Every
    network trains in a stack with the others of its kind (see
    :func:`_nn_trials`); ``jobs`` > 1 splits the seed list into that many
    contiguous ranges, each trained as its own stacks in a parallel process.
    Fully deterministic given the seed list, whatever ``jobs``.
    """
    if len(set(seeds)) != len(seeds):
        raise ValueError("trial seeds must be distinct")
    h, actual = panel.tree, panel.values[:, panel.train_len:]

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
            lams[i] = tune_lambda(panel, spec.tune_grid1, spec.tune_gridM, config, seeds[0])
            columns[i] = _sr_label(lams[i])
            _check_columns(columns)

    nets = [(label, None if spec.name == "NN+MinT" else lams.get(i, (0.0, 0.0)))
            for i, (spec, label) in enumerate(zip(methods, columns)) if i not in choices]
    n, shards = len(seeds), min(jobs, len(seeds)) if nets else 0
    run = partial(_nn_trials, panel, config, nets, collect_traces=collect_traces)
    seed_ranges = [seeds[n * s // shards: n * (s + 1) // shards] for s in range(shards)]
    if shards > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=shards) as ex:
            done = list(ex.map(run, seed_ranges))
    else:
        done = list(map(run, seed_ranges))
    trials = {label: [r for shard in done for r in shard[label]] for label, _ in nets}
    diverged = next((r for reports in trials.values() for r in reports if isinstance(r, TrainingDiverged)), None)
    if diverged is not None:
        raise diverged

    table = {columns[i]: [node_report(h, actual, choice.forecast(panel.values)[:, panel.train_len: panel.n_time],
                                      columns[i], params={"param": choice.param})] for i, choice in choices.items()}
    return table | trials
