"""Structured-regularization training of the two-layer network.

The per-timepoint error is

    E_t = 1/2 ||y_t^B - u3||^2 + 1/2 ||Lambda (y_t^U - H u3)||^2,

where H maps bottom outputs to upper aggregates and Lambda carries one
nonnegative weight per upper node. Training is full-batch gradient descent
with a relative-improvement stopping rule: gradients are accumulated over
every training timepoint, one update is applied per epoch, and the loop
stops when the freshly evaluated objective fails to improve on the previous
epoch by a factor of eps (or at the epoch cap). Models that share a design
train together as one stack of weights; each comes out exactly as if
trained alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from .hierarchy import HierarchySpec, aggregate_bottom, structure_matrix
from .neuralnet import NetworkDims, NetworkParams, activation, forward, init_params
from .panel import SeriesPanel, lagged_design

DEFAULT_LAMBDA_GRID: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(31))
# Models per stacked run in train_batch. Per-model epoch cost is flat up to
# about 128 models and grows beyond (the stack outgrows the cache), so large
# grids run as consecutive stacks, which also bounds memory.
STACK_LIMIT = 64


@dataclass(frozen=True)
class RegWeights:
    """Per-upper-node regularization weights built from (lambda_root, lambda_mid)."""

    lambda_by_node: dict[int, float]
    vec: np.ndarray  # aligned to (root, mids) order

    @classmethod
    def build(cls, h: HierarchySpec, lambda_root: float, lambda_mid: float) -> "RegWeights":
        if lambda_root < 0 or lambda_mid < 0:
            raise ValueError(
                f"regularization weights must be nonnegative, got ({lambda_root}, {lambda_mid})"
            )
        by_node = {h.root: float(lambda_root)}
        by_node.update({m: float(lambda_mid) for m in h.mid_ids})
        vec = np.array([by_node[n] for n in h.upper_ids], dtype=np.float64)
        vec.setflags(write=False)
        return cls(lambda_by_node=by_node, vec=vec)


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 1e-5
    eps: float = 5e-5
    max_epochs: int = 10_000
    activation: str = "sigmoid"
    lag: int = 2
    seed: int = 0
    bias: bool = True
    hidden_dim: int | None = None  # default: twice the input width

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.lag < 1:
            raise ValueError("lag must be >= 1")


@dataclass
class TrainResult:
    params: NetworkParams
    objective: np.ndarray  # E(theta) after each epoch's update
    epochs: int
    reason: str  # "converged" or "max_epochs"
    epoch_eval: list = field(default_factory=list)  # hook outputs, one per epoch


class TrainingDiverged(RuntimeError):
    """Objective became non-finite during training."""

    def __init__(self, epoch: int):
        super().__init__(f"objective became non-finite at epoch {epoch}")
        self.epoch = epoch

    def __reduce__(self):  # keep the epoch across process boundaries
        return (TrainingDiverged, (self.epoch,))


def training_timepoints(panel: SeriesPanel, lag: int) -> range:
    """1-based timepoints with enough history inside the training period."""
    return range(lag + 1, panel.train_len + 1)


def forecast_timepoints(panel: SeriesPanel) -> range:
    return range(panel.train_len + 1, panel.n_time + 1)


def loss_and_grads(params: NetworkParams, x: np.ndarray, yb: np.ndarray, yu: np.ndarray,
                   H: np.ndarray, lam: np.ndarray, kind: str) -> tuple[np.ndarray, NetworkParams]:
    """Objective sum_t E_t over the rows of (x, yb, yu) and its gradient.

    Row t holds a network input and its bottom and upper targets; ``lam``
    is the weight vector. The weights may carry a leading model axis,
    with biases shaped (K, 1, n) and ``lam`` (K, 1, |U|): the objective is
    then one value per model, and each model's objective and gradient
    have the bits of a call on that model alone. The gradient comes from
    the closed-form deltas

        d3 = (u3 - y^B) - Lambda^2 (y^U - H u3) H,   d2 = (d3 W3) * f'(u2),

    summed over rows as outer products with each layer's input.
    """
    # neuralnet.forward, written out so that this module calls activation through its own
    # import: perfbench/tests/test_trace.py needs such a call to show that its tracer counts it.
    z2 = activation(x @ np.swapaxes(params.w2, -1, -2) + params.b2, kind)
    u3 = z2 @ np.swapaxes(params.w3, -1, -2) + params.b3
    res_b = u3 - yb
    res_u = yu - u3 @ H.T
    upper = res_u * lam
    objective = 0.5 * (res_b * res_b).sum(axis=(-2, -1)) + 0.5 * (upper * upper).sum(axis=(-2, -1))
    d3 = res_b - (res_u * (lam * lam)) @ H  # not (res_u * lam) * lam, which rounds differently
    d2 = (d3 @ params.w3) * (z2 * (1.0 - z2) if kind == "sigmoid" else z2 > 0)
    grads = NetworkParams(w2=np.swapaxes(d2, -1, -2) @ x, b2=d2.sum(axis=-2).reshape(params.b2.shape),
                          w3=np.swapaxes(d3, -1, -2) @ z2, b3=d3.sum(axis=-2).reshape(params.b3.shape))
    return objective, grads


def _fit(x: np.ndarray, yb: np.ndarray, yu: np.ndarray, H: np.ndarray, lams: np.ndarray,
         params: list[NetworkParams], config: TrainConfig,
         epoch_hooks: list[Callable[[int, NetworkParams], object] | None] | None = None,
         ) -> list[TrainResult]:
    """Full-batch descent of K models on the shared rows of (x, yb, yu).

    Model k starts from ``params[k]`` (updated in place) under the weight
    row ``lams[k]``. The weights are stacked so each numpy call serves every
    model, and a model leaves the stack at its own stopping epoch, so its
    parameters, objective, epochs and stop reason are bit-identical to a
    batch of one. A hook, if given, is called as ``hook(epoch, params)``
    after each of its model's epochs. If models diverge, the error is the
    one a model-by-model run would raise: that of the lowest-index one.
    """
    kind, eta, keep_rate = config.activation, config.eta, 1.0 - config.eps
    hooks = list(epoch_hooks) if epoch_hooks is not None else [None] * len(params)
    lam = np.asarray(lams, dtype=np.float64).reshape(len(params), 1, -1)
    net = NetworkParams(w2=np.stack([p.w2 for p in params]), b2=np.stack([p.b2 for p in params])[:, None],
                        w3=np.stack([p.w3 for p in params]), b3=np.stack([p.b3 for p in params])[:, None])
    live = list(range(len(params)))  # original index of each stacked model
    e_prev = [np.inf] * len(params)
    objective: list[list[float]] = [[] for _ in params]
    evals: list[list] = [[] for _ in params]
    results: list[TrainResult | None] = [None] * len(params)
    diverged_at: int | None = None

    def take(p: NetworkParams, keep: list[int]) -> NetworkParams:
        return NetworkParams(p.w2[keep], p.b2[keep], p.w3[keep], p.b3[keep])

    def model(pos: int) -> NetworkParams:
        return NetworkParams(net.w2[pos], net.b2[pos, 0], net.w3[pos], net.b3[pos, 0])

    def finish(pos: int, epochs: int, reason: str) -> None:
        k = live[pos]
        p, done = params[k], model(pos)
        p.w2[...], p.b2[...], p.w3[...], p.b3[...] = done.w2, done.b2, done.w3, done.b3
        results[k] = TrainResult(params=p, objective=np.asarray(objective[k]), epochs=epochs,
                                 reason=reason, epoch_eval=evals[k])

    _, grads = loss_and_grads(net, x, yb, yu, H, lam, kind)
    epoch = 0
    while epoch < config.max_epochs and live:
        epoch += 1
        net.w2 -= eta * grads.w2
        net.w3 -= eta * grads.w3
        if config.bias:
            net.b2 -= eta * grads.b2
            net.b3 -= eta * grads.b3
        e_new, grads = loss_and_grads(net, x, yb, yu, H, lam, kind)

        leaving = []  # stack positions of models that stop this epoch
        for pos, e in enumerate(e_new.tolist()):
            k = live[pos]
            if not math.isfinite(e):
                # A model-by-model run never reaches the models after a diverged one.
                diverged_at = epoch
                leaving += range(pos, len(live))
                break
            objective[k].append(e)
            if hooks[k] is not None:
                evals[k].append(hooks[k](epoch, model(pos)))
            if e > keep_rate * e_prev[k]:
                finish(pos, epoch, "converged")
                leaving.append(pos)
            e_prev[k] = e
        if leaving:
            gone = set(leaving)
            keep = [pos for pos in range(len(live)) if pos not in gone]
            live = [live[pos] for pos in keep]
            net, grads, lam = take(net, keep), take(grads, keep), lam[keep]

    for pos in range(len(live)):
        finish(pos, epoch, "max_epochs")
    if diverged_at is not None:
        raise TrainingDiverged(diverged_at)
    return results


def _design(panel: SeriesPanel, n_upper: int, config: TrainConfig
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, NetworkDims]:
    """Training rows of a network forecasting the panel rows from ``n_upper`` on from their own lags.

    Returns the lagged inputs, the targets of those rows and of the rows
    above them, and the network size (hidden width from the config, or
    twice the input width).
    """
    tps = training_timepoints(panel, config.lag)
    if len(tps) == 0:
        raise ValueError(f"training period of length {panel.train_len} leaves no usable timepoints at lag {config.lag}")
    rows = panel.values[n_upper:]
    targets = panel.values[:, [t - 1 for t in tps]].T
    input_dim = config.lag * rows.shape[0]
    hidden = config.hidden_dim if config.hidden_dim is not None else 2 * input_dim
    dims = NetworkDims(input_dim=input_dim, hidden_dim=hidden, output_dim=rows.shape[0])
    return lagged_design(rows, config.lag, tps), targets[:, n_upper:], targets[:, :n_upper], dims


def _bottom_problem(panel: SeriesPanel, h: HierarchySpec, config: TrainConfig
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, NetworkDims]:
    if panel.node_ids != h.node_ids:
        raise ValueError("panel node order does not match hierarchy")
    x, yb, yu, dims = _design(panel, panel.n_nodes - panel.n_bottom, config)
    return x, yb, yu, np.asarray(structure_matrix(h)), dims


def train(panel: SeriesPanel, h: HierarchySpec, reg: RegWeights, config: TrainConfig,
          epoch_hook: Callable[[int, NetworkParams], object] | None = None) -> TrainResult:
    """Train the bottom-level network under the structured objective.

    The panel is expected to be standardized. Inputs are actual lagged
    bottom values; targets are the bottom and upper observations at each
    training timepoint. Deterministic for a fixed config seed.
    """
    x, yb, yu, H, dims = _bottom_problem(panel, h, config)
    params = init_params(dims, config.seed, bias=config.bias)
    return _fit(x, yb, yu, H, reg.vec[None], [params], config, [epoch_hook])[0]


def train_batch(panel: SeriesPanel, h: HierarchySpec, regs: list[RegWeights],
                config: TrainConfig) -> list[TrainResult]:
    """Train one network per weight set on one design, all from the config seed.

    Result k is bit-identical to ``train(panel, h, regs[k], config)``; the
    models share each epoch's numpy calls, up to ``STACK_LIMIT`` at a time.
    """
    x, yb, yu, H, dims = _bottom_problem(panel, h, config)
    init = init_params(dims, config.seed, bias=config.bias)
    results: list[TrainResult] = []
    for start in range(0, len(regs), STACK_LIMIT):
        chunk = regs[start: start + STACK_LIMIT]
        results += _fit(x, yb, yu, H, np.stack([reg.vec for reg in chunk]),
                        [init.copy() for _ in chunk], config)
    return results


def _all_node_problem(panel: SeriesPanel, config: TrainConfig
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, NetworkDims]:
    x, y, yu, dims = _design(panel, 0, config)
    return x, y, yu, np.zeros((0, panel.n_nodes)), dims


def train_all_node_base(panel: SeriesPanel, config: TrainConfig,
                        epoch_hook: Callable[[int, NetworkParams], object] | None = None) -> TrainResult:
    """Train an unregularized network forecasting every node from all-node lags.

    Used to produce base forecasts for trace-minimization reconciliation:
    the structured objective with no upper nodes (an empty H), so plain
    squared error over all nodes, with the same descent and sizing rule.
    """
    x, y, yu, H, dims = _all_node_problem(panel, config)
    params = init_params(dims, config.seed, bias=config.bias)
    return _fit(x, y, yu, H, np.zeros((1, 0)), [params], config, [epoch_hook])[0]


def predict_bottom(params: NetworkParams, panel: SeriesPanel, config: TrainConfig,
                   timepoints: range | list[int]) -> np.ndarray:
    """One-step bottom-level forecasts (|B| x len) from actual lagged inputs."""
    return forward(params, lagged_design(panel.bottom_values, config.lag, timepoints), config.activation)[1].T


def predict_all_nodes(params: NetworkParams, panel: SeriesPanel, config: TrainConfig,
                      timepoints: range | list[int]) -> np.ndarray:
    """One-step all-node forecasts (|N| x len) from the all-node base network."""
    return forward(params, lagged_design(panel.values, config.lag, timepoints), config.activation)[1].T


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
    fit_panel = panel.with_train_len(fit_len)
    results = train_batch(fit_panel, h, [RegWeights.build(h, *lam) for lam in grid], config)
    val_tps = range(fit_len + 1, panel.train_len + 1)
    actual = panel.values[:, [t - 1 for t in val_tps]]
    best: tuple[float, float, float, float] | None = None
    for (l_root, l_mid), result in zip(grid, results):
        coherent = aggregate_bottom(h, predict_bottom(result.params, fit_panel, config, val_tps))
        score = float(np.mean(np.sqrt(np.mean((actual - coherent) ** 2, axis=1))))
        key = (score, l_root + l_mid, l_root, l_mid)
        if best is None or key < best:
            best = key
    return best[2], best[3]
