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
from .neuralnet import (
    ForwardTrace,
    NetworkDims,
    NetworkParams,
    activation,
    activation_prime,
    forward,
    init_params,
)
from .panel import SeriesPanel, lagged_input

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


@dataclass(frozen=True)
class Gradients:
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray


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


def _split_targets(y_t: np.ndarray, n_upper: int, n_bottom: int) -> tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y_t, dtype=np.float64)
    if y.shape != (n_upper + n_bottom,):
        raise ValueError(f"expected observation vector of length {n_upper + n_bottom}, got {y.shape}")
    return y[:n_upper], y[n_upper:]


def error_from_output(u3: np.ndarray, y_upper: np.ndarray, y_bottom: np.ndarray,
                      lam: np.ndarray, H: np.ndarray) -> float:
    res_b = y_bottom - u3
    res_u = lam * (y_upper - H @ u3)
    return 0.5 * float(res_b @ res_b) + 0.5 * float(res_u @ res_u)


def error_at_t(trace: ForwardTrace, y_t: np.ndarray, reg: RegWeights, H: np.ndarray) -> float:
    """Weighted squared error of one forecast against the full observation vector."""
    y_upper, y_bottom = _split_targets(y_t, H.shape[0], H.shape[1])
    return error_from_output(trace.u3, y_upper, y_bottom, reg.vec, H)


def output_delta(u3: np.ndarray, y_t: np.ndarray, reg: RegWeights, H: np.ndarray) -> np.ndarray:
    """dE_t/du3 = -[H' Lam^2, I] y_t + (I + H' Lam^2 H) u3."""
    y_upper, y_bottom = _split_targets(y_t, H.shape[0], H.shape[1])
    ht_lam2 = H.T * (reg.vec * reg.vec)
    return -(ht_lam2 @ y_upper + y_bottom) + (u3 + ht_lam2 @ (H @ u3))


def hidden_delta(delta3: np.ndarray, params: NetworkParams, trace: ForwardTrace, kind: str) -> np.ndarray:
    """dE_t/du2 = (W3' delta3) * f'(u2)."""
    return (params.w3.T @ delta3) * activation_prime(trace.u2, kind)


def gradients_at_t(params: NetworkParams, x: np.ndarray, y_t: np.ndarray,
                   reg: RegWeights, H: np.ndarray, kind: str = "sigmoid") -> Gradients:
    """Per-parameter gradients of E_t: outer products of the deltas with the layer inputs."""
    trace = forward(params, x, kind)
    d3 = output_delta(trace.u3, y_t, reg, H)
    d2 = hidden_delta(d3, params, trace, kind)
    return Gradients(
        w2=np.outer(d2, trace.z1),
        b2=d2,
        w3=np.outer(d3, trace.z2),
        b3=d3,
    )


def _forward(params: NetworkParams, x: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and outputs for the rows of x.

    The weights may carry a leading model axis (biases shaped (K, 1, n));
    each model's slice then gives the same bits as a network of its own.
    """
    z2 = activation(x @ np.swapaxes(params.w2, -1, -2) + params.b2, kind)
    return z2, z2 @ np.swapaxes(params.w3, -1, -2) + params.b3


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
    lam2 = lam * lam
    net = NetworkParams(w2=np.stack([p.w2 for p in params]), b2=np.stack([p.b2 for p in params])[:, None],
                        w3=np.stack([p.w3 for p in params]), b3=np.stack([p.b3 for p in params])[:, None])
    live = list(range(len(params)))  # original index of each stacked model
    e_prev = [np.inf] * len(params)
    objective: list[list[float]] = [[] for _ in params]
    evals: list[list] = [[] for _ in params]
    results: list[TrainResult | None] = [None] * len(params)
    diverged_at: int | None = None

    def model(pos: int) -> NetworkParams:
        return NetworkParams(net.w2[pos], net.b2[pos, 0], net.w3[pos], net.b3[pos, 0])

    def finish(pos: int, epochs: int, reason: str) -> None:
        k = live[pos]
        p, done = params[k], model(pos)
        p.w2[...], p.b2[...], p.w3[...], p.b3[...] = done.w2, done.b2, done.w3, done.b3
        results[k] = TrainResult(params=p, objective=np.asarray(objective[k]), epochs=epochs,
                                 reason=reason, epoch_eval=evals[k])

    # Forward values and residuals at the current parameters; the objective's
    # residuals are reused by the next epoch's output delta. Every stacked
    # operation, the sums over axes (1, 2) included, visits each model's block
    # in the order the 2-D operation would, which keeps the bits identical.
    z2, u3 = _forward(net, x, kind)
    res_b = u3 - yb
    res_u = yu - u3 @ H.T
    epoch = 0
    while epoch < config.max_epochs and live:
        epoch += 1
        d3 = res_b - (res_u * lam2) @ H
        d2 = (d3 @ net.w3) * (z2 * (1.0 - z2) if kind == "sigmoid" else z2 > 0)
        net.w2 -= eta * (d2.transpose(0, 2, 1) @ x)
        net.w3 -= eta * (d3.transpose(0, 2, 1) @ z2)
        if config.bias:
            net.b2 -= eta * d2.sum(axis=1, keepdims=True)
            net.b3 -= eta * d3.sum(axis=1, keepdims=True)

        z2, u3 = _forward(net, x, kind)
        res_b = u3 - yb
        res_u = yu - u3 @ H.T
        upper = res_u * lam
        e_new = 0.5 * (res_b * res_b).sum(axis=(1, 2)) + 0.5 * (upper * upper).sum(axis=(1, 2))

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
            net = NetworkParams(net.w2[keep], net.b2[keep], net.w3[keep], net.b3[keep])
            lam, lam2, z2, u3, res_b, res_u = lam[keep], lam2[keep], z2[keep], u3[keep], res_b[keep], res_u[keep]

    for pos in range(len(live)):
        finish(pos, epoch, "max_epochs")
    if diverged_at is not None:
        raise TrainingDiverged(diverged_at)
    return results


def bottom_design(panel: SeriesPanel, lag: int, timepoints: range | list[int]) -> np.ndarray:
    """Stacked lagged bottom-level inputs, one row per timepoint."""
    return np.stack([lagged_input(panel, t, lag) for t in timepoints])


def _design_bottom(panel: SeriesPanel, lag: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tps = training_timepoints(panel, lag)
    if len(tps) == 0:
        raise ValueError(f"training period of length {panel.train_len} leaves no usable timepoints at lag {lag}")
    x = bottom_design(panel, lag, tps)
    n_upper = panel.n_nodes - panel.n_bottom
    cols = [t - 1 for t in tps]
    yu = panel.values[:n_upper][:, cols].T
    yb = panel.values[n_upper:][:, cols].T
    return x, yb, yu


def lagged_input_all(panel: SeriesPanel, t: int, lag: int) -> np.ndarray:
    """All-node lag vector (every node, not just bottoms), oldest lag first."""
    if t <= lag:
        raise ValueError(f"timepoint {t} has fewer than {lag} preceding observations")
    if t > panel.n_time + 1:
        raise ValueError(f"timepoint {t} beyond panel horizon {panel.n_time + 1}")
    return panel.values[:, t - 1 - lag: t - 1].T.reshape(-1).copy()


def _bottom_problem(panel: SeriesPanel, h: HierarchySpec, config: TrainConfig
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, NetworkDims]:
    if panel.node_ids != h.node_ids:
        raise ValueError("panel node order does not match hierarchy")
    x, yb, yu = _design_bottom(panel, config.lag)
    input_dim = config.lag * h.n_bottom
    hidden = config.hidden_dim if config.hidden_dim is not None else 2 * input_dim
    dims = NetworkDims(input_dim=input_dim, hidden_dim=hidden, output_dim=h.n_bottom)
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
    tps = training_timepoints(panel, config.lag)
    if len(tps) == 0:
        raise ValueError(f"training period of length {panel.train_len} leaves no usable timepoints at lag {config.lag}")
    x = np.stack([lagged_input_all(panel, t, config.lag) for t in tps])
    y = panel.values[:, [t - 1 for t in tps]].T
    input_dim = config.lag * panel.n_nodes
    hidden = config.hidden_dim if config.hidden_dim is not None else 2 * input_dim
    dims = NetworkDims(input_dim=input_dim, hidden_dim=hidden, output_dim=panel.n_nodes)
    return x, y, np.zeros((x.shape[0], 0)), np.zeros((0, panel.n_nodes)), dims


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
    return _forward(params, bottom_design(panel, config.lag, timepoints), config.activation)[1].T


def predict_all_nodes(params: NetworkParams, panel: SeriesPanel, config: TrainConfig,
                      timepoints: range | list[int]) -> np.ndarray:
    """One-step all-node forecasts (|N| x len) from the all-node base network."""
    x = np.stack([lagged_input_all(panel, t, config.lag) for t in timepoints])
    return _forward(params, x, config.activation)[1].T


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
