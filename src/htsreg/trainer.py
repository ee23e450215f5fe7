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
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .hierarchy import HierarchySpec, structure_matrix
from .neuralnet import NetworkDims, NetworkParams, activation, init_params
from .panel import SeriesPanel, lagged_design

# Models per stacked run in train_batch. Per-model epoch cost is flat up to
# about 128 models and grows beyond (the stack outgrows the cache), so large
# grids run as consecutive stacks, which also bounds memory.
STACK_LIMIT = 64
# Model-epochs of weights _fit buffers before its hook scores them in one call:
# fewer, larger hook calls, with the buffer bounded whatever the stack size.
TRACE_ROWS = 64


@dataclass(frozen=True)
class RegWeights:
    """Per-upper-node regularization weights built from (lambda_root, lambda_mid)."""

    vec: np.ndarray  # aligned to (root, mids) order

    @classmethod
    def build(cls, h: HierarchySpec, lambda_root: float, lambda_mid: float) -> "RegWeights":
        if not (math.isfinite(lambda_root) and math.isfinite(lambda_mid) and lambda_root >= 0 and lambda_mid >= 0):
            raise ValueError(
                f"regularization weights must be finite and nonnegative, got ({lambda_root}, {lambda_mid})"
            )
        vec = np.array([lambda_root] + [lambda_mid] * len(h.mid_ids), dtype=np.float64)
        vec.setflags(write=False)
        return cls(vec=vec)


def _is_int(value: object) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


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
        for name, top in (("eta", math.inf), ("eps", 1)):  # at eps >= 1 the stopping rule stops after one epoch
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < top:
                raise ValueError(f"{name} must be a number in (0, {top}), got {value!r}")
        for name, low in (("max_epochs", 0), ("lag", 1), ("seed", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.hidden_dim is not None and not (_is_int(self.hidden_dim) and self.hidden_dim >= 1):
            raise ValueError(f"hidden_dim must be a positive integer or null, got {self.hidden_dim!r}")
        if not isinstance(self.bias, bool):
            raise ValueError(f"bias must be true or false, got {self.bias!r}")
        if self.activation not in ("sigmoid", "relu"):
            raise ValueError(f"activation must be 'sigmoid' or 'relu', got {self.activation!r}")


@dataclass
class TrainResult:
    params: NetworkParams
    objective: np.ndarray  # E(theta) after each epoch's update
    epochs: int
    reason: str  # "converged" or "max_epochs"
    epoch_eval: np.ndarray | None = None  # hook rows, one per epoch; None if no hook ran


class TrainingDiverged(RuntimeError):
    """Objective became non-finite, or rose, during training."""

    def __init__(self, epoch: int, model: int = 0, rose: bool = False):
        super().__init__(f"objective {'rose' if rose else 'became non-finite'} at epoch {epoch}")
        self.epoch = epoch
        self.model = model  # index of the diverged model in its batch
        self.rose = rose  # finite but above the previous epoch's objective

    def __reduce__(self):  # keep every field across process boundaries
        return (TrainingDiverged, (self.epoch, self.model, self.rose))


def training_timepoints(panel: SeriesPanel, lag: int) -> range:
    """1-based timepoints with enough history inside the training period."""
    return range(lag + 1, panel.train_len + 1)


def forecast_timepoints(panel: SeriesPanel) -> range:
    return range(panel.train_len + 1, panel.n_time + 1)


def _flat(params: NetworkParams) -> np.ndarray:
    """One flat row [w2 | w3 | b2 | b3] per model of weights with a leading model axis (or of one model)."""
    k = len(params.w2) if params.w2.ndim == 3 else 1
    return np.concatenate([np.reshape(a, (k, -1)) for a in (params.w2, params.w3, params.b2, params.b3)], axis=1)


def _views(flat: np.ndarray, dims: NetworkDims) -> NetworkParams:
    """Stacked w2, b2, w3, b3 views of flat rows (biases shaped (K, 1, n))."""
    k, i, hd, o = len(flat), dims.input_dim, dims.hidden_dim, dims.output_dim
    w2, w3, b2, b3 = np.split(flat, np.cumsum([hd * i, o * hd, hd]), axis=1)
    return NetworkParams(w2=w2.reshape((k, hd, i), copy=False), b2=b2.reshape((k, 1, hd), copy=False),
                         w3=w3.reshape((k, o, hd), copy=False), b3=b3.reshape((k, 1, o), copy=False))


def forward(params: NetworkParams, x: np.ndarray, kind: str,
            out: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations z2 = f(x W2' + b2) and linear outputs u3 = z2 W3' + b3 for the rows of x.

    The weights may carry a leading model axis (biases shaped (K, 1, n));
    each model's slice then gives the same bits as a network of its own.
    With ``out=(z2, u3)`` the two are written to those buffers, with the
    bits of a call without them.
    """
    z2, u3 = (None, None) if out is None else out
    z2 = np.matmul(x, np.swapaxes(params.w2, -1, -2), out=z2)
    np.add(z2, params.b2, out=z2)
    activation(z2, kind, out=z2)
    u3 = np.matmul(z2, np.swapaxes(params.w3, -1, -2), out=u3)
    np.add(u3, params.b3, out=u3)
    return z2, u3


class _Workspace:
    """Preallocated buffers of one epoch of K stacked models on shared rows.

    ``theta`` and ``grad`` hold a flat row per model (see :func:`_flat`), so
    the weights come before the biases; ``net`` and ``grads`` are stacked
    views of them, biases shaped (K, 1, n). The rows of ``x`` are fitted;
    the watch rows ``xw``, if any, are only forwarded, into ``u3w``, in
    products of their own, as BLAS can round a row differently in a
    product with more rows.
    """

    def __init__(self, theta: np.ndarray, dims: NetworkDims, x: np.ndarray, yb: np.ndarray, yu: np.ndarray,
                 H: np.ndarray, lam: np.ndarray, kind: str, xw: np.ndarray | None = None):
        k, n, hd, out, n_upper = len(theta), len(yb), dims.hidden_dim, dims.output_dim, H.shape[0]
        self.dims, self.theta, self.grad = dims, theta, np.empty_like(theta)
        self.net, self.grads = _views(theta, dims), _views(self.grad, dims)
        self.n_weights = hd * (dims.input_dim + out)
        self.x, self.xw, self.yb, self.yu, self.H, self.HT, self.kind = x, xw, yb, yu, H, H.T, kind
        self.lam, self.lam2 = lam, lam * lam  # lam * lam, not lam applied twice, which rounds differently
        self.z2, self.u3 = np.empty((k, n, hd)), np.empty((k, n, out))
        if xw is not None:
            self.z2w, self.u3w = np.empty((k, len(xw), hd)), np.empty((k, len(xw), out))
        self.res_b, self.sq, self.fp, self.d2 = (np.empty((k, n, m)) for m in (out, out, hd, hd))
        self.res_u, self.upper = np.empty((k, n, n_upper)), np.empty((k, n, n_upper))
        self.d3 = np.empty((k, n, out)) if n_upper else self.res_b  # an empty upper block adds exact zeros
        self.d3T, self.d2T = np.swapaxes(self.d3, 1, 2), np.swapaxes(self.d2, 1, 2)
        self.objective, self.objective_u = np.empty(k), np.empty(k)

    def loss_and_grads(self) -> np.ndarray:
        """The objective of each model at ``theta`` (a reused buffer); its gradient goes to ``grad``."""
        net, grads = self.net, self.grads
        z2, u3 = forward(net, self.x, self.kind, out=(self.z2, self.u3))
        if self.xw is not None:
            forward(net, self.xw, self.kind, out=(self.z2w, self.u3w))
        np.subtract(u3, self.yb, out=self.res_b)
        np.multiply(self.res_b, self.res_b, out=self.sq)
        objective = np.add.reduce(self.sq, axis=(1, 2), out=self.objective)
        objective *= 0.5
        if self.H.shape[0]:
            res_u, upper = self.res_u, self.upper
            np.matmul(u3, self.HT, out=res_u)
            np.subtract(self.yu, res_u, out=res_u)
            np.multiply(res_u, self.lam, out=upper)
            np.multiply(upper, upper, out=upper)
            np.add.reduce(upper, axis=(1, 2), out=self.objective_u)
            self.objective_u *= 0.5
            objective += self.objective_u
            np.multiply(res_u, self.lam2, out=res_u)
            np.matmul(res_u, self.H, out=self.d3)
            np.subtract(self.res_b, self.d3, out=self.d3)
        np.matmul(self.d3T, z2, out=grads.w3)
        np.add.reduce(self.d3, axis=1, keepdims=True, out=grads.b3)
        np.matmul(self.d3, net.w3, out=self.d2)
        if self.kind == "sigmoid":
            np.subtract(1.0, z2, out=self.fp)
            np.multiply(z2, self.fp, out=self.fp)
        else:
            np.greater(z2, 0.0, out=self.fp)
        np.multiply(self.d2, self.fp, out=self.d2)
        np.matmul(self.d2T, self.x, out=grads.w2)
        np.add.reduce(self.d2, axis=1, keepdims=True, out=grads.b2)
        return objective

    def keep(self, models: list[int]) -> "_Workspace":
        """A workspace of the given models only, carrying over their weights and gradients."""
        ws = _Workspace(self.theta[models], self.dims, self.x, self.yb, self.yu, self.H, self.lam[models], self.kind,
                        self.xw)
        ws.grad[...] = self.grad[models]
        return ws

    def step(self, eta: float, bias: bool) -> None:
        """theta -= eta * grad, scaling ``grad`` in place; without ``bias`` the biases stay as they are."""
        cols = slice(None) if bias else slice(self.n_weights)
        step, theta = self.grad[:, cols], self.theta[:, cols]
        np.multiply(step, eta, out=step)
        np.subtract(theta, step, out=theta)


def loss_and_grads(params: NetworkParams, x: np.ndarray, yb: np.ndarray, yu: np.ndarray,
                   H: np.ndarray, lam: np.ndarray, kind: str) -> tuple[np.ndarray, NetworkParams]:
    """Objective sum_t E_t over the fitted rows of (x, yb, yu) and its gradient.

    Row t holds a network input and its bottom and upper targets; ``lam``
    is the weight vector. Rows of ``x`` past ``len(yb)`` are forwarded but
    not fitted, and leave the result unchanged. The weights may carry a
    leading model axis, with biases shaped (K, 1, n) and ``lam`` (K, 1,
    |U|): the objective is then one value per model, and each model's
    objective and gradient have the bits of a call on that model alone. The
    gradient comes from the closed-form deltas

        d3 = (u3 - y^B) - Lambda^2 (y^U - H u3) H,   d2 = (d3 W3) * f'(u2),

    summed over rows as outer products with each layer's input. Training
    runs the same computation in a :class:`_Workspace` it keeps across
    epochs.
    """
    stacked = params.w2.ndim == 3
    theta = _flat(params)
    dims = NetworkDims(params.w2.shape[-1], params.w2.shape[-2], params.w3.shape[-2])
    n = len(yb)
    ws = _Workspace(theta, dims, x[:n], yb, yu, H, np.reshape(lam, (len(theta), 1, -1)), kind,
                    x[n:] if len(x) > n else None)
    objective = ws.loss_and_grads()
    grads = NetworkParams(*(g.reshape(p.shape) for g, p in zip(ws.grads, params)))
    return (objective if stacked else objective[0]), grads


def _fit(x: np.ndarray, yb: np.ndarray, yu: np.ndarray, H: np.ndarray, lams: np.ndarray,
         params: list[NetworkParams], config: TrainConfig,
         hook: Callable[[int, np.ndarray], np.ndarray] | None = None) -> list[TrainResult]:
    """Full-batch descent of K models on the shared rows of (x, yb, yu).

    Model k starts from ``params[k]`` (updated in place) under the weight
    row ``lams[k]``. The models train as one stack in a :class:`_Workspace`,
    so each numpy call serves every model, and a model leaves the stack at
    its own stopping epoch (the workspace is then rebuilt for the rest), so
    its parameters, objective, epochs and stop reason are bit-identical to
    a batch of one. An objective that becomes non-finite or rises is a
    divergence; if models diverge, the error is the one a model-by-model
    run would raise: that of the lowest-index one.

    A hook, if given, scores the models after each epoch. Its input rows
    ``hook.x`` are the workspace's watch rows, forwarded by every epoch's
    objective evaluation, and their bottom outputs are buffered, about
    ``TRACE_ROWS`` model-epochs at a time, then scored in
    one call ``hook(first_epoch, forecasts)``. The forecasts are shaped
    (E, K_live, len(hook.x), |B|): E consecutive epochs of the models in the
    stack, in stack order, as a view of a reused buffer. The hook returns
    one row per epoch and model, (E, K_live, ...), and model k's rows form
    its ``epoch_eval``. A model that diverges leaves before its last epoch
    is buffered.
    """
    eta, keep_rate = config.eta, 1.0 - config.eps
    ws = _Workspace(_flat(NetworkParams(*(np.stack(a) for a in zip(*params)))), params[0].dims, x, yb, yu, H,
                    np.asarray(lams, dtype=np.float64).reshape(len(params), 1, -1), config.activation,
                    None if hook is None else hook.x)
    live = list(range(len(params)))  # original index of each stacked model
    e_prev = [np.inf] * len(params)
    objective: list[list[float]] = [[] for _ in params]
    results: list[TrainResult | None] = [None] * len(params)
    diverged: tuple[int, int, bool] | None = None  # (epoch, model, rose) of the lowest-index divergence
    block, block_models, filled, first = None, [], 0, 0  # buffered forecasts of epochs first.. for the hook
    trace: np.ndarray | None = None  # hook rows, (epoch, original model index, ...)

    def flush() -> None:
        nonlocal filled, trace
        if not filled:
            return
        scores = hook(first, block[:filled])
        end = first - 1 + filled
        if trace is None or end > len(trace):  # grow to the epoch cap at most, doubling
            grown = np.empty((min(config.max_epochs, max(2 * end, 256)), len(params)) + scores.shape[2:])
            if trace is not None:
                grown[:len(trace)] = trace
            trace = grown
        trace[first - 1:end, block_models] = scores
        filled = 0

    def record(epoch: int, forecasts: np.ndarray) -> None:
        nonlocal block, block_models, filled, first
        if block is None or block.shape[1] != len(forecasts):
            block = np.empty((max(1, TRACE_ROWS // len(forecasts)),) + forecasts.shape)
        if not filled:
            first, block_models = epoch, live[:len(forecasts)]
        block[filled] = forecasts
        filled += 1
        if filled == len(block):
            flush()

    def finish(pos: int, epochs: int, reason: str) -> None:
        k = live[pos]
        p = params[k]
        for dst, src in zip(p, ws.net):
            dst[...] = src[pos].reshape(dst.shape)
        results[k] = TrainResult(params=p, objective=np.asarray(objective[k]), epochs=epochs, reason=reason,
                                 epoch_eval=None if trace is None else trace[:epochs, k].copy())

    ws.loss_and_grads()
    epoch = 0
    while epoch < config.max_epochs and live:
        epoch += 1
        ws.step(eta, config.bias)
        e_list = ws.loss_and_grads().tolist()
        bad = next((pos for pos, e in enumerate(e_list) if not math.isfinite(e) or e > e_prev[live[pos]]),
                   len(live))
        if bad < len(live):
            # A model-by-model run never reaches the models after a diverged one,
            # so they leave before this epoch is recorded.
            diverged = (epoch, live[bad], math.isfinite(e_list[bad]))
            flush()
        stopping = []
        for pos, e in enumerate(e_list[:bad]):
            k = live[pos]
            objective[k].append(e)
            if e > keep_rate * e_prev[k]:
                stopping.append(pos)
            e_prev[k] = e
        if hook is not None and bad:
            record(epoch, ws.u3w[:bad])
            if stopping:
                flush()
        for pos in stopping:
            finish(pos, epoch, "converged")
        if stopping or bad < len(live):
            keep = [pos for pos in range(bad) if pos not in stopping]
            live = [live[pos] for pos in keep]
            ws = ws.keep(keep)

    flush()
    for pos in range(len(live)):
        finish(pos, epoch, "max_epochs")
    if diverged is not None:
        raise TrainingDiverged(*diverged)
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


def _stacks(problem: tuple, lams: np.ndarray, seeds: list[int], config: TrainConfig,
            hook: Callable[[int, np.ndarray], np.ndarray] | None = None) -> list[TrainResult]:
    """Model k, initialized from ``seeds[k]`` under weight row ``lams[k]``, in stacks of ``STACK_LIMIT``."""
    x, yb, yu, H, dims = problem
    results: list[TrainResult] = []
    for start in range(0, len(seeds), STACK_LIMIT):
        params = [init_params(dims, seed, bias=config.bias) for seed in seeds[start: start + STACK_LIMIT]]
        try:
            results += _fit(x, yb, yu, H, lams[start: start + STACK_LIMIT], params, config, hook)
        except TrainingDiverged as exc:  # later stacks hold higher indices only
            raise TrainingDiverged(exc.epoch, start + exc.model, exc.rose) from None
    return results


def train_batch(panel: SeriesPanel, h: HierarchySpec, regs: list[RegWeights], config: TrainConfig,
                seeds: list[int] | None = None,
                hook: Callable[[int, np.ndarray], np.ndarray] | None = None) -> list[TrainResult]:
    """Train one bottom-level network per weight set on one design.

    The panel is expected to be standardized. Inputs are actual lagged
    bottom values; targets are the bottom and upper observations at each
    training timepoint. Network k starts from ``seeds[k]`` (default: the
    config seed); result k is bit-identical to training it alone, as the
    networks share each epoch's numpy calls, up to ``STACK_LIMIT`` at a
    time. ``hook`` is the stack hook of :func:`_fit`.
    """
    seeds = [config.seed] * len(regs) if seeds is None else list(seeds)
    if len(seeds) != len(regs):
        raise ValueError(f"{len(regs)} weight sets but {len(seeds)} seeds")
    lams = np.array([reg.vec for reg in regs])
    return _stacks(_bottom_problem(panel, h, config), lams, seeds, config, hook)


def train_all_node_batch(panel: SeriesPanel, config: TrainConfig, seeds: list[int]) -> list[TrainResult]:
    """Train unregularized networks forecasting every node from all-node lags, one per seed.

    Used to produce base forecasts for trace-minimization reconciliation:
    the structured objective with no upper nodes (an empty H), so plain
    squared error over all nodes, with the same descent and sizing rule.
    """
    x, y, yu, dims = _design(panel, 0, config)
    return _stacks((x, y, yu, np.zeros((0, panel.n_nodes)), dims), np.zeros((len(seeds), 0)), list(seeds), config)


def predict(params: NetworkParams, rows: np.ndarray, config: TrainConfig, timepoints: range | list[int]) -> np.ndarray:
    """One-step forecasts (series x len) of the network whose inputs are lags of ``rows``.

    ``rows`` are the actual series the network reads, which are also the
    series it forecasts: ``panel.bottom_values`` for a bottom-level network,
    ``panel.values`` for an all-node base network.
    """
    return forward(params, lagged_design(rows, config.lag, timepoints), config.activation)[1].T
