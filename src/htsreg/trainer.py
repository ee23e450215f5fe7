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

from .neuralnet import NetworkDims, NetworkParams, activation, init_params
from .panel import SeriesPanel, lagged_design

# Models per stacked run in train_batch. Per-model epoch cost is flat up to
# about 128 models and grows beyond (the stack outgrows the cache), so large
# grids run as consecutive stacks, which also bounds memory.
STACK_LIMIT = 64
# Weight rows (model-epochs) _fit buffers, or one epoch of a larger stack, before
# it forwards them in one call and its hook scores them in one call: fewer, larger
# calls, with the buffer bounded whatever the stack size. Larger buffers were at
# most slightly faster at K = 2, and each doubling adds about 1 MB to peak memory.
TRACE_ROWS = 64


def _is_int(value: object) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 1e-5
    eps: float = 5e-5
    max_epochs: int = 10_000
    activation: str = "sigmoid"
    lag: int = 2
    bias: bool = True
    hidden_dim: int | None = None  # default: twice the input width

    def __post_init__(self) -> None:
        for name, top in (("eta", math.inf), ("eps", 1)):  # at eps >= 1 the stopping rule stops after one epoch
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < top:
                raise ValueError(f"{name} must be a number in (0, {top}), got {value!r}")
        for name, low in (("max_epochs", 0), ("lag", 1)):
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


def _with_ones(x: np.ndarray) -> np.ndarray:
    """The rows of x with a ones column appended, the input of layer 1's [w2 | b2] (see ``NetworkParams``)."""
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def _forward(w1T: np.ndarray, w3T: np.ndarray, b3: np.ndarray, x1: np.ndarray, kind: str,
             out: tuple[np.ndarray | None, np.ndarray | None] = (None, None)) -> tuple[np.ndarray, np.ndarray]:
    """:func:`forward` on the transposes of layer 1's [w2 | b2] and of w3, and rows with their ones column."""
    z2 = np.matmul(x1, w1T, out=out[0])
    activation(z2, kind, out=z2)
    u3 = np.matmul(z2, w3T, out=out[1])
    np.add(u3, b3, out=u3)
    return z2, u3


def forward(params: NetworkParams, x: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations z2 = f(x W2' + b2) and linear outputs u3 = z2 W3' + b3 for the rows of x.

    Layer 1 is one product, [x | 1] [W2 | b2]', on the ``w1`` view of the
    flat weights. The weights may be a stack (see ``NetworkParams``); each
    model's slice then gives the bits of a network of its own, which are
    the bits training computes for it.
    """
    w1, _, _, w3, b3 = params.views()
    return _forward(np.swapaxes(w1, -1, -2), np.swapaxes(w3, -1, -2), b3, _with_ones(x), kind)


class _Workspace:
    """Preallocated buffers of one epoch of K stacked models on shared rows.

    ``theta`` and ``grad`` hold a flat row per model (see ``NetworkParams``),
    and their views are bound once: ``w1T``, ``w3``, ``w3T`` and ``b3`` of
    the weights, ``g1``, ``gb2``, ``gw3`` and ``gb3`` of the gradient. The
    rows ``x1`` carry the ones column of :func:`_with_ones`. The targets and
    weight rows are tiled to one copy per model, as numpy's elementwise
    calls cost about 1 µs more with an operand to broadcast.
    """

    def __init__(self, theta: np.ndarray, dims: NetworkDims, x1: np.ndarray, yb: np.ndarray, yu: np.ndarray,
                 H: np.ndarray, lam: np.ndarray, kind: str):
        k, n, hd, out, n_upper = len(theta), yb.shape[-2], dims.hidden_dim, dims.output_dim, H.shape[0]
        self.dims, self.theta, self.grad = dims, theta, np.empty_like(theta)
        w1, _, _, self.w3, self.b3 = NetworkParams(theta, dims).views()
        self.w1T, self.w3T = np.swapaxes(w1, 1, 2), np.swapaxes(self.w3, 1, 2)
        self.g1, _, self.gb2, self.gw3, self.gb3 = NetworkParams(self.grad, dims).views()
        self.x1, self.H, self.HT, self.kind = x1, H, H.T, kind
        self.yb, self.yu, self.lam = (np.broadcast_to(a, (k, n, a.shape[-1])).copy() for a in (yb, yu, lam))
        self.lam2 = self.lam * self.lam  # lam * lam, not lam applied twice, which rounds differently
        self.ones = np.ones((1, n))
        self.z2, self.u3 = np.empty((k, n, hd)), np.empty((k, n, out))
        self.res_b, self.sq, self.fp, self.d2 = (np.empty((k, n, m)) for m in (out, out, hd, hd))
        self.res_u, self.upper = np.empty((k, n, n_upper)), np.empty((k, n, n_upper))
        self.d3 = np.empty((k, n, out)) if n_upper else self.res_b  # an empty upper block adds exact zeros
        self.d3T, self.d2T = np.swapaxes(self.d3, 1, 2), np.swapaxes(self.d2, 1, 2)
        self.objective, self.objective_u = np.empty(k), np.empty(k)

    def loss_and_grads(self) -> np.ndarray:
        """The objective sum_t E_t of each model at ``theta`` (a reused buffer); its gradient goes to ``grad``.

        Each model's objective and gradient have the bits of a workspace of
        that model alone. The gradient comes from the closed-form deltas

            d3 = (u3 - y^B) - Lambda^2 (y^U - H u3) H,   d2 = (d3 W3) * f'(u2),

        summed over the fitted rows as outer products with each layer's input.
        """
        z2, u3 = _forward(self.w1T, self.w3T, self.b3, self.x1, self.kind, out=(self.z2, self.u3))
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
        np.matmul(self.d3T, z2, out=self.gw3)
        np.matmul(self.ones, self.d3, out=self.gb3)
        np.matmul(self.d3, self.w3, out=self.d2)
        if self.kind == "sigmoid":
            np.subtract(1.0, z2, out=self.fp)
            np.multiply(z2, self.fp, out=self.fp)
        else:
            np.greater(z2, 0.0, out=self.fp)
        np.multiply(self.d2, self.fp, out=self.d2)
        np.matmul(self.d2T, self.x1, out=self.g1)
        return objective

    def keep(self, models: list[int]) -> "_Workspace":
        """A workspace of the given models only, carrying over their weights and gradients."""
        ws = _Workspace(self.theta[models], self.dims, self.x1, self.yb[models], self.yu[models], self.H,
                        self.lam[models], self.kind)
        ws.grad[...] = self.grad[models]
        return ws

    def step(self, eta: float, bias: bool) -> None:
        """theta -= eta * grad, scaling ``grad`` in place; without ``bias`` the bias gradients are zeroed first."""
        if not bias:
            self.gb2[...] = self.gb3[...] = 0.0
        np.multiply(self.grad, eta, out=self.grad)
        np.subtract(self.theta, self.grad, out=self.theta)


class _Trace:
    """A stack's epoch trace: a flat buffer of weight rows, each tagged with its model, and the hook's rows.

    :meth:`record` appends an epoch's weights of the models in the stack to
    a buffer of max(``TRACE_ROWS``, K) rows, flushing first if they would
    not fit. A flush forwards the buffered rows over the watch rows ``xw``
    in one :func:`forward` call, each row in products of its own (the bits
    of a model alone), and passes the forecasts, (rows, len(xw), outputs),
    to one call ``hook(forecasts)``, which returns a row of scores per
    weight row. Each model's scores, in the order its rows were recorded,
    form its ``epoch_eval``.
    """

    def __init__(self, hook: Callable[[np.ndarray], np.ndarray], xw: np.ndarray, theta: np.ndarray,
                 dims: NetworkDims, kind: str):
        self.hook, self.xw, self.dims, self.kind = hook, xw, dims, kind
        self.weights = np.empty((max(TRACE_ROWS, len(theta)), theta.shape[1]))
        self.owners: list[int] = []  # the model of each buffered row
        self.scores: list[np.ndarray] = []  # the hook's rows of each flush
        self.models: list[np.ndarray] = []  # and their models

    def record(self, theta: np.ndarray, models: list[int]) -> None:
        """Buffer the weights ``theta`` (K, P) of the given models (original indices) after an epoch."""
        if len(self.owners) + len(models) > len(self.weights):
            self.flush()
        self.weights[len(self.owners):len(self.owners) + len(models)] = theta
        self.owners += models

    def flush(self) -> None:
        """Score the buffered rows."""
        if self.owners:
            u3 = forward(NetworkParams(self.weights[:len(self.owners)], self.dims), self.xw, self.kind)[1]
            self.scores.append(self.hook(u3))
            self.models.append(np.array(self.owners))
            self.owners = []


def _fit(x: np.ndarray, yb: np.ndarray, yu: np.ndarray, H: np.ndarray, lams: np.ndarray,
         params: list[NetworkParams], config: TrainConfig,
         hook: Callable[[np.ndarray], np.ndarray] | None = None, xw: np.ndarray | None = None) -> list[TrainResult]:
    """Full-batch descent of K models on the shared rows of (x, yb, yu).

    Model k starts from ``params[k]`` (updated in place) under the weight
    row ``lams[k]``. The models train as one stack in a :class:`_Workspace`,
    so each numpy call serves every model, and a model leaves the stack at
    its own stopping epoch (the workspace is then rebuilt for the rest), so
    its parameters, epochs, stop reason and hook rows are bit-identical to
    a batch of one. An objective that becomes non-finite or rises is a
    divergence; if models diverge, the error is the one a model-by-model
    run would raise: that of the lowest-index one.

    A hook, if given, scores each epoch's models on the watch rows ``xw``
    through a :class:`_Trace`, at the weights that epoch's objective was
    evaluated at, and model k's rows form its ``epoch_eval``. A model that
    diverges leaves before its last epoch is recorded.
    """
    eta, keep_rate = config.eta, 1.0 - config.eps
    ws = _Workspace(np.stack([p.theta for p in params]), params[0].dims, _with_ones(x), yb, yu, H,
                    np.asarray(lams, dtype=np.float64).reshape(len(params), 1, -1), config.activation)
    trace = None if hook is None else _Trace(hook, xw, ws.theta, params[0].dims, config.activation)
    live = list(range(len(params)))  # original index of each stacked model
    e_prev = [np.inf] * len(params)
    results: list[TrainResult | None] = [None] * len(params)
    diverged: tuple[int, int, bool] | None = None  # (epoch, model, rose) of the lowest-index divergence

    def finish(pos: int, epochs: int, reason: str) -> None:
        k = live[pos]
        params[k].theta[...] = ws.theta[pos]
        results[k] = TrainResult(params=params[k], epochs=epochs, reason=reason)

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
        stopping = []
        for pos, e in enumerate(e_list[:bad]):
            k = live[pos]
            if e > keep_rate * e_prev[k]:
                stopping.append(pos)
            e_prev[k] = e
        if trace is not None and bad:
            trace.record(ws.theta[:bad], live[:bad])
        for pos in stopping:
            finish(pos, epoch, "converged")
        if stopping or bad < len(live):
            keep = [pos for pos in range(bad) if pos not in stopping]
            live = [live[pos] for pos in keep]
            ws = ws.keep(keep)

    for pos in range(len(live)):
        finish(pos, epoch, "max_epochs")
    if trace is not None:
        trace.flush()
    if diverged is not None:
        raise TrainingDiverged(*diverged)
    if trace is not None and trace.scores:
        scores, models = np.concatenate(trace.scores), np.concatenate(trace.models)
        for k, result in enumerate(results):
            result.epoch_eval = scores[models == k]
    return results


def train_batch(panel: SeriesPanel, H: np.ndarray, lams: np.ndarray, seeds: list[int], config: TrainConfig,
                hook: Callable[[np.ndarray], np.ndarray] | None = None) -> list[TrainResult]:
    """Train network k from ``init_params(seeds[k])`` under the weight row ``lams[k]``.

    Each network forecasts the trailing ``H.shape[1]`` rows of the
    (standardized) panel from their own lags, fitted on the panel columns
    [lag, train_len); H maps its outputs to the leading ``H.shape[0]``
    rows, whose errors ``lams[k]`` weighs. A
    bottom-level network passes ``structure_matrix(h)``. An all-node base
    network for trace-minimization reconciliation passes an H with no rows
    and empty weight rows: plain squared error over all nodes. Networks
    share each epoch's numpy calls, up to ``STACK_LIMIT`` at a time, and
    result k is bit-identical to training it alone. ``hook`` is the stack
    hook of :func:`_fit`: it scores each epoch's weights on the test
    columns [train_len, n_time), many weight rows per call (see :class:`_Trace`).
    """
    H, lams = np.asarray(H, dtype=np.float64), np.asarray(lams, dtype=np.float64)
    n_upper, n_out = H.shape
    if n_upper + n_out != panel.n_nodes:
        raise ValueError(f"H of shape {H.shape} does not fit a panel of {panel.n_nodes} rows")
    if lams.shape != (len(seeds), n_upper):
        raise ValueError(f"need a weight row of length {n_upper} per seed, got {lams.shape} for {len(seeds)} seeds")
    if not np.all(np.isfinite(lams) & (lams >= 0)):
        raise ValueError(f"regularization weights must be finite and nonnegative, got {lams.tolist()}")
    lag, rows = config.lag, panel.values[n_upper:]
    if panel.train_len <= lag:
        raise ValueError(f"training period of length {panel.train_len} leaves no usable timepoints at lag {lag}")
    targets = panel.values[:, lag:panel.train_len].T.copy()
    input_dim = lag * n_out
    dims = NetworkDims(input_dim, 2 * input_dim if config.hidden_dim is None else config.hidden_dim, n_out)
    x, yb, yu = lagged_design(rows, lag, lag, panel.train_len), targets[:, n_upper:], targets[:, :n_upper]
    xw = None if hook is None else lagged_design(rows, lag, panel.train_len, panel.n_time)
    results: list[TrainResult] = []
    for start in range(0, len(seeds), STACK_LIMIT):
        params = [init_params(dims, seed, bias=config.bias) for seed in seeds[start: start + STACK_LIMIT]]
        try:
            results += _fit(x, yb, yu, H, lams[start: start + STACK_LIMIT], params, config, hook, xw)
        except TrainingDiverged as exc:  # later stacks hold higher indices only
            raise TrainingDiverged(exc.epoch, start + exc.model, exc.rose) from None
    return results


def predict(params: NetworkParams, panel: SeriesPanel, config: TrainConfig, start: int, stop: int) -> np.ndarray:
    """One-step forecasts (series x columns) of panel columns [start, stop) from the network's own lags.

    A network reads and forecasts the panel's trailing ``output_dim`` rows,
    as :func:`train_batch` trains it: the bottom rows for a bottom-level
    network, every row for an all-node base network.
    """
    rows = panel.values[panel.n_nodes - params.dims.output_dim:]
    return forward(params, lagged_design(rows, config.lag, start, stop), config.activation)[1].T
