"""Moving-average and exponential-smoothing baselines with grid selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import rmse
from .panel import SeriesPanel

DEFAULT_MA_GRID: tuple[int, ...] = tuple(range(1, 25))
DEFAULT_ES_GRID: tuple[float, ...] = tuple(i / 100 for i in range(101))
# ES selection smooths its alphas in chunks of at most this many forecast values (96 KB of float64,
# at least one alpha); the chunk's training errors take as much again. A larger chunk raised peak RSS.
ES_CHUNK_ELEMENTS = 12_288


@dataclass(frozen=True)
class BaselineChoice:
    method: str  # "MA" or "ES"
    param: int | float

    def __post_init__(self) -> None:
        if self.method not in ("MA", "ES"):
            raise ValueError(f"unknown baseline method {self.method!r}")
        if self.method == "MA" and (int(self.param) != self.param or self.param < 1):
            raise ValueError(f"MA window must be a positive integer, got {self.param}")
        if self.method == "ES" and not 0.0 <= self.param <= 1.0:
            raise ValueError(f"ES alpha must lie in [0, 1], got {self.param}")

    @property
    def label(self) -> str:
        return f"MA({int(self.param)})" if self.method == "MA" else f"ES({self.param:.2f})"

    def forecast(self, values: np.ndarray) -> np.ndarray:
        """One-step forecasts of every row of ``values`` (see :func:`ma_forecast`)."""
        return ma_forecast(values, int(self.param)) if self.method == "MA" else es_forecast(values, self.param)


def ma_forecast(series: np.ndarray, n: int) -> np.ndarray:
    """One-step moving-average forecasts from the previous n actual values.

    ``series`` is one row or a series-by-time matrix. Each row of length T
    gives a row of length T+1 where index p holds the forecast for
    position p (the last entry looks one step past the series). Positions
    with fewer than n preceding values are NaN.
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim not in (1, 2):
        raise ValueError("series must be a row or a series-by-time matrix")
    if n < 1:
        raise ValueError("window must be >= 1")
    if n >= y.shape[-1]:
        raise ValueError(f"window {n} must be smaller than the series length {y.shape[-1]}")
    out = np.full(y.shape[:-1] + (y.shape[-1] + 1,), np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(y, n, axis=-1)
    out[..., n:] = windows.mean(axis=-1)
    return out


def es_forecast(series: np.ndarray, alpha: float | np.ndarray) -> np.ndarray:
    """Exponential smoothing seeded with the first observation.

    fc[0] is the seed y_1; fc[p] = alpha * y_p + (1 - alpha) * fc[p-1],
    row by row. Output rows have length T+1, same alignment as
    :func:`ma_forecast`. A 1-D array of alphas gives one forecast per
    alpha along a new leading axis, each with the bits of the scalar call;
    one loop over time updates every alpha and row at once.
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim not in (1, 2):
        raise ValueError("series must be a row or a series-by-time matrix")
    if y.shape[-1] < 2:
        raise ValueError("series must have length >= 2")
    a = np.asarray(alpha, dtype=np.float64)
    if a.ndim > 1:
        raise ValueError("alpha must be a number or a 1-D array")
    bad = ~((0.0 <= a) & (a <= 1.0))
    if bad.any():
        raise ValueError(f"alpha must lie in [0, 1], got {a[bad].flat[0]}")
    out = np.empty(a.shape + y.shape[:-1] + (y.shape[-1] + 1,))
    a = a.reshape(a.shape + (1,) * y.ndim)
    out[..., 0] = y[..., 0]
    np.multiply(a, y, out=out[..., 1:])  # alpha * y_p once; each step adds the rest in place
    keep = 1.0 - a[..., 0]
    for p in range(1, out.shape[-1]):
        out[..., p] += keep * out[..., p - 1]
    return out


def select_param(panel: SeriesPanel, method: str, grid: tuple | list | None = None) -> BaselineChoice:
    """Grid value minimizing average training-period RMSE over all nodes.

    Ties break toward the smaller parameter. The default grids are
    n in 1..24 and alpha in {0.00, 0.01, ..., 1.00}.
    """
    if method not in ("MA", "ES"):
        raise ValueError(f"unknown baseline method {method!r}")
    if grid is None:
        grid = DEFAULT_MA_GRID if method == "MA" else DEFAULT_ES_GRID
    candidates = sorted(grid)
    if not candidates:
        raise ValueError("parameter grid is empty")
    choices = []
    for param in candidates:
        # Training positions where the forecast exists: t > n for MA, t >= 2 for ES.
        if (int(param) if method == "MA" else 1) < panel.train_len:
            choices.append(BaselineChoice(method=method, param=param))
    y, stop = panel.values, panel.train_len
    if method == "MA":
        scores = [float(rmse(y[:, int(c.param):stop], c.forecast(y)[:, int(c.param):stop]).mean()) for c in choices]
    else:  # one recursion per chunk of alphas; each score has the bits of its alpha alone
        scores = []
        step = max(1, ES_CHUNK_ELEMENTS // (y.shape[0] * (stop + 1)))
        for i in range(0, len(choices), step):
            # Forecasts up to train_len read only the training period, so only it is smoothed.
            fc = es_forecast(y[:, :stop], [c.param for c in choices[i:i + step]])
            scores += rmse(y[:, 1:stop], fc[..., 1:stop]).mean(axis=-1).tolist()
    best: BaselineChoice | None = None
    best_score = np.inf
    for choice, score in zip(choices, scores):
        if score < best_score:
            best_score = score
            best = choice
    if best is None:
        raise ValueError("no grid value yields a defined training forecast")
    return best
