"""Convert base forecasts into coherent ones: bottom-up, top-down, MinT."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import HierarchySpec, aggregate_bottom, summing_matrix
from .panel import SeriesPanel

_GAMMA_LADDER = tuple(1e-8 * 10.0 ** k for k in range(7))  # 1e-8 .. 1e-2


def _bind_cholesky() -> None:
    """Bind scipy's Cholesky routines as module globals, keeping a name already bound (a counting wrapper)."""
    from scipy.linalg import cho_factor, cho_solve  # loaded on first use: most commands solve no MinT

    globals().setdefault("cho_factor", cho_factor)
    globals().setdefault("cho_solve", cho_solve)


def __getattr__(name: str):
    """``cho_factor`` and ``cho_solve`` resolve to scipy's on first access (PEP 562)."""
    if name not in ("cho_factor", "cho_solve"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_cholesky()
    return globals()[name]


def historical_proportions(panel: SeriesPanel, train_len: int | None = None) -> np.ndarray:
    """p_i = (training total of bottom node i) / (training total of the root).

    On a coherent raw panel the entries sum to one. On independently
    standardized data the root total is near zero and the ratios are
    meaningless; top-down disaggregation is only sensible on raw scales.
    """
    t = panel.train_len if train_len is None else train_len
    if not 1 <= t <= panel.n_time:
        raise ValueError(f"train_len {t} outside [1, {panel.n_time}]")
    root_total = float(panel.values[0, :t].sum())
    if root_total == 0.0:
        raise ValueError("zero root total over the training period")
    return panel.bottom_values[:, :t].sum(axis=1) / root_total


def top_down(h: HierarchySpec, base_root: np.ndarray, proportions: np.ndarray) -> np.ndarray:
    """Disaggregate a root forecast row by fixed bottom-level proportions."""
    root = np.atleast_1d(np.asarray(base_root, dtype=np.float64))
    p = np.asarray(proportions, dtype=np.float64)
    if p.shape != (h.n_bottom,):
        raise ValueError(f"expected {h.n_bottom} proportions, got shape {p.shape}")
    return aggregate_bottom(h, np.outer(p, root))


def estimate_w_sample(base: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Sample covariance (denominator n) of in-sample base-forecast residuals.

    ``base`` and ``actual`` are |N| x k matrices over the same training
    timepoints; at least |N| + 1 residual vectors are required.
    """
    b = np.asarray(base, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if b.shape != a.shape or b.ndim != 2:
        raise ValueError(f"base {b.shape} and actual {a.shape} must be matching 2-D matrices")
    n_nodes, k = b.shape
    if k < n_nodes + 1:
        raise ValueError(f"need at least {n_nodes + 1} residual vectors, got {k}")
    resid = a - b
    if not np.all(np.isfinite(resid)):
        raise ValueError("residuals contain non-finite values")
    centered = resid - resid.mean(axis=1, keepdims=True)
    return (centered @ centered.T) / k


@dataclass(frozen=True)
class MintInfo:
    """Diagnostics of one trace-minimization solve."""

    p_matrix: np.ndarray  # |B| x |N| reconciliation matrix
    gamma: float          # ridge factor that made the factorization succeed
    w_condition: float    # 2-norm condition estimate of the conditioned W


def mint_reconcile(h: HierarchySpec, base_all: np.ndarray, w: np.ndarray,
                   return_info: bool = False) -> np.ndarray | tuple[np.ndarray, MintInfo]:
    """Trace-minimizing reconciliation  y~ = S (S' W^-1 S)^-1 S' W^-1 y^.

    ``w`` must be symmetric to 1e-12 of its largest entry, since the
    factorization reads one triangle. It is conditioned with a ridge of
    gamma * mean(diag(w)) before each factorization attempt, escalating
    gamma tenfold from 1e-8 to 1e-2; solves go through Cholesky
    factorizations, never an explicit inverse.
    Scaling w by a positive constant leaves the output unchanged.
    """
    base = np.asarray(base_all, dtype=np.float64)
    squeeze = base.ndim == 1
    if squeeze:
        base = base[:, None]
    if base.shape[0] != h.n_nodes:
        raise ValueError(f"expected {h.n_nodes} base-forecast rows, got {base.shape[0]}")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (h.n_nodes, h.n_nodes):
        raise ValueError(f"W must be {h.n_nodes} x {h.n_nodes}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("W contains non-finite values")
    if np.max(np.abs(w - w.T)) > 1e-12 * np.max(np.abs(w)):
        raise ValueError("W must be symmetric")

    _bind_cholesky()  # cho_factor and cho_solve below are these module globals
    s = np.asarray(summing_matrix(h))
    ridge_unit = float(np.mean(np.diag(w)))
    eye = np.eye(h.n_nodes)
    for gamma in _GAMMA_LADDER:
        w_c = w + gamma * ridge_unit * eye
        try:
            cw = cho_factor(w_c, lower=True)
            winv_s = cho_solve(cw, s)            # W^-1 S
            ca = cho_factor(s.T @ winv_s, lower=True)
        except np.linalg.LinAlgError:
            continue
        bottom = cho_solve(ca, winv_s.T @ base)  # (S' W^-1 S)^-1 S' W^-1 y^
        coherent = aggregate_bottom(h, bottom)
        if squeeze:
            coherent = coherent[:, 0]
        if not return_info:
            return coherent
        info = MintInfo(
            p_matrix=cho_solve(ca, winv_s.T),
            gamma=gamma,
            w_condition=float(np.linalg.cond(w_c)),
        )
        return coherent, info
    raise ValueError(
        "base-forecast covariance is singular beyond repair; "
        "inflate the ridge or supply a better-conditioned W"
    )


@dataclass(frozen=True)
class UnbiasednessCheck:
    max_deviation: float
    within_tol: bool


def check_unbiasedness(p_matrix: np.ndarray, s_matrix: np.ndarray, tol: float = 1e-8) -> UnbiasednessCheck:
    """Largest entry of |S P S - S|; zero for any unbiasedness-preserving P."""
    s = np.asarray(s_matrix, dtype=np.float64)
    p = np.asarray(p_matrix, dtype=np.float64)
    dev = float(np.max(np.abs(s @ p @ s - s)))
    return UnbiasednessCheck(max_deviation=dev, within_tol=dev <= tol)
