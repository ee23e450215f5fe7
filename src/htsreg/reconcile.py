"""Convert base forecasts into coherent ones: bottom-up, top-down, MinT."""

from __future__ import annotations

import numpy as np

from .hierarchy import HierarchySpec, aggregate_bottom, summing_matrix
from .panel import SeriesPanel

_GAMMA_LADDER = tuple(1e-8 * 10.0 ** k for k in range(7))  # 1e-8 .. 1e-2


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive-definite matrix (L L' = a), read from its lower triangle.

    Raises ``np.linalg.LinAlgError`` when ``a`` is not positive definite and
    ``ValueError`` when it holds a NaN or an infinity, from which LAPACK
    would return a non-finite factor without complaint.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix to factor contains non-finite values")
    return np.linalg.cholesky(a)


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (c c') x = b for the lower Cholesky factor c: a solve with c, then one with c'.

    ``b`` is a vector or a matrix of right-hand sides; ``ValueError`` on a
    non-finite entry of ``c`` or ``b``.
    """
    c = np.asarray(c, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(b))):
        raise ValueError("Cholesky solve input contains non-finite values")
    return np.linalg.solve(c.T, np.linalg.solve(c, b))


def historical_proportions(panel: SeriesPanel) -> np.ndarray:
    """p_i = (training total of bottom node i) / (training total of the root).

    On a coherent raw panel the entries sum to one. On independently
    standardized data the root total is near zero and the ratios are
    meaningless; top-down disaggregation is only sensible on raw scales.
    """
    t = panel.train_len
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
    timepoints; at least |N| + 1 residual vectors are required. Both are
    read in column-major order, so W's bits do not depend on their layout.
    """
    b = np.asarray(base, dtype=np.float64, order="F")
    a = np.asarray(actual, dtype=np.float64, order="F")
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


def mint_reconcile(h: HierarchySpec, base_all: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Trace-minimizing reconciliation  y~ = S (S' W^-1 S)^-1 S' W^-1 y^ of the |N| x T base forecasts.

    ``w`` must be symmetric to 1e-12 of its largest entry, since the
    factorization reads one triangle. It is conditioned with a ridge of
    gamma * mean(diag(w)) before each factorization attempt, escalating
    gamma tenfold from 1e-8 to 1e-2; solves go through Cholesky
    factorizations, never an explicit inverse.
    Scaling w by a positive constant leaves the output unchanged.
    Returns the coherent forecasts, the gamma that made the factorization
    succeed and the 2-norm condition number of the conditioned W.
    """
    base = np.asarray(base_all, dtype=np.float64)
    if base.ndim != 2 or base.shape[0] != h.n_nodes:
        raise ValueError(f"expected {h.n_nodes} base-forecast rows, got array of shape {base.shape}")
    if not np.all(np.isfinite(base)):
        raise ValueError("base forecasts contain non-finite values")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (h.n_nodes, h.n_nodes):
        raise ValueError(f"W must be {h.n_nodes} x {h.n_nodes}, got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("W contains non-finite values")
    if np.max(np.abs(w - w.T)) > 1e-12 * np.max(np.abs(w)):
        raise ValueError("W must be symmetric")

    s = np.asarray(summing_matrix(h))
    eye = np.eye(h.n_nodes)
    # Overflow is caught, not warned about: cho_factor and cho_solve reject non-finite input.
    with np.errstate(over="ignore", invalid="ignore"):
        ridge_unit = float(np.mean(np.diag(w)))
        for gamma in _GAMMA_LADDER:
            w_c = w + gamma * ridge_unit * eye
            try:
                cw = cho_factor(w_c)
                winv_s = cho_solve(cw, s)            # W^-1 S
                ca = cho_factor(s.T @ winv_s)
            except np.linalg.LinAlgError:
                continue
            break
        else:
            raise ValueError(
                "base-forecast covariance is singular beyond repair; "
                "inflate the ridge or supply a better-conditioned W"
            )
        bottom = cho_solve(ca, winv_s.T @ base)  # (S' W^-1 S)^-1 S' W^-1 y^
        coherent = aggregate_bottom(h, bottom)
    if not np.all(np.isfinite(coherent)):
        raise ValueError("reconciled forecasts overflow; rescale W or the base forecasts")
    return coherent, gamma, float(np.linalg.cond(w_c))


def check_unbiasedness(p_matrix: np.ndarray, s_matrix: np.ndarray) -> float:
    """Largest entry of |S P S - S|; zero for any unbiasedness-preserving P."""
    s = np.asarray(s_matrix, dtype=np.float64)
    p = np.asarray(p_matrix, dtype=np.float64)
    return float(np.max(np.abs(s @ p @ s - s)))
