"""Synthetic benchmark generator: AR(1) common factors driving bottom series.

Three presets (NgtvC, WeakC, PstvC) share one 13-node tree and differ only
in how strongly the factor loadings correlate the bottom series: negatively,
weakly, or positively. The module is the preset table below and one code
path, :func:`_series`.
"""

from __future__ import annotations

import numpy as np

from .hierarchy import HierarchySpec, aggregate_bottom, build_hierarchy
from .panel import SeriesPanel, default_train_len

PRNG_IDENTITY = (
    "numpy PCG64 seeded via SeedSequence(seed, spawn_key=(role, node)); "
    "normal variates from Generator.standard_normal (ziggurat)"
)

PRESET_PARENTS: dict[int, int] = {
    2: 1, 3: 1, 4: 1,
    5: 2, 6: 2, 7: 2,
    8: 3, 9: 3, 10: 3,
    11: 4, 12: 4, 13: 4,
}

# (rho_i, theta_i) per bottom node: its loadings on the root factor and on its mid's factor.
_PRESET_LOADINGS: dict[str, dict[int, tuple[float, float]]] = {
    "NgtvC": {
        5: (0.1, 1.0), 6: (-0.1, -1.0), 7: (1.0, 0.1),
        8: (0.1, 1.0), 9: (-0.1, -1.0), 10: (-1.0, 0.1),
        11: (0.1, 1.0), 12: (-0.1, -1.0), 13: (1.0, 0.1),
    },
    "WeakC": {i: (0.1, 0.1) for i in range(5, 14)},
    "PstvC": {i: (1.0, 1.0) for i in range(5, 14)},
}

PRESET_NAMES = tuple(_PRESET_LOADINGS)

# AR coefficient and noise sd of every node, and the kept length of each series.
PHI = SIGMA = 0.3
T_TOTAL = 100
# Steps of each AR(1) path discarded before the kept series start.
BURN_IN = 50

_FACTOR_ROLE, _BOTTOM_ROLE = 0, 1


def preset_hierarchy() -> HierarchySpec:
    """The 13-node tree shared by all presets (3 mids, 3 bottoms each)."""
    return build_hierarchy(PRESET_PARENTS)


def _ar1_path(seed: int, role: int, node: int, drive: float | np.ndarray = 0.0,
              n_steps: int = BURN_IN + T_TOTAL) -> np.ndarray:
    """AR(1) path from zero on ``drive + SIGMA * normals``. The normals come from the
    node's own substream, so they depend only on the seed, the role and the node."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(role, node))))
    shocks = drive + SIGMA * rng.standard_normal(n_steps)
    path = np.empty_like(shocks)
    prev = 0.0
    for k in range(n_steps):
        prev = PHI * prev + shocks[k]
        path[k] = prev
    return path


def _series(preset: str, seed: int, t_total: int = T_TOTAL) -> tuple[np.ndarray, np.ndarray]:
    """Factor paths (root, then mids; burn-in kept) and bottom series (burn-in dropped) of a preset.

    Bottom node i under mid r is driven by ``rho_i * psi_0 + theta_i * psi_r``.
    Rows follow the preset tree's ``upper_ids`` and ``bottom_ids``.
    """
    if preset not in _PRESET_LOADINGS:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESET_NAMES}")
    h, n_steps = preset_hierarchy(), BURN_IN + t_total
    psi = np.vstack([_ar1_path(seed, _FACTOR_ROLE, node, n_steps=n_steps) for node in h.upper_ids])
    bottom = np.empty((h.n_bottom, t_total))
    for r, rows in enumerate(h.upper_rows[1:], start=1):
        for i in rows:
            node = h.bottom_ids[i]
            rho, theta = _PRESET_LOADINGS[preset][node]
            bottom[i] = _ar1_path(seed, _BOTTOM_ROLE, node, rho * psi[0] + theta * psi[r], n_steps)[BURN_IN:]
    return psi, bottom


def generate_dataset(preset: str, seed: int = 0) -> SeriesPanel:
    """Generate the full coherent panel of a named preset on its 13-node tree.

    Upper-level rows come from exact aggregation, so the raw panel is
    coherent to the bit. Output is byte-identical for identical (preset, seed).
    """
    h = preset_hierarchy()
    return SeriesPanel(h, aggregate_bottom(h, _series(preset, seed)[1]), default_train_len(T_TOTAL))
