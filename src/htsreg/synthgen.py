"""Synthetic benchmark generators: AR(1) common factors driving bottom series.

Three presets (NgtvC, WeakC, PstvC) share one 13-node tree and differ only
in how strongly the factor loadings correlate the bottom series: negatively,
weakly, or positively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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

# (rho_i, theta_i) per bottom node; phi_i = sigma_i = 0.3 for every node.
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

# Steps of each AR(1) path discarded before the kept series start.
BURN_IN = 50

_FACTOR_ROLE = 0
_BOTTOM_ROLE = 1


@dataclass(frozen=True)
class SynthParams:
    """Generator parameters: AR coefficients, noise sds, factor loadings.

    ``phi`` and ``sigma`` cover every node; ``rho`` (root-factor loading)
    and ``theta`` (mid-factor loading) cover bottom nodes only.
    """

    phi: Mapping[int, float]
    sigma: Mapping[int, float]
    rho: Mapping[int, float]
    theta: Mapping[int, float]
    t_total: int = 100
    burn_in: int = BURN_IN
    seed: int = 0

    def __post_init__(self) -> None:
        for node, s in self.sigma.items():
            if s < 0:
                raise ValueError(f"sigma must be nonnegative, got {s} for node {node}")
        if self.t_total < 1:
            raise ValueError("t_total must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")


def preset_params(name: str, *, t_total: int = 100, burn_in: int = BURN_IN, seed: int = 0) -> SynthParams:
    """Parameter set for one of the named presets."""
    if name not in _PRESET_LOADINGS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    loadings = _PRESET_LOADINGS[name]
    nodes = [1, 2, 3, 4] + sorted(loadings)
    return SynthParams(
        phi={n: 0.3 for n in nodes},
        sigma={n: 0.3 for n in nodes},
        rho={n: loadings[n][0] for n in sorted(loadings)},
        theta={n: loadings[n][1] for n in sorted(loadings)},
        t_total=t_total,
        burn_in=burn_in,
        seed=seed,
    )


def preset_hierarchy() -> HierarchySpec:
    """The 13-node tree shared by all presets (3 mids, 3 bottoms each)."""
    return build_hierarchy(PRESET_PARENTS)


def _node_stream(seed: int, role: int, node: int) -> np.random.Generator:
    # One substream per (role, node) so adding nodes never perturbs the
    # noise consumed by existing ones.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(role, node))))


def _ar1_path(phi: float, shocks: np.ndarray) -> np.ndarray:
    path = np.empty_like(shocks)
    prev = 0.0
    for k in range(shocks.shape[0]):
        prev = phi * prev + shocks[k]
        path[k] = prev
    return path


def generate_factors(params: SynthParams, h: HierarchySpec) -> np.ndarray:
    """AR(1) common-factor paths, one row per upper node of ``h`` (root, then mids).

    Paths start from zero and run for burn_in + t_total steps; the burn-in
    prefix is kept, as :func:`generate_bottom` reads it.
    """
    n_steps = params.burn_in + params.t_total
    rows = []
    for node in h.upper_ids:
        rng = _node_stream(params.seed, _FACTOR_ROLE, node)
        shocks = params.sigma[node] * rng.standard_normal(n_steps)
        rows.append(_ar1_path(params.phi[node], shocks))
    return np.vstack(rows)


def generate_bottom(params: SynthParams, psi: np.ndarray, h: HierarchySpec) -> np.ndarray:
    """Bottom-level series driven by the root factor, their mid's factor, and AR noise.

    ``psi`` holds the factor paths of :func:`generate_factors`: row 0
    drives every bottom node, row r the children of mid r. The burn-in prefix of the output is discarded.
    Rows follow ``h.bottom_ids``.
    """
    n_steps = params.burn_in + params.t_total
    if psi.shape != (len(h.upper_rows), n_steps):
        raise ValueError(
            f"factor paths must be {len(h.upper_rows)} rows over burn_in + t_total = {n_steps} steps, "
            f"got shape {psi.shape}"
        )
    if set(params.rho) != set(h.bottom_ids):
        raise ValueError("loadings must cover exactly the bottom nodes of the hierarchy")
    out = np.empty((h.n_bottom, params.t_total), dtype=np.float64)
    for r, rows in enumerate(h.upper_rows[1:], start=1):
        for i in rows:
            node = h.bottom_ids[i]
            rng = _node_stream(params.seed, _BOTTOM_ROLE, node)
            noise = params.sigma[node] * rng.standard_normal(n_steps)
            drive = params.rho[node] * psi[0] + params.theta[node] * psi[r] + noise
            out[i] = _ar1_path(params.phi[node], drive)[params.burn_in:]
    return out


def generate_dataset(preset: str, seed: int = 0) -> SeriesPanel:
    """Generate the full coherent panel of a named preset on its 13-node tree.

    Upper-level rows come from exact aggregation, so the raw panel is
    coherent to the bit. Output is byte-identical for identical (preset, seed).
    """
    params, h = preset_params(preset, seed=seed), preset_hierarchy()
    values = aggregate_bottom(h, generate_bottom(params, generate_factors(params, h), h))
    return SeriesPanel(h, values, default_train_len(params.t_total))
