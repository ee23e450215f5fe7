"""Two-layer feedforward network: dims, parameters, initialization, activations, the checkpoint writer."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class NetworkDims:
    input_dim: int
    hidden_dim: int
    output_dim: int

    def __post_init__(self) -> None:
        if min(self.input_dim, self.hidden_dim, self.output_dim) < 1:
            raise ValueError(f"all dimensions must be positive, got {self}")


@dataclass
class NetworkParams:
    """Weights and biases; w2/b2 feed the hidden layer, w3/b3 the output."""

    w2: np.ndarray  # hidden x input
    b2: np.ndarray  # hidden
    w3: np.ndarray  # output x hidden
    b3: np.ndarray  # output

    @property
    def dims(self) -> NetworkDims:
        return NetworkDims(self.w2.shape[1], self.w2.shape[0], self.w3.shape[0])

    def __iter__(self):
        return iter((self.w2, self.b2, self.w3, self.b3))


def init_params(dims: NetworkDims, seed: int, bias: bool = True) -> NetworkParams:
    """Draw every weight (and bias, unless disabled) i.i.d. standard normal.

    Draw order is w2, b2, w3, b3 from a PCG64 generator seeded with
    ``seed``, so identical seeds give identical parameters. With
    ``bias=False`` the bias vectors are zero and not drawn.
    """
    rng = np.random.default_rng(seed)
    w2 = rng.standard_normal((dims.hidden_dim, dims.input_dim))
    b2 = rng.standard_normal(dims.hidden_dim) if bias else np.zeros(dims.hidden_dim)
    w3 = rng.standard_normal((dims.output_dim, dims.hidden_dim))
    b3 = rng.standard_normal(dims.output_dim) if bias else np.zeros(dims.output_dim)
    return NetworkParams(w2=w2, b2=b2, w3=w3, b3=b3)


def activation(u: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise sigmoid or rectifier, written to ``out`` if given (which may be ``u`` itself).

    The sigmoid is 1 / (1 + exp(-u)), four passes in place with one exp,
    within 3 ulp of the exact value. Below u of about -709.78 exp(-u)
    overflows to inf, which is contained here, and the result is exactly 0
    (the true value is below 5.6e-309).
    """
    res = np.empty_like(u) if out is None else out
    if kind == "sigmoid":
        with np.errstate(over="ignore"):
            np.exp(np.negative(u, out=res), out=res)
        np.add(res, 1.0, out=res)
        np.divide(1.0, res, out=res)
    elif kind == "relu":
        np.maximum(u, 0.0, out=res)
    else:
        raise ValueError(f"unknown activation kind {kind!r}")
    return res


def save_checkpoint(params: NetworkParams, path: str | Path, seed: int | None = None) -> None:
    """JSON checkpoint; floats are written with full round-trip precision."""
    d = params.dims
    payload = {
        "dims": {"input_dim": d.input_dim, "hidden_dim": d.hidden_dim, "output_dim": d.output_dim},
        "seed": seed,
        **{key: a.tolist() for key, a in zip(("w2", "b2", "w3", "b3"), params)},
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")
