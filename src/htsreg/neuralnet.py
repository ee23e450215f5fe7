"""Two-layer feedforward network: dims, parameters, activations, forward pass."""

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

    def copy(self) -> "NetworkParams":
        return NetworkParams(*(a.copy() for a in self))

    def to_lists(self) -> dict[str, list]:
        """The arrays as nested lists keyed w2, b2, w3, b3: the JSON form of checkpoints and train records."""
        return dict(zip(("w2", "b2", "w3", "b3"), (a.tolist() for a in self)))


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


def activation(u: np.ndarray | float, kind: str, out: np.ndarray | None = None) -> np.ndarray | float:
    """Elementwise sigmoid or rectifier, written to ``out`` if given (which may be ``u`` itself).

    The sigmoid is exp(min(u, 0)) / (1 + e) with e = exp(-|u|), so exp
    never overflows: the numerator is exactly 1 for u >= 0 and e below, the
    two branches of the textbook form, without a branch. -|u| is written as
    min(u, -u), which also keeps the sign bit of a NaN input. The
    denominator takes the one temporary array.
    """
    arr = np.asarray(u, dtype=np.float64)
    res = np.empty_like(arr) if out is None else out
    if kind == "sigmoid":
        den = np.negative(arr, out=np.empty_like(arr))
        np.minimum(arr, den, out=den)
        np.exp(den, out=den)
        np.add(den, 1.0, out=den)
        np.minimum(arr, 0.0, out=res)
        np.exp(res, out=res)
        np.divide(res, den, out=res)
    elif kind == "relu":
        np.maximum(arr, 0.0, out=res)
    else:
        raise ValueError(f"unknown activation kind {kind!r}")
    return res if np.ndim(u) else float(res)


def forward(params: NetworkParams, x: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations z2 = f(x W2' + b2) and linear outputs u3 = z2 W3' + b3 for the rows of x.

    The weights may carry a leading model axis (biases shaped (K, 1, n));
    each model's slice then gives the same bits as a network of its own.
    """
    z2 = activation(x @ np.swapaxes(params.w2, -1, -2) + params.b2, kind)
    return z2, z2 @ np.swapaxes(params.w3, -1, -2) + params.b3


def save_checkpoint(params: NetworkParams, path: str | Path, seed: int | None = None) -> None:
    """JSON checkpoint; floats are written with full round-trip precision."""
    d = params.dims
    payload = {
        "dims": {"input_dim": d.input_dim, "hidden_dim": d.hidden_dim, "output_dim": d.output_dim},
        "seed": seed,
        **params.to_lists(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")


def load_checkpoint(path: str | Path) -> NetworkParams:
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    params = NetworkParams(
        w2=np.asarray(payload["w2"], dtype=np.float64),
        b2=np.asarray(payload["b2"], dtype=np.float64),
        w3=np.asarray(payload["w3"], dtype=np.float64),
        b3=np.asarray(payload["b3"], dtype=np.float64),
    )
    d = payload["dims"]
    if params.dims != NetworkDims(d["input_dim"], d["hidden_dim"], d["output_dim"]):
        raise ValueError(f"{path}: checkpoint dims do not match stored arrays")
    return params
