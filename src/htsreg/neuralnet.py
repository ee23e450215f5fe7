"""Two-layer feedforward network: dims, the flat weight layout, initialization, activations, the checkpoint writer."""

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
    """One network's weights and biases, or a stack of K networks', as flat rows: the layout training runs on.

    ``theta`` is one row (P,) or a stack (K, P). A row holds each hidden
    unit's ``w2`` row followed by its bias, so that layer 1 is one matrix
    [w2 | b2] (hidden x input + 1), then ``w3`` (output x hidden), then
    ``b3`` (output). w2/b2 feed the hidden layer, w3/b3 the output. The
    named weights are views of ``theta``, made on access, so they alias
    whichever ``theta`` the object holds, also after a pickle round trip.
    """

    theta: np.ndarray
    dims: NetworkDims

    def views(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """w1 = [w2 | b2], w2, b2, w3, b3 as views of ``theta``; a stack's carry a leading K, its biases (K, 1, n)."""
        i, hd, o = self.dims.input_dim, self.dims.hidden_dim, self.dims.output_dim
        lead = self.theta.shape[:-1]
        w1, w3, b3 = np.split(self.theta, [hd * (i + 1), hd * (i + 1 + o)], axis=-1)
        w1 = w1.reshape(lead + (hd, i + 1), copy=False)
        b2 = w1[:, None, :, i] if lead else w1[:, i]
        return (w1, w1[..., :i], b2, w3.reshape(lead + (o, hd), copy=False),
                b3.reshape(lead + (1,) * len(lead) + (o,), copy=False))

    @classmethod
    def zeros(cls, dims: NetworkDims) -> "NetworkParams":
        """One network with every weight and bias 0."""
        return cls(np.zeros(dims.hidden_dim * (dims.input_dim + 1 + dims.output_dim) + dims.output_dim), dims)

    w2 = property(lambda self: self.views()[1])  # hidden x input
    b2 = property(lambda self: self.views()[2])  # hidden
    w3 = property(lambda self: self.views()[3])  # output x hidden
    b3 = property(lambda self: self.views()[4])  # output

    def __iter__(self):
        return iter(self.views()[1:])


def init_params(dims: NetworkDims, seed: int, bias: bool = True) -> NetworkParams:
    """Draw every weight (and bias, unless disabled) i.i.d. standard normal.

    Draw order is w2, b2, w3, b3 from a PCG64 generator seeded with
    ``seed``, so identical seeds give identical parameters. With
    ``bias=False`` the bias vectors are zero and not drawn.
    """
    rng = np.random.default_rng(seed)
    params = NetworkParams.zeros(dims)
    for view, drawn in zip(params, (True, bias, True, bias)):
        if drawn:
            view[...] = rng.standard_normal(view.shape)
    return params


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
