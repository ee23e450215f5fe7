"""Tests for the feedforward network building blocks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htsreg.neuralnet import (
    NetworkDims,
    NetworkParams,
    activation,
    init_params,
    save_checkpoint,
)
from htsreg.trainer import forward


def test_init_is_deterministic():
    dims = NetworkDims(4, 8, 4)
    a = init_params(dims, seed=7)
    b = init_params(dims, seed=7)
    assert np.array_equal(a.w2, b.w2) and np.array_equal(a.b2, b.b2)
    assert np.array_equal(a.w3, b.w3) and np.array_equal(a.b3, b.b3)


def test_init_draws_standard_normal_moments():
    """About 1e5 entries: mean within 0.02 of 0, sd within 0.02 of 1."""
    dims = NetworkDims(100, 500, 99)
    p = init_params(dims, seed=1)
    entries = np.concatenate([p.w2.ravel(), p.b2, p.w3.ravel(), p.b3])
    assert entries.size > 90_000
    assert abs(entries.mean()) < 0.02
    assert abs(entries.std() - 1.0) < 0.02


def test_init_without_bias_zeroes_vectors():
    p = init_params(NetworkDims(3, 6, 2), seed=2, bias=False)
    assert np.array_equal(p.b2, np.zeros(6))
    assert np.array_equal(p.b3, np.zeros(2))


def test_dims_reject_zero_hidden():
    with pytest.raises(ValueError, match="positive"):
        NetworkDims(4, 0, 4)


def test_sigmoid_at_zero():
    assert activation(0.0, "sigmoid") == 0.5


def test_relu_values():
    assert activation(-3.0, "relu") == 0.0
    assert activation(3.0, "relu") == 3.0


def test_sigmoid_matches_extended_precision():
    """At +/-40 the guarded form agrees with a long-double evaluation."""
    for u in (-40.0, 40.0):
        expected = float(1.0 / (1.0 + np.exp(np.longdouble(-u))))
        assert activation(u, "sigmoid") == pytest.approx(expected, rel=1e-15)


def test_sigmoid_saturates_without_overflow():
    """Extreme inputs never overflow exp."""
    with np.errstate(over="raise"):
        lo = activation(-800.0, "sigmoid")
        hi = activation(800.0, "sigmoid")
    assert lo == 0.0
    assert hi == 1.0


def test_unknown_activation_rejected():
    with pytest.raises(ValueError, match="unknown activation"):
        activation(1.0, "tanh")


def test_forward_zero_params():
    """All-zero weights: hidden sigmoid outputs 0.5, network output 0."""
    p = init_params(NetworkDims(3, 5, 2), seed=0)
    p.w2[:] = 0; p.b2[:] = 0; p.w3[:] = 0; p.b3[:] = 0
    z2, u3 = forward(p, np.ones((1, 3)), "sigmoid")
    assert np.array_equal(z2, np.full((1, 5), 0.5))
    assert np.array_equal(u3, np.zeros((1, 2)))


def test_forward_bias_only_output():
    """Zero W3: the output equals b3 regardless of the input."""
    p = init_params(NetworkDims(3, 5, 2), seed=3)
    p.w3[:] = 0
    p.b3[:] = [1.5, -2.5]
    x = np.vstack([np.zeros(3), np.arange(3.0), np.full(3, -9.0)])
    assert np.array_equal(forward(p, x, "sigmoid")[1], np.tile([1.5, -2.5], (3, 1)))


def test_forward_matches_triple_loop_oracle():
    """Vectorized forward agrees with naive loops to 1e-12, row by row."""
    rng = np.random.default_rng(5)
    p = init_params(NetworkDims(4, 7, 3), seed=5)
    x = rng.standard_normal((2, 4))
    got = forward(p, x, "sigmoid")[1]

    for r in range(2):
        u2 = np.zeros(7)
        for j in range(7):
            for i in range(4):
                u2[j] += p.w2[j, i] * x[r, i]
            u2[j] += p.b2[j]
        z2 = 1.0 / (1.0 + np.exp(-u2))
        u3 = np.zeros(3)
        for k in range(3):
            for j in range(7):
                u3[k] += p.w3[k, j] * z2[j]
            u3[k] += p.b3[k]
        assert np.allclose(got[r], u3, rtol=1e-12, atol=1e-12)


def test_forward_rejects_shape_mismatch():
    p = init_params(NetworkDims(4, 7, 3), seed=1)
    with pytest.raises(ValueError):
        forward(p, np.ones((2, 5)), "sigmoid")


def test_forward_is_pure():
    p = init_params(NetworkDims(4, 8, 4), seed=9)
    x = np.random.default_rng(9).standard_normal((3, 4))
    before = [a.copy() for a in p]
    (za, ua), (zb, ub) = forward(p, x, "sigmoid"), forward(p, x, "sigmoid")
    assert np.array_equal(ua, ub) and np.array_equal(za, zb)
    assert all(np.array_equal(a, b) for a, b in zip(p, before))


@settings(max_examples=80, deadline=None)
@given(models=st.integers(0, 5), rows=st.integers(0, 40), dims=st.tuples(*[st.integers(1, 20)] * 3),
       kind=st.sampled_from(["sigmoid", "relu"]), scale=st.sampled_from([0.1, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
def test_forward_into_buffers_is_bit_equal_to_a_fresh_call(models, rows, dims, kind, scale, seed):
    """forward(..., out=(z2, u3)) writes the bits of a call without buffers, for one network (models = 0) or a stack."""
    input_dim, hidden, output = dims
    rng = np.random.default_rng(seed)
    lead = (models,) if models else ()
    draw = lambda *shape: scale * rng.standard_normal(lead + shape)
    p = NetworkParams(w2=draw(hidden, input_dim), b2=draw(*(1,) * bool(models), hidden),
                      w3=draw(output, hidden), b3=draw(*(1,) * bool(models), output))
    x = scale * rng.standard_normal((rows, input_dim))
    z2, u3 = np.full(lead + (rows, hidden), np.nan), np.full(lead + (rows, output), np.nan)
    fresh = forward(p, x, kind)
    got = forward(p, x, kind, out=(z2, u3))
    assert got[0] is z2 and got[1] is u3
    for a, b in zip(fresh, got):
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_relu_monotone_smoke():
    """Nonnegative weights, inputs, and biases give nonnegative outputs."""
    rng = np.random.default_rng(10)
    p = init_params(NetworkDims(4, 6, 3), seed=10)
    p.w2[:] = np.abs(p.w2); p.b2[:] = np.abs(p.b2)
    p.w3[:] = np.abs(p.w3); p.b3[:] = np.abs(p.b3)
    _, u3 = forward(p, np.abs(rng.standard_normal((3, 4))), "relu")
    assert np.all(u3 >= 0)


def test_trace_activation_consistency():
    """z2 is the activation of u2 = x W2' + b2 exactly, and u3 = z2 W3' + b3."""
    p = init_params(NetworkDims(5, 9, 2), seed=11)
    x = np.random.default_rng(11).standard_normal((4, 5))
    z2, u3 = forward(p, x, "sigmoid")
    assert np.array_equal(activation(x @ p.w2.T + p.b2, "sigmoid"), z2)
    assert np.array_equal(z2 @ p.w3.T + p.b3, u3)


def test_checkpoint_round_trip(tmp_path):
    p = init_params(NetworkDims(4, 8, 4), seed=12)
    path = tmp_path / "ckpt.json"
    save_checkpoint(p, path, seed=12)
    saved = json.loads(path.read_text())
    assert saved["dims"] == {"input_dim": 4, "hidden_dim": 8, "output_dim": 4} and saved["seed"] == 12
    for key, arr in zip(("w2", "b2", "w3", "b3"), p):
        assert np.asarray(saved[key]).tobytes() == arr.tobytes()
