"""The training kernel's objective and gradient, as tests call them: one ``trainer._Workspace`` per call."""

import numpy as np

from htsreg.neuralnet import NetworkParams
from htsreg.trainer import _Workspace, _with_ones


def loss_and_grads(params, x, yb, yu, H, lam, kind):
    """Objective sum_t E_t over the fitted rows of (x, yb, yu) and its gradient, from ``_Workspace.loss_and_grads``.

    Row t holds a network input and its bottom and upper targets; ``lam``
    is the weight vector. For a stack of K networks (``params.theta``
    of shape (K, P)) ``lam`` holds one weight row per network and the
    objective is one value per network. The gradient is a
    ``NetworkParams`` of the layout of ``params``.
    """
    theta = params.theta if params.theta.ndim == 2 else params.theta[None]
    ws = _Workspace(theta, params.dims, _with_ones(x), yb, yu, H, np.reshape(lam, (len(theta), 1, -1)), kind)
    objective = ws.loss_and_grads()
    if params.theta.ndim == 2:
        return objective, NetworkParams(ws.grad, params.dims)
    return objective[0], NetworkParams(ws.grad[0], params.dims)
