"""Shared test helpers: finite differences, small seeded model instances, raw checkpoints."""

from dataclasses import dataclass

import numpy as np

from aghash import attention as att
from aghash import graph as sg
from aghash import network as net
from aghash import objective as obj
from aghash import trainer


def central_diff(f, P, eps=1e-4):
    """Central finite differences of scalar f over every entry of P."""
    P = np.asarray(P, dtype=np.float64)
    grad = np.zeros_like(P)
    flat = grad.ravel()
    base = P.ravel()
    for k in range(base.size):
        plus = base.copy()
        plus[k] += eps
        minus = base.copy()
        minus[k] -= eps
        flat[k] = (f(plus.reshape(P.shape)) - f(minus.reshape(P.shape))) / (2 * eps)
    return grad


def max_rel_err(analytic, numeric, floor=1e-7):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / scale).max())


@dataclass
class SmallInstance:
    X: np.ndarray
    Y: np.ndarray
    apar: att.AttentionParams
    Xatt: np.ndarray
    St: np.ndarray
    gcn: net.GcnParams


def small_instance(seed, n=16, d=8, d_prime=8, h=8, r=4, c=3):
    """Seeded instance at the gradient-suite dimensions.

    As in training, the projections and W1 are drawn d' wide and, when
    d + c < d', re-expressed in the k = d + c coordinates of the projections' span.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((d, n))
    Y = (rng.random((c, n)) < 0.4).astype(np.float64)
    apar = att.init_attention(d, c, d_prime, seed + 1)
    gcn = net.init_params(d_prime, h, r, seed + 2)
    Q = att.basis(apar)
    if Q is not None:
        apar = att.AttentionParams(Q.T @ apar.P_x, Q.T @ apar.P_y)
        gcn.W1 = gcn.W1 @ Q
    Xatt = att.denoise(X, Y, apar)
    St, _ = sg.normalize(sg.similarity(Xatt, Y, sg.GraphConfig())[0])
    return SmallInstance(X=X, Y=Y, apar=apar, Xatt=Xatt, St=St, gcn=gcn)


def forward(inst, gcn=None):
    """(H2, Z) of the linear encoder on `inst`: H2 = Xatt S~^2 and Z = W2 W1 H2."""
    gcn = gcn or inst.gcn
    H2 = (inst.Xatt @ inst.St) @ inst.St
    return H2, (gcn.W2 @ gcn.W1) @ H2


def backprop(inst, gcn=None, target=None):
    """objective.backprop_all on `inst` at k = 1 after the forward pass it differentiates.

    The reconstruction target defaults to the tags' Gram matrix, the 'aux' target.
    """
    gcn = gcn or inst.gcn
    return obj.backprop_all(*forward(inst, gcn), obj.TagGram(inst.Y) if target is None else target, gcn, 1.0)


def read_checkpoint(path):
    """(array name -> array, meta) of a saved model, read with only the container's own checks."""
    arrays, meta = net.load_arrays(path, lambda meta: [
        tuple(meta["dims"][symbol] for symbol in symbols) for symbols in trainer._SHAPES.values()])
    return dict(zip(trainer._SHAPES, arrays)), meta
