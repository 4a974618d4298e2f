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
    P = np.ascontiguousarray(P, dtype=np.float64)  # so that ravel() below is a view
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

    The reconstruction target defaults to the tags' centred Gram matrix, the 'aux' target.
    """
    gcn = gcn or inst.gcn
    return obj.backprop_all(*forward(inst, gcn), obj.LowRankTarget(inst.Y) if target is None else target, gcn, 1.0)


def sqdist(A, B):
    """Squared Euclidean distances between the columns of A and of B, clipped at 0,
    through the graph's own fix-up of the products A^T B."""
    return sg._distances((A**2).sum(axis=0), (B**2).sum(axis=0), A.T @ B)


def one_column_extension(model, Xq, Yq):
    """(st_col, st_self, h1_q, z_q) of the explicit one-column extension, the
    reference `trainer.encode_queries` reassociates, in float64.

    Each query is one more node of the training graph: its m x n normalized
    column st_col, formed whole, and self term st_self; then both hops,
    h1_q = Xatt st_col^T + xatt_q st_self and z_q = (W H1) st_col^T +
    (W h1_q) st_self with W = W2 W1. The model's arrays and the queries'
    attentive features are cast to float64, exactly.
    """
    dtype = np.float64
    xatt_q = trainer._attentive(Xq, model.y_train, model.attention, model.use_attention,
                                "query {}".format).astype(dtype)
    xatt_train, y_train, degrees, wh1_train, W1, W2 = (
        np.asarray(a, dtype=dtype) for a in (model.xatt_train, model.y_train, model.degrees,
                                              model.wh1_train, model.gcn.W1, model.gcn.W2))
    Yq = np.asarray(Yq, dtype=dtype)
    config = model.graph_cfg
    uses_visual, uses_tags = sg.PARTS[config.variant]
    if uses_visual:
        st_col, s_self = sg.gaussian_kernel(sqdist(xatt_q, xatt_train), config.bandwidth), 1.0
    else:
        st_col, s_self = np.zeros((Yq.shape[1], y_train.shape[1]), dtype=dtype), 0.0
    if uses_tags:
        st_col = config.mu * st_col + Yq.T @ y_train
        s_self = config.mu * s_self + (Yq**2).sum(axis=0)
    d_q = st_col.sum(axis=1) + s_self
    safe_dq = np.where(d_q > 0, d_q, 1.0)
    st_col /= np.sqrt(safe_dq)[:, None]
    st_col *= sg.inv_sqrt_degree(degrees)[None, :]
    st_col[d_q == 0, :] = 0.0
    st_self = np.where(d_q > 0, s_self / safe_dq, 0.0)
    h1_q = xatt_train @ st_col.T + xatt_q * st_self
    z_q = wh1_train @ st_col.T + ((W2 @ W1) @ h1_q) * st_self
    return st_col, st_self, h1_q, z_q


def read_checkpoint(path):
    """(array name -> array, meta) of a saved model, read with only the container's own checks."""
    arrays, meta = net.load_arrays(path, lambda meta: [
        tuple(meta["dims"][symbol] for symbol in symbols) for symbols in trainer._SHAPES.values()])
    return dict(zip(trainer._SHAPES, arrays)), meta
