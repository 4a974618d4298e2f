"""Cross-modal attention denoising.

Features and auxiliary semantics are projected to a shared d' space; each item
mixes in a clipped-cosine-weighted mean of the projected semantics on top of a
residual connection.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class AttentionParams:
    """Fixed (or optionally trained) projections into the shared space."""

    P_x: np.ndarray  # d' x d
    P_y: np.ndarray  # d' x c

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=np.float64))
        P_x, P_y = self.P_x, self.P_y
        if P_x.ndim != 2 or P_y.ndim != 2 or P_x.shape[0] != P_y.shape[0]:
            raise ShapeError(f"projection shapes {P_x.shape} / {P_y.shape} do not share d'")
        if not (np.all(np.isfinite(P_x)) and np.all(np.isfinite(P_y))):
            raise ShapeError("projection matrices must be finite")

    @property
    def d_prime(self):
        return self.P_x.shape[0]


def init_attention(d, c, d_prime, seed):
    """Seeded Gaussian projections scaled by 1/sqrt(fan-in)."""
    rng = np.random.default_rng(seed)
    P_x = rng.standard_normal((d_prime, d)) / np.sqrt(d)
    P_y = rng.standard_normal((d_prime, c)) / np.sqrt(c)
    return AttentionParams(P_x, P_y)


def project(X, Y, params):
    """Return (Xbar, Ybar) = (P_x X, P_y Y)."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if params.P_x.shape[1] != X.shape[0]:
        raise ShapeError(f"P_x is {params.P_x.shape}, features have d = {X.shape[0]}")
    if params.P_y.shape[1] != Y.shape[0]:
        raise ShapeError(f"P_y is {params.P_y.shape}, aux has c = {Y.shape[0]}")
    return params.P_x @ X, params.P_y @ Y


def unit_columns(M):
    """(Mn, norms): the columns of M scaled to unit length (a zero column stays 0) and their norms."""
    norms = np.sqrt((M**2).sum(axis=0))
    Mn = M / np.where(norms > 0, norms, 1.0)
    Mn[:, norms == 0] = 0.0
    return Mn, norms


def unit_columns_grad(Mn, norms, dMn):
    """d(loss)/dM from d(loss)/dMn, where (Mn, norms) = unit_columns(M); 0 on zero columns."""
    dM = (dMn - Mn * (Mn * dMn).sum(axis=0)) / np.where(norms > 0, norms, 1.0)
    dM[:, norms == 0] = 0.0
    return dM


def attention_scores(Xbar, Ybar):
    """Clipped cosine scores alpha_ij = [cos(xbar_i, ybar_j)]_+ in [0, 1]."""
    if Xbar.shape[0] != Ybar.shape[0]:
        raise ShapeError(f"row dimensions differ: {Xbar.shape[0]} vs {Ybar.shape[0]}")
    Xn, _ = unit_columns(Xbar)
    Yn, _ = unit_columns(Ybar)
    return np.clip(Xn.T @ Yn, 0.0, 1.0)


def _weighted_mean(Ybar, alpha):
    """Column i: sum_j alpha_ij ybar_j / w_i, or 0 when w_i = sum_j alpha_ij is 0.

    Returns (mix, w, safe_w) with safe_w = w where w > 0 and 1 elsewhere.
    """
    w = alpha.sum(axis=1)
    safe_w = np.where(w > 0, w, 1.0)
    mix = (Ybar @ alpha.T) / safe_w
    mix[:, w == 0] = 0.0
    return mix, w, safe_w


def attentive_features(Xbar, Ybar, alpha):
    """x_i^att = weighted mean of ybar under alpha_i. plus the residual xbar_i."""
    n = Xbar.shape[1]
    if alpha.shape != (n, Ybar.shape[1]):
        raise ShapeError(f"score matrix is {alpha.shape}, expected {(n, Ybar.shape[1])}")
    mix, _, _ = _weighted_mean(Ybar, alpha)
    return mix + Xbar


def denoise(X, Y, params):
    """Full pass: project, score, and mix. Returns (Xatt, Xbar, Ybar, alpha)."""
    Xbar, Ybar = project(X, Y, params)
    alpha = attention_scores(Xbar, Ybar)
    return attentive_features(Xbar, Ybar, alpha), Xbar, Ybar, alpha


def attention_grads(X, Y, params, dXatt):
    """Gradients of a loss w.r.t. P_x and P_y given d(loss)/d(Xatt).

    Reverse pass through project -> scores -> attentive_features with the
    clipped-cosine subgradient taken as 0 at the clip boundary.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    U = params.P_x @ X
    V = params.P_y @ Y
    Un, nu = unit_columns(U)
    Vn, nv = unit_columns(V)
    C = Un.T @ Vn
    alpha = np.where(C > 0, C, 0.0)
    mix, w, safe_w = _weighted_mean(V, alpha)

    G = np.asarray(dXatt, dtype=np.float64)
    dU = G.copy()  # residual path
    # through the weighted mean: dV and dalpha
    ratio = alpha / safe_w[:, None]
    ratio[w == 0, :] = 0.0
    dV = G @ ratio
    dalpha = (G.T @ V - (G * mix).sum(axis=0)[:, None]) / safe_w[:, None]
    dalpha[w == 0, :] = 0.0
    # through the clip and the cosine
    dC = np.where(C > 0, dalpha, 0.0)
    dU += unit_columns_grad(Un, nu, Vn @ dC.T)
    dV += unit_columns_grad(Vn, nv, Un @ dC)
    return dU @ X.T, dV @ Y.T
