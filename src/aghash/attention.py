"""Cross-modal attention denoising.

Features and auxiliary semantics are projected to a shared space (`fit` draws
it d' wide, then re-expresses it k wide, `basis`); each item mixes in a
clipped-cosine-weighted mean of the projected semantics over a residual.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ShapeError


@dataclass(frozen=True)
class AttentionParams:
    """Fixed projections into the shared space."""

    P_x: np.ndarray  # k x d
    P_y: np.ndarray  # k x c

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, np.asarray(getattr(self, f.name), dtype=np.float64))
        P_x, P_y = self.P_x, self.P_y
        if P_x.ndim != 2 or P_y.ndim != 2 or P_x.shape[0] != P_y.shape[0]:
            raise ShapeError(f"projection shapes {P_x.shape} / {P_y.shape} do not share their rows")
        if not (np.all(np.isfinite(P_x)) and np.all(np.isfinite(P_y))):
            raise ShapeError("projection matrices must be finite")


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
    """The n x m clipped cosines [cos(xbar_i, ybar_j)]_+ in [0, 1]; a zero column scores 0."""
    return np.clip(unit_columns(Xbar)[0].T @ unit_columns(Ybar)[0], 0.0, 1.0)


def denoise(X, Y, params):
    """Project, score and mix: Xatt with x_i^att = mix_i + xbar_i.

    The scores are the clipped cosines alpha_ij = [cos(xbar_i, ybar_j)]_+ in
    [0, 1] (`attention_scores`); mix_i = sum_j alpha_ij ybar_j / w_i with
    w_i = sum_j alpha_ij, or 0 when w_i is 0. Equal columns of Y have equal
    scores, so the sums run over the u distinct columns, each weighted by its
    count: the scores are n x u, not n x m.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    U, counts = np.unique(Y, axis=1, return_counts=True)
    Xbar, Ubar = project(X, U, params)
    alpha = attention_scores(Xbar, Ubar)
    w = alpha @ counts
    mix = Ubar @ (alpha * counts).T
    mix /= np.where(w > 0, w, 1.0)
    mix[:, w == 0] = 0.0
    mix += Xbar  # the residual, in the mix's buffer
    return mix


def basis(params):
    """Q, d' x k with orthonormal columns, whose span holds every projected feature; None when k = d'.

    The projection P_x X lies in the span of P_x's d columns, and the
    attention's mix, a weighted mean of tag projections P_y y, in that of
    P_y's c columns. So Q is the thin QR factor of [P_x, P_y],
    k = min(d', d + c), and Xatt = Q Q^T Xatt for the features of any items
    under these projections, with or without the attention. `fit` calls it
    once, to re-express the model it draws in these coordinates; None, at
    k = d', stands for the identity.
    """
    M = np.hstack([params.P_x, params.P_y])
    return np.linalg.qr(M)[0] if M.shape[1] < M.shape[0] else None
