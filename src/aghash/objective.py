"""Loss terms and hand-derived reverse-mode gradients for the full model.

The objective is
    lambda1 * l_recons + lambda2 * l_quan + lambda3 * l_cl
All gradients are exact (finite-difference checked) with subgradient 0 at
ReLU/clip kinks.
"""

from dataclasses import dataclass

import numpy as np

from . import attention as att
from .errors import ParameterError, ShapeError, require_finite
from .network import cls_forward

# rows of the reconstruction target and of the code cosines formed at a time
PANEL = 128


@dataclass(frozen=True)
class Hyperparams:
    lambda1: float = 100.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        require_finite(self, "lambda1", "lambda2", "lambda3", "k")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ParameterError("tradeoff weights must be >= 0")
        if self.k <= 0:
            raise ParameterError(f"k must be > 0, got {self.k}")


@dataclass(frozen=True)
class LossBreakdown:
    l_quan: float
    l_recons: float
    l_cl: float
    total: float


# ---------------------------------------------------------------------------
# individual loss heads
# ---------------------------------------------------------------------------


def quantization_loss(B, Z):
    """Squared Frobenius gap ||B - Z||^2 with B treated as constant."""
    if B.shape != Z.shape:
        raise ShapeError(f"code shapes differ: {B.shape} vs {Z.shape}")
    diff = Z - B
    return float((diff**2).sum()), 2.0 * diff


class TagGram:
    """The n x n Gram matrix Y^T Y of c x n tags, formed a row panel at a time.

    `gram[rows]` is the rows Y[:, rows]^T Y, so the loss reads it as it reads
    an n x n array.
    """

    def __init__(self, Y):
        self.Y = np.asarray(Y, dtype=np.float64)
        self.shape = (self.Y.shape[1],) * 2

    def __getitem__(self, rows):
        return self.Y[:, rows].T @ self.Y


def reconstruction_loss(Z, target, k):
    """||k*target - [cos(Z^T, Z)]_+||^2 and its Z gradient.

    `target` is a symmetric n x n array or a `TagGram`; it and the cosines are
    formed PANEL rows at a time, so no n x n temporary exists. The symmetric
    target makes the residual symmetric, so each panel b adds its share
    2 N[:, b] dC_b of the gradient N (dC + dC^T). Cosine with a zero column is
    0; the clip boundary takes subgradient 0.
    """
    n = Z.shape[1]
    if target.shape != (n, n):
        raise ShapeError(f"target is {target.shape}, expected {(n, n)}")
    N, norms = att.unit_columns(Z)
    loss, dN = 0.0, np.zeros_like(N)
    for lo in range(0, n, PANEL):
        Nb = N[:, lo:lo + PANEL]
        C = Nb.T @ N
        np.maximum(C, 0.0, out=C)
        R = target[lo:lo + PANEL]
        if isinstance(target, TagGram):
            R *= k  # a fresh float64 panel
        else:
            R = np.multiply(R, k, dtype=np.float64)  # a view of the target, copied to float64
        R -= C
        loss += float(np.vdot(R, R))
        R *= C > 0  # clipped entries pass no gradient
        dN += Nb @ R
    dN *= -4.0  # dC = -2R, counted once for C and once for C^T
    return loss, att.unit_columns_grad(N, norms, dN)


def classification_loss(P, Y):
    """Binary cross-entropy (minimized negative log-likelihood) summed over entries.

    Returns the loss and its gradient w.r.t. the logits, P - Y.
    """
    if P.shape != Y.shape:
        raise ShapeError(f"probability/label shapes differ: {P.shape} vs {Y.shape}")
    Pc = np.clip(P, 1e-12, 1.0 - 1e-12)
    loss = -float((Y * np.log(Pc) + (1.0 - Y) * np.log(1.0 - Pc)).sum())
    return loss, P - Y


def total_loss(l_recons, l_quan, l_cl, hp):
    return hp.lambda1 * l_recons + hp.lambda2 * l_quan + hp.lambda3 * l_cl


# ---------------------------------------------------------------------------
# full reverse pass
# ---------------------------------------------------------------------------


def backprop_all(H, layers, S_tilde, target, Y, B, gcn, head, hp):
    """The loss terms plus exact gradients of the objective.

    Differentiates a forward pass computed by the caller: H = Xatt S~ and
    `layers` = (Z1, Z) = network.gcn_layers(H, S~, gcn), Z = (W2 Z1) S~. S~
    is symmetric, so with G = dZ S~ layer 2 gives dW2 = G Z1^T and
    dZ1 = W2^T G: one r x n x n product where (W2^T dZ) S~ would take an
    h x n x n one, and r << h. The GCN products and gradients take the
    dtype of S~ and the layers; the loss heads take float64 from their
    parameters.

    `target` is what the code cosines reconstruct (`reconstruction_loss`):
    `TagGram(Y)` or an n x n array.

    Returns (LossBreakdown, grads); grads maps the `network.parameters` name
    of each parameter of the GCN and the head to its gradient.
    """
    Z1, Z = layers

    l_quan, dZ_quan = quantization_loss(B, Z)
    l_rec, dZ_rec = reconstruction_loss(Z, target, hp.k)
    P = cls_forward(Z, head)
    l_cl, dlogits = classification_loss(P, Y)
    dWc = dlogits @ Z.T
    dZ_cl = head.Wc.T @ dlogits

    dZ = hp.lambda1 * dZ_rec + hp.lambda2 * dZ_quan + hp.lambda3 * dZ_cl

    # dZ is float64 from the heads; S~'s dtype keeps the product from copying S~
    G = dZ.astype(S_tilde.dtype, copy=False) @ S_tilde
    dW2 = G @ Z1.T
    dA = gcn.W2.T @ G
    dA *= Z1 > 0
    grads = {"W1": dA @ H.T, "W2": dW2, "Wc": hp.lambda3 * dWc}

    breakdown = LossBreakdown(l_quan=l_quan, l_recons=l_rec, l_cl=l_cl,
                              total=total_loss(l_rec, l_quan, l_cl, hp))
    return breakdown, grads
