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

RECON_TARGETS = ("aux", "visual", "augmented", "inner-product", "feature")
# the graph variant whose unnormalized similarity (graph.similarity) each kernel
# target reconstructs, which the loss reads as an n x n matrix; 'aux' and
# 'inner-product' reconstruct the tags' Gram matrix Y^T Y from the c x n tags,
# and 'feature' reconstructs through the decoder
RECON_PARTS = {"visual": "visual-only", "augmented": "augmented"}
# rows of the reconstruction target and of the code cosines formed at a time
PANEL = 128


@dataclass(frozen=True)
class Hyperparams:
    lambda1: float = 100.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    k: float = 1.0
    recon_target: str = "aux"

    def __post_init__(self):
        require_finite(self, "lambda1", "lambda2", "lambda3", "k")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ParameterError("tradeoff weights must be >= 0")
        if self.k <= 0:
            raise ParameterError(f"k must be > 0, got {self.k}")
        if self.recon_target not in RECON_TARGETS:
            raise ParameterError(f"unknown recon_target {self.recon_target!r}")


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


def reconstruction_loss(Z, target, k, mode="cosine"):
    """||k*target - [cos(Z^T, Z)]_+||^2 (or raw Z^T Z in 'inner' mode).

    `target` is a symmetric n x n array or a `TagGram`; it and the cosines are
    formed PANEL rows at a time, so no n x n temporary exists. The symmetric
    target makes the residual symmetric, so each panel b adds its share
    2 N[:, b] dC_b of the gradient N (dC + dC^T). Cosine with a zero column is
    0; the clip boundary takes subgradient 0.
    """
    n = Z.shape[1]
    if target.shape != (n, n):
        raise ShapeError(f"target is {target.shape}, expected {(n, n)}")
    if mode not in ("cosine", "inner"):
        raise ParameterError(f"unknown reconstruction mode {mode!r}")
    N, norms = att.unit_columns(Z) if mode == "cosine" else (Z, None)
    loss, dN = 0.0, np.zeros_like(N)
    for lo in range(0, n, PANEL):
        Nb = N[:, lo:lo + PANEL]
        C = Nb.T @ N
        if mode == "cosine":
            np.maximum(C, 0.0, out=C)
        R = target[lo:lo + PANEL]
        if isinstance(target, TagGram):
            R *= k  # a fresh float64 panel
        else:
            R = np.multiply(R, k, dtype=np.float64)  # a view of the target, copied to float64
        R -= C
        loss += float(np.vdot(R, R))
        if mode == "cosine":
            R *= C > 0  # clipped entries pass no gradient
        dN += Nb @ R
    dN *= -4.0  # dC = -2R, counted once for C and once for C^T
    return loss, dN if mode == "inner" else att.unit_columns_grad(N, norms, dN)


def feature_reconstruction_loss(Z, Xatt, decoder):
    """Linear-decoder feature reconstruction ||Xatt - Wd Z||^2 and its Z and Wd gradients."""
    if decoder.Wd.shape != (Xatt.shape[0], Z.shape[0]):
        raise ShapeError(f"decoder is {decoder.Wd.shape}, expected {(Xatt.shape[0], Z.shape[0])}")
    R = Xatt - decoder.Wd @ Z
    loss = float((R**2).sum())
    return loss, -2.0 * decoder.Wd.T @ R, -2.0 * R @ Z.T


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


def backprop_all(
    Xatt,
    H,
    layers,
    S_tilde,
    Y,
    B,
    gcn,
    head,
    hp,
    *,
    recon_matrix=None,
    decoder=None,
):
    """The loss terms plus exact gradients of the objective.

    Differentiates a forward pass computed by the caller: H = Xatt S~ and
    `layers` = (Z1, Z) = network.gcn_layers(H, S~, gcn), Z = (W2 Z1) S~. S~
    is symmetric, so with G = dZ S~ layer 2 gives dW2 = G Z1^T and
    dZ1 = W2^T G: one r x n x n product where (W2^T dZ) S~ would take an
    h x n x n one, and r << h. The GCN products and gradients take the
    dtype of S~ and the layers; the loss heads take float64 from their
    parameters.

    `recon_matrix` is the n x n target of the kernel targets in RECON_PARTS;
    'aux' and 'inner-product' reconstruct the Gram matrix of the tags Y, and
    'feature' reconstructs through `decoder`.

    Returns (LossBreakdown, grads); grads maps the `network.parameters` name
    of each parameter to its gradient: the GCN, the head, and the decoder
    when it is in use.
    """
    Z1, Z = layers

    l_quan, dZ_quan = quantization_loss(B, Z)
    dWd = None
    if hp.recon_target == "feature":
        if decoder is None:
            raise ParameterError("feature reconstruction requires decoder parameters")
        l_rec, dZ_rec, dWd = feature_reconstruction_loss(Z, Xatt, decoder)
    else:
        mode = "inner" if hp.recon_target == "inner-product" else "cosine"
        target = recon_matrix if hp.recon_target in RECON_PARTS else TagGram(Y)
        if target is None:
            raise ParameterError(f"recon_target {hp.recon_target!r} requires a target matrix")
        l_rec, dZ_rec = reconstruction_loss(Z, target, hp.k, mode=mode)
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
    if dWd is not None:
        grads["Wd"] = hp.lambda1 * dWd

    breakdown = LossBreakdown(l_quan=l_quan, l_recons=l_rec, l_cl=l_cl,
                              total=total_loss(l_rec, l_quan, l_cl, hp))
    return breakdown, grads
