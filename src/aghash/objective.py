"""Loss terms and hand-derived reverse-mode gradients for the full model.

The generator objective is
    l_gen_adv + lambda1 * l_recons + lambda2 * l_quan + lambda3 * l_cl
and the discriminator minimizes the negated GAN value. All gradients are
exact (finite-difference checked) with subgradient 0 at ReLU/clip kinks.
"""

from dataclasses import dataclass

import numpy as np

from . import attention as att
from .errors import ParameterError, ShapeError, require_finite
from .network import cls_forward, disc_layers, sigmoid

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
    l_gen_adv: float
    l_disc: float
    total_gen: float


def _softplus(x):
    return np.logaddexp(0.0, x)


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
        R = np.multiply(target[lo:lo + PANEL], k, dtype=np.float64)  # the loss sums in float64
        R -= C
        loss += float(np.vdot(R, R))
        if mode == "cosine":
            R *= C > 0  # clipped entries pass no gradient
        dN += Nb @ R
    dN *= -4.0  # dC = -2R, counted once for C and once for C^T
    return loss, dN if mode == "inner" else att.unit_columns_grad(N, norms, dN)


def feature_reconstruction_loss(Z, Xatt, decoder):
    """Linear-decoder feature reconstruction ||Xatt - Wd Z||^2 and its Z, Wd and Xatt gradients."""
    if decoder.Wd.shape != (Xatt.shape[0], Z.shape[0]):
        raise ShapeError(f"decoder is {decoder.Wd.shape}, expected {(Xatt.shape[0], Z.shape[0])}")
    R = Xatt - decoder.Wd @ Z
    loss = float((R**2).sum())
    return loss, -2.0 * decoder.Wd.T @ R, -2.0 * R @ Z.T, 2.0 * R


def classification_loss(P, Y):
    """Binary cross-entropy (minimized negative log-likelihood) summed over entries.

    Returns the loss and its gradient w.r.t. the logits, P - Y.
    """
    if P.shape != Y.shape:
        raise ShapeError(f"probability/label shapes differ: {P.shape} vs {Y.shape}")
    Pc = np.clip(P, 1e-12, 1.0 - 1e-12)
    loss = -float((Y * np.log(Pc) + (1.0 - Y) * np.log(1.0 - Pc)).sum())
    return loss, P - Y


@dataclass
class GanResult:
    l_disc: float
    l_gen_adv: float
    disc_grads: dict  # name -> gradient, keyed as network.parameters keys the discriminator
    dZ: np.ndarray  # gradient of l_gen_adv w.r.t. the generator outputs


def _disc_backward(V, h1, h2, dlogits, p):
    df = dlogits[None, :]
    dA3 = df @ h2.T
    db3 = df.sum(axis=1)
    dh2 = p.A3.T @ df
    da2 = dh2 * (h2 > 0)
    dA2 = da2 @ h1.T
    db2 = da2.sum(axis=1)
    dh1 = p.A2.T @ da2
    da1 = dh1 * (h1 > 0)
    dA1 = da1 @ V.T
    db1 = da1.sum(axis=1)
    dV = p.A1.T @ da1
    return {"A1": dA1, "b1": db1, "A2": dA2, "b2": db2, "A3": dA3, "b3": db3}, dV


def gan_losses(Z, prior_samples, disc):
    """Adversarial losses and gradients.

    Discriminator minimizes -mean log D(prior) - mean log(1 - D(Z)).
    Generator minimizes -mean log D(Z), whose gradient stays large while the
    discriminator rejects Z.
    """
    if Z.shape[0] != prior_samples.shape[0]:
        raise ShapeError(f"code length mismatch: {Z.shape[0]} vs {prior_samples.shape[0]}")
    m_fake, m_real = Z.shape[1], prior_samples.shape[1]
    h1r, h2r, f_real = disc_layers(prior_samples, disc)
    h1f, h2f, f_fake = disc_layers(Z, disc)
    D_real, D_fake = sigmoid(f_real), sigmoid(f_fake)

    l_disc = float(_softplus(-f_real).mean() + _softplus(f_fake).mean())
    g_real, _ = _disc_backward(prior_samples, h1r, h2r, (D_real - 1.0) / m_real, disc)
    g_fake, _ = _disc_backward(Z, h1f, h2f, D_fake / m_fake, disc)
    disc_grads = {name: g_real[name] + g_fake[name] for name in g_real}

    _, dZ = _disc_backward(Z, h1f, h2f, -(1.0 - D_fake) / m_fake, disc)
    return GanResult(l_disc=l_disc, l_gen_adv=float(_softplus(-f_fake).mean()),
                     disc_grads=disc_grads, dZ=dZ)


def total_generator_loss(l_gen_adv, l_recons, l_quan, l_cl, hp):
    return l_gen_adv + hp.lambda1 * l_recons + hp.lambda2 * l_quan + hp.lambda3 * l_cl


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
    disc,
    head,
    hp,
    prior_samples,
    *,
    recon_matrix=None,
    decoder=None,
    attention=None,
):
    """Losses plus exact gradients of the generator and discriminator objectives.

    Differentiates a forward pass computed by the caller: H = Xatt S~ and
    `layers` = (Z1, Z) = network.gcn_layers(H, S~, gcn), Z = (W2 Z1) S~.
    S~ is symmetric, so with G = dZ S~ layer 2 gives dW2 = G Z1^T and
    dZ1 = W2^T G: one r x n x n product where (W2^T dZ) S~ would take an
    h x n x n one, and r << h. The GCN products and gradients take the dtype
    of S~ and the layers; the loss heads take float64 from their parameters.

    `recon_matrix` is the n x n target of the kernel targets in RECON_PARTS;
    'aux' and 'inner-product' reconstruct the Gram matrix of the tags Y, and
    'feature' reconstructs through `decoder`. `attention`, the cache of the
    `attention.denoise` that gave Xatt, adds the projection gradients with
    the graph held fixed.

    Returns (LossBreakdown, grads); grads maps the `network.parameters` name
    of each generator-side parameter to its gradient: the GCN, the head, and
    the decoder and projections when they are in use.
    """
    Z1, Z = layers

    l_quan, dZ_quan = quantization_loss(B, Z)
    dWd = None
    if hp.recon_target == "feature":
        if decoder is None:
            raise ParameterError("feature reconstruction requires decoder parameters")
        l_rec, dZ_rec, dWd, dXatt_rec = feature_reconstruction_loss(Z, Xatt, decoder)
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
    gan = gan_losses(Z, prior_samples, disc)

    total = total_generator_loss(gan.l_gen_adv, l_rec, l_quan, l_cl, hp)
    dZ = gan.dZ + hp.lambda1 * dZ_rec + hp.lambda2 * dZ_quan + hp.lambda3 * dZ_cl

    # dZ is float64 from the heads; S~'s dtype keeps the product from copying S~
    G = dZ.astype(S_tilde.dtype, copy=False) @ S_tilde
    dW2 = G @ Z1.T
    dA = gcn.W2.T @ G
    dA *= Z1 > 0
    dW1 = dA @ H.T
    grads = {"W1": dW1, "W2": dW2, "Wc": hp.lambda3 * dWc}
    if dWd is not None:
        grads["Wd"] = hp.lambda1 * dWd

    if attention is not None:
        dXatt = (gcn.W1.T @ dA) @ S_tilde
        if dWd is not None:  # Xatt also enters the decoder residual directly
            dXatt = dXatt + hp.lambda1 * dXatt_rec
        grads["P_x"], grads["P_y"] = att.attention_grads(attention, dXatt)

    breakdown = LossBreakdown(
        l_quan=l_quan, l_recons=l_rec, l_cl=l_cl,
        l_gen_adv=gan.l_gen_adv, l_disc=gan.l_disc, total_gen=total,
    )
    return breakdown, grads
