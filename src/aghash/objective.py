"""The reconstruction loss and its hand-derived reverse-mode gradients.

The objective is l_recons alone: the code cosines reconstruct k times a
similarity target. The paper's quantization and classification terms are not
trained, since neither moved MAP@100 beyond the spread between seeds (README,
Defaults). All gradients are exact (finite-difference checked) with
subgradient 0 at ReLU/clip kinks.
"""

import numpy as np

from . import attention as att
from .errors import ShapeError
from .graph import PANEL


class TagGram:
    """The n x n Gram matrix Y^T Y of c x n tags, held as the tags in a floating
    dtype: float32 and float64 stay, others are promoted."""

    def __init__(self, Y):
        Y = np.asarray(Y)
        self.Y = Y.astype(np.result_type(Y.dtype, np.float32), copy=False)
        self.shape = (Y.shape[1],) * 2

    def rows(self, lo, hi):
        """Rows lo:hi of Y^T Y (hi clipped at n), as a fresh array in the tags' dtype."""
        return self.Y[:, lo:hi].T @ self.Y


def reconstruction_loss(Z, target, k):
    """||k*target - [cos(Z^T, Z)]_+||^2 and its Z gradient.

    `target` is a `graph.SymGraph` or a `TagGram`: its `rows` and the cosines
    are formed PANEL rows at a time, so no n x n temporary exists. The panels and
    the gradient take Z's dtype, and each panel's squared residuals are summed
    in it into a Python float. The symmetric target makes the residual
    symmetric, so each panel b adds its share 2 N[:, b] dC_b of the gradient
    N (dC + dC^T). Cosine with a zero column is 0; the clip boundary takes
    subgradient 0.
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
        R = target.rows(lo, lo + PANEL).astype(N.dtype, copy=False)
        R *= k  # a fresh panel, scaled in place
        R -= C
        loss += float(np.vdot(R, R))
        R *= C > 0  # clipped entries pass no gradient
        dN += Nb @ R
    dN *= -4.0  # dC = -2R, counted once for C and once for C^T
    return loss, att.unit_columns_grad(N, norms, dN)


# ---------------------------------------------------------------------------
# full reverse pass
# ---------------------------------------------------------------------------


def backprop_all(H, layers, S_tilde, target, gcn, k):
    """The reconstruction loss and its exact gradients for the GCN's weights.

    Differentiates a forward pass computed by the caller: H = Xatt S~ and
    `layers` = (Z1, Z) = network.gcn_layers(H, S~, gcn), Z = (W2 Z1) S~. S~
    is symmetric, so with G = dZ S~ layer 2 gives dW2 = G Z1^T and
    dZ1 = W2^T G: one r x n x n product where (W2^T dZ) S~ would take an
    h x n x n one, and r << h. Every product and gradient takes the dtype of
    S~ and the layers; dZ is in Z's, so G needs no cast. Once dW2 is taken,
    dZ1 is written into `layers[0]`'s buffer a row panel at a time, each after
    its ReLU mask is written into one PANEL x n buffer, so Z1 is overwritten:
    an epoch holds one h x n array and no h x n mask.

    `target` is what the code cosines reconstruct, scaled by k
    (`reconstruction_loss`): `TagGram(Y)` or a `graph.SymGraph`. S~ is a
    SymGraph or, in tests, an n x n array: the layers only multiply by it.

    Returns (l_recons, grads); grads maps the `network.parameters` names W1
    and W2 to their gradients.
    """
    Z1, Z = layers
    loss, dZ = reconstruction_loss(Z, target, k)
    G = dZ @ S_tilde
    dW2 = G @ Z1.T
    mask = np.empty((PANEL, Z1.shape[1]), dtype=bool)
    for lo in range(0, Z1.shape[0], PANEL):  # Z1 is spent: layer 1's gradient takes its buffer
        rows = Z1[lo:lo + PANEL]
        active = np.greater(rows, 0, out=mask[:len(rows)])  # read before the panel is overwritten
        np.matmul(gcn.W2.T[lo:lo + PANEL], G, out=rows)
        rows *= active
    return loss, {"W1": Z1 @ H.T, "W2": dW2}
