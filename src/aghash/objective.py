"""The reconstruction loss and its hand-derived reverse-mode gradients.

The objective is l_recons alone: the code cosines reconstruct k times a
similarity target. The paper's quantization and classification terms are not
trained, since neither moved MAP@100 beyond the spread between seeds (README,
Defaults). All gradients are exact (finite-difference checked) with
subgradient 0 at the clip's kink.
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


def backprop_all(H2, Z, target, gcn, k):
    """The reconstruction loss and its exact gradients for the GCN's two weights.

    Differentiates the linear encoder Z = W2 W1 H2 computed by the caller,
    with H2 = Xatt S~^2 formed once per fit. Both gradients go through the
    r x k matrix A = dZ H2^T: dW1 = W2^T A and dW2 = A W1^T, so no h x n
    array and no graph product is formed. They take the dtype of H2, Z and
    the weights.

    `target` is what the code cosines reconstruct, scaled by k
    (`reconstruction_loss`): `TagGram(Y)` or a `graph.SymGraph`.

    Returns (l_recons, grads); grads maps the `network.parameters` names W1
    and W2 to their gradients.
    """
    loss, dZ = reconstruction_loss(Z, target, k)
    A = dZ @ H2.T
    return loss, {"W1": gcn.W2.T @ A, "W2": A @ gcn.W1.T}
