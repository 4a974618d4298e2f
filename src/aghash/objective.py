"""The reconstruction loss and its hand-derived reverse-mode gradients.

The objective is l_recons alone: the inner products of the unit code columns
reconstruct k times a low-rank similarity target. The paper's quantization and
classification terms are not trained, since neither moved MAP@100 beyond the
spread between seeds (README, Defaults). The target is T = F^T diag(w) F with
F = [G; 1^T], so the squared error is a function of the Gram matrices N N^T,
N F^T and F F^T of the unit codes N and of F, after the code-inner-product
objective of Liu et al., Supervised Hashing with Kernels (CVPR 2012): an
epoch forms no n x n array.
All gradients are exact (finite-difference checked); a zero code column takes
gradient 0.
"""

import numpy as np

from . import attention as att
from .errors import ShapeError


class LowRankTarget:
    """The n x n target G^T G - m 11^T of a rows x n factor G, never formed.

    m is the mean off-diagonal entry of G^T G, (||G 1||^2 - ||G||_F^2) / (n (n - 1)),
    or 0 at n = 1, so the target's mean off-diagonal entry is 0. It is held as
    F = [G; 1^T] in float64, for the loss's Gram matrices, and in `dtype`, the
    codes' dtype, for its gradient; w = (1, ..., 1, -m) makes it
    F^T diag(w) F, and `sq_norm` is its squared norm sum_ij w_i w_j (F F^T)_ij^2.
    """

    def __init__(self, G, dtype=np.float64):
        G = np.asarray(G, dtype=np.float64)
        rows, n = G.shape
        s = G.sum(axis=1)
        m = (s @ s - np.vdot(G, G)) / (n * (n - 1)) if n > 1 else 0.0
        self.F = np.vstack([G, np.ones((1, n))])
        self.F_grad = self.F.astype(dtype, copy=False)
        self.w = np.append(np.ones(rows), -m)
        FF = self.F @ self.F.T
        self.sq_norm = float(self.w @ (FF * FF) @ self.w)
        self.shape = (n, n)


def reconstruction_loss(Z, target, k):
    """||N^T N - k T||^2 and its Z gradient, N the unit columns of Z, T a LowRankTarget.

    With D = k w the loss is ||N N^T||^2 - 2 sum_j D_j ||N f_j||^2 + k^2 ||T||^2,
    f_j the rows of F, from the r x r and r x (rows + 1) Gram matrices formed
    in float64. The N gradient 4 (N N^T) N - 4 (N F^T D) F and the Z gradient
    take Z's dtype, so the work is O(n r (r + rows)) and no array is wider
    than r x n. A zero column has inner product 0 with everything and no
    gradient.
    """
    n = Z.shape[1]
    if target.shape != (n, n):
        raise ShapeError(f"target is {target.shape}, expected {(n, n)}")
    N, norms = att.unit_columns(Z)
    N64 = N.astype(np.float64)
    NN, NF = N64 @ N64.T, N64 @ target.F.T
    del N64  # freed before the r x n arrays of the gradient are formed
    D = k * target.w
    loss = float(np.vdot(NN, NN) - 2.0 * ((NF * NF).sum(axis=0) @ D) + k * k * target.sq_norm)
    NF *= D
    dN = NN.astype(N.dtype) @ N
    dN -= NF.astype(N.dtype) @ target.F_grad
    dN *= 4.0
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

    `target` is the `LowRankTarget` the codes' inner products reconstruct,
    scaled by k (`reconstruction_loss`).

    Returns (l_recons, grads); grads maps the `network.parameters` names W1
    and W2 to their gradients.
    """
    loss, dZ = reconstruction_loss(Z, target, k)
    A = dZ @ H2.T
    return loss, {"W1": gcn.W2.T @ A, "W2": A @ gcn.W1.T}
