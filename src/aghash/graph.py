"""Augmented semantic graph: visual + auxiliary similarity, fusion, normalization.

Also the one-column extension of the training graph for out-of-sample queries.
The graph takes the dtype of the attentive features, float32 or float64; the
tags, 0/1 entries whose counts are exact in either, are cast to it.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, require_finite

# each variant's similarity parts: (the visual kernel, the tag counts)
PARTS = {"augmented": (True, True), "visual-only": (True, False), "aux-only": (False, True)}
VARIANTS = tuple(PARTS)
# rows per pass over an n x n buffer, so a pass's temporaries are PANEL x n;
# also the side of the squares the symmetry check compares
PANEL = 128


@dataclass(frozen=True)
class GraphConfig:
    mu: float = 1.0
    bandwidth: float | None = None  # None -> median heuristic
    variant: str = "augmented"

    def __post_init__(self):
        require_finite(self, "mu", "bandwidth")
        if self.mu < 0:
            raise ParameterError(f"mu must be >= 0, got {self.mu}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ParameterError(f"fixed bandwidth must be > 0, got {self.bandwidth}")
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown graph variant {self.variant!r}")


def sqdist(A, B):
    """Squared Euclidean distances between the columns of A and of B, clipped at 0.

    Passing the same object as A and B lets numpy compute A^T A as a
    symmetric product. The distances (a + b) - 2 A^T B are formed in the
    product's buffer PANEL rows at a time.
    """
    a, b = (A**2).sum(axis=0), (B**2).sum(axis=0)
    d2 = A.T @ B
    d2 *= 2.0
    for lo in range(0, d2.shape[0], PANEL):
        rows = d2[lo:lo + PANEL]
        np.subtract(a[lo:lo + PANEL, None] + b[None, :], rows, out=rows)
    return np.maximum(d2, 0.0, out=d2)


def gaussian_kernel(d2, sigma):
    """exp(-d2 / (2 sigma^2)) of the squared distances d2, computed in d2's buffer and returned."""
    if d2.dtype.type(2.0 * sigma**2) == 0:  # the kernel would be 0/0 where d2 is 0
        raise ParameterError(f"bandwidth {sigma} is too small: 2 sigma^2 is 0 in {d2.dtype}")
    np.negative(d2, out=d2)
    d2 /= 2.0 * sigma**2
    return np.exp(d2, out=d2)


def median_bandwidth(d2):
    """Median pairwise distance of the n x n squared distances d2; falls back to 1 when degenerate."""
    n = d2.shape[0]
    if n < 2:
        raise ParameterError("median heuristic needs at least 2 items")
    # the upper triangle gathered by rows; the median partitions it in place
    dists = np.concatenate([d2[i, i + 1:] for i in range(n - 1)])
    sigma = float(np.median(np.sqrt(dists, out=dists), overwrite_input=True))
    if sigma == 0.0:
        warnings.warn("all items identical; falling back to bandwidth 1", stacklevel=2)
        sigma = 1.0
    return sigma


def visual_similarity(Xatt, bandwidth=None):
    """Gaussian-kernel similarity of attentive features; unit diagonal.

    bandwidth=None selects the median heuristic over pairwise distances.
    Returns (S_v, sigma) with the bandwidth actually used.
    """
    d2 = sqdist(Xatt, Xatt)
    sigma = median_bandwidth(d2) if bandwidth is None else float(bandwidth)
    Sv = gaussian_kernel(d2, sigma)
    np.fill_diagonal(Sv, 1.0)
    return Sv, sigma


def _floating(A):
    """A as an array, unchanged when it is float32 or float64, else converted to float64."""
    A = np.asarray(A)
    return A if A.dtype in (np.float32, np.float64) else A.astype(np.float64)


def combine(mu, visual, aux):
    """The similarity from the parts given: mu*visual + aux, or the one part that is not None.

    Applies alike to matrix panels, to query columns and to scalar self terms.
    An array `visual` is overwritten with the sum.
    """
    if aux is None:
        return visual  # scale cancels under normalization, so mu is irrelevant here
    if visual is None:
        return aux
    visual *= mu
    visual += aux
    return visual


def inv_sqrt_degree(degrees):
    """D^{-1/2} as a vector; zero where the degree is zero."""
    return np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)


def normalize(S):
    """(D^{-1/2} S D^{-1/2}, degrees): symmetric normalization; zero-degree rows stay zero.

    Scales a float32 or float64 array S in place and returns it; other input
    is converted to float64 first. Both checks run before the first write, so
    a rejected S is left unchanged.
    """
    S = _floating(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ShapeError(f"graph must be square, got {S.shape}")
    # each block above the diagonal against its mirror, in both orientations:
    # the pairs and tolerances of allclose(S, S.T), read in cache-sized squares;
    # an exactly equal pair (what build_graph makes) passes without them
    n = S.shape[0]
    for lo in range(0, n, PANEL):
        for hi in range(lo, n, PANEL):
            block = S[lo:lo + PANEL, hi:hi + PANEL]
            mirror = S[hi:hi + PANEL, lo:lo + PANEL].T
            if np.array_equal(block, mirror):
                continue
            if not (np.allclose(block, mirror, rtol=1e-10, atol=1e-12)
                    and np.allclose(mirror, block, rtol=1e-10, atol=1e-12)):
                raise ParameterError("graph must be symmetric")
    if S.min() < 0:
        raise ParameterError("graph must be nonnegative")
    degrees = S.sum(axis=1)
    inv_sqrt = inv_sqrt_degree(degrees)
    S *= inv_sqrt[:, None]
    S *= inv_sqrt[None, :]
    return S, degrees


def similarity(Xatt, Y, config):
    """(S, sigma): the variant's unnormalized similarity in Xatt's dtype.

    The kernel part is built first and the tag counts are fused into its
    buffer; sigma is the kernel's bandwidth, or None when the variant has no
    kernel, whose similarity is the counts Y^T Y alone.
    """
    Y = np.asarray(Y, dtype=Xatt.dtype)
    uses_visual, uses_tags = PARTS[config.variant]
    if not uses_visual:
        return Y.T @ Y, None
    S, sigma = visual_similarity(Xatt, config.bandwidth)
    if uses_tags:
        for lo in range(0, S.shape[0], PANEL):  # integer counts: the sums of one Y^T Y
            combine(config.mu, S[lo:lo + PANEL], Y[:, lo:lo + PANEL].T @ Y)
    return S, sigma


def build_graph(Xatt, Y, config):
    """(S_tilde, degrees, sigma): the variant's similarity, normalized in its own buffer."""
    S, sigma = similarity(Xatt, Y, config)
    return (*normalize(S), sigma)


def query_columns(xatt_q, Yq, xatt_train, y_train, degrees, config):
    """Normalized one-column extensions of the training graph for m queries.

    Each query joins the n training items (with their cached degrees) as one
    more node with an explicit self term. config.bandwidth must be the
    resolved bandwidth of the training graph. Returns (st_col, st_self): the
    m x n normalized similarities to the training items, normalized in the
    buffer their kernel or tag counts were formed in, and the m normalized
    self terms, in the features' dtype.
    """
    dtype = np.result_type(xatt_q, xatt_train)
    Yq, y_train = (np.asarray(tags, dtype=dtype) for tags in (Yq, y_train))
    uses_visual, uses_tags = PARTS[config.variant]
    visual = gaussian_kernel(sqdist(xatt_q, xatt_train), config.bandwidth) if uses_visual else None
    st_col = combine(config.mu, visual, Yq.T @ y_train if uses_tags else None)
    s_self = combine(config.mu, 1.0 if uses_visual else None, (Yq**2).sum(axis=0) if uses_tags else None)
    d_q = st_col.sum(axis=1) + s_self
    safe_dq = np.where(d_q > 0, d_q, 1.0)
    st_col /= np.sqrt(safe_dq)[:, None]
    st_col *= inv_sqrt_degree(degrees)[None, :]
    st_col[d_q == 0, :] = 0.0
    st_self = np.where(d_q > 0, s_self / safe_dq, 0.0)
    return st_col, st_self
