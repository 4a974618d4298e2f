"""Augmented semantic graph: visual + auxiliary similarity, fusion, normalization.

Also the similarities of out-of-sample queries to the training items, which
are taken only through their product with an operand the caller caches
(`query_products`). The graph takes the dtype of the attentive features,
float32 or float64; the tags, 0/1 entries whose counts are exact in either,
are cast to it. It is held once, as its upper triangle in row panels
(`SymGraph`).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError, require_finite

# each variant's similarity parts: (the visual kernel, the tag counts)
PARTS = {"augmented": (True, True), "visual-only": (True, False), "aux-only": (False, True)}
VARIANTS = tuple(PARTS)
# rows per pass over an n-wide buffer, so a pass's temporaries are PANEL x n;
# also the side of the squares the symmetry check and the mirror work in
PANEL = 128
# rows per stored panel of a SymGraph: at n = 3000 its products read as fast
# as the dense product at 256 rows, and 15-25% slower at 128
HEIGHT = 256
# the median reads its pivots off every step-th entry of the n x n distances,
# with step >= 64 and n^2 / step at most about SAMPLE
SAMPLE = 1 << 16


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


def _distances(a, b, d2):
    """(a + b) - 2 d2, clipped at 0, in the buffer of the products d2 = A^T B
    of columns with squared norms a and b, PANEL rows at a time."""
    d2 *= 2.0
    for lo in range(0, d2.shape[0], PANEL):
        rows = d2[lo:lo + PANEL]
        np.subtract(a[lo:lo + PANEL, None] + b[None, :], rows, out=rows)
    return np.maximum(d2, 0.0, out=d2)


class SymGraph:
    """A symmetric n x n matrix held once, as its upper triangle in row panels.

    `panels` lists (lo, P): P holds rows lo to lo + len(P) (HEIGHT of them,
    fewer in the last panel) and columns lo to n, that is its diagonal block
    whole, kept exactly symmetric, then the block right of it: about
    n^2/2 + n HEIGHT/2 entries in all. Each panel is an array of its own, so
    the graph needs no contiguous n^2/2 block of memory and its panels can
    take the holes that freed arrays leave in the heap.
    `M @ G` is the product with the whole matrix; `full` forms it.
    `similarity` builds one panel by panel; a full array enters only through
    `from_dense`.
    """

    __array_ufunc__ = None  # ndarray @ SymGraph defers to __rmatmul__

    def __init__(self, n, dtype):
        self.n, self.shape, self.dtype = n, (n, n), np.dtype(dtype)
        self.panels = [(lo, np.empty((min(HEIGHT, n - lo), n - lo), dtype=dtype))
                       for lo in range(0, n, HEIGHT)]

    @classmethod
    def from_dense(cls, S):
        """The SymGraph of a square, symmetric array S, whose upper triangle it copies.

        S is symmetric when allclose(S, S.T) holds: the same pairs and
        tolerances, read in PANEL x PANEL squares. A float32 or float64 S keeps
        its dtype; other input is converted to float64. S is never written.
        """
        S = np.asarray(S)
        S = S if S.dtype in (np.float32, np.float64) else S.astype(np.float64)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ShapeError(f"graph must be square, got {S.shape}")
        # each block above the diagonal against its mirror, in both orientations;
        # an exactly equal pair passes without the tolerances
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
        G = cls(n, S.dtype)
        for lo, P in G.panels:
            P[...] = S[lo:lo + len(P), lo:]
        return G.mirror()

    def mirror(self):
        """Copy each diagonal block's upper triangle onto its lower one, PANEL
        columns at a time; returns self."""
        below = np.tri(PANEL, k=-1, dtype=bool)
        for _, P in self.panels:
            m = len(P)
            for lo in range(0, m, PANEL):
                hi = min(lo + PANEL, m)
                P[hi:m, lo:hi] = P[lo:hi, hi:m].T  # rows apart in memory: no temporary
                square = P[lo:hi, lo:hi]
                np.copyto(square, square.T, where=below[:hi - lo, :hi - lo])
        return self

    def __rmatmul__(self, M):
        """M @ G for an m x n array M, in their result dtype.

        Per panel, M[:, lo:hi] @ P adds the rows the panel holds, and
        (P[:, right] @ M[:, right].T).T the rows below it, which mirror its columns.
        """
        if np.ndim(M) != 2 or M.shape[1] != self.n:
            raise ShapeError(f"cannot multiply {np.shape(M)} by a {self.n} x {self.n} graph")
        out = np.empty((M.shape[0], self.n), dtype=np.result_type(M, self.dtype))
        for lo, P in self.panels:
            hi = lo + len(P)
            if lo == 0:  # the first panel spans every column
                np.matmul(M[:, :hi], P, out=out)
            else:
                out[:, lo:] += M[:, lo:hi] @ P
            if hi < self.n:
                out[:, lo:hi] += (P[:, hi - lo:] @ M[:, hi:].T).T
        return out

    def full(self):
        """The whole n x n matrix, exactly symmetric: each panel's rows, and
        their mirror below the panel."""
        out = np.empty(self.shape, dtype=self.dtype)
        for lo, P in self.panels:
            hi = lo + len(P)
            out[lo:hi, lo:] = P
            out[hi:, lo:hi] = P[:, len(P):].T
        return out


def gaussian_kernel(d2, sigma):
    """exp(-d2 / (2 sigma^2)) of the squared distances d2, computed in d2's buffer and returned.

    2 sigma^2 is rounded to d2's dtype, in which it must be neither 0 (the
    kernel would be 0/0 where d2 is 0) nor infinite (the kernel would be all ones).
    Division is sign-symmetric, so d2 / -(2 sigma^2) is -(d2 / (2 sigma^2)) bit
    for bit; a quotient beyond the dtype's range (a subnormal 2 sigma^2) is
    -inf, whose exponential is the kernel's limit 0.
    """
    with np.errstate(over="ignore"):
        two_var = d2.dtype.type(2.0 * np.float64(sigma) ** 2)
    if two_var == 0:
        raise ParameterError(f"bandwidth {sigma} is too small: 2 sigma^2 is 0 in {d2.dtype}")
    if not np.isfinite(two_var):
        raise ParameterError(f"bandwidth {sigma} is too large: 2 sigma^2 overflows {d2.dtype}")
    with np.errstate(over="ignore"):
        np.divide(d2, -two_var, out=d2)
    return np.exp(d2, out=d2)


def _upper_triangle(d2):
    """The strict upper triangle of the SymGraph d2, PANEL rows of a panel at a
    time: the part inside their diagonal block (a copy of at most PANEL^2 / 2
    entries), then the part right of it (a view)."""
    above = np.triu(np.ones((PANEL, PANEL), dtype=bool), 1)
    for _, P in d2.panels:
        for lo in range(0, len(P), PANEL):
            hi = min(lo + PANEL, len(P))
            if hi - lo > 1:
                yield P[lo:hi, lo:hi][above[:hi - lo, :hi - lo]]
            if hi < P.shape[1]:
                yield P[lo:hi, hi:]


def _window_pass(d2, a, b, cap):
    """One pass over d2's upper triangle: (its min, #(v < a), #(v <= b), the values in [a, b]).

    The values are gathered only while there are at most `cap` of them, else
    None. The masks of every chunk are written into two buffers of PANEL x n.
    """
    low, lt, le, window = np.inf, 0, 0, []
    masks = np.empty((2, PANEL * d2.n), dtype=bool)
    for chunk in _upper_triangle(d2):
        low = np.minimum(low, chunk.min())  # NaN propagates
        below, upto = (mask[:chunk.size].reshape(chunk.shape) for mask in masks)
        np.less(chunk, a, out=below)
        np.less_equal(chunk, b, out=upto)
        lt += np.count_nonzero(below)
        le += np.count_nonzero(upto)
        if window is not None and le - lt <= cap:
            window.append(chunk[np.logical_xor(upto, below, out=upto)])
        else:
            window = None
    return low, lt, le, window


def _middle_pair(d2):
    """The values at the middle ranks lo <= hi of the SymGraph d2's upper
    triangle (one rank for an odd count), or None when an entry is NaN or negative.

    Counting passes narrow a value interval [L, U] holding both ranks; the
    values in a window [a, b] are gathered only when they fit in PANEL x n
    entries, so no pass copies the triangle. The windows come from pivots
    read off a strided sample of the triangle (Floyd & Rivest's selection).
    Once the sample cannot narrow [L, U], a value halving it in bit-pattern
    order (monotone for values >= 0) is the pivot, so the loop ends. Ranks
    split across a pivot are the largest value below it and the smallest
    above it: one more pass.
    """
    n = d2.n
    count = n * (n - 1) // 2
    lo, hi = (count - 1) // 2, count // 2
    cap = PANEL * n
    step = max(64, n * n // SAMPLE)
    while math.gcd(step, n) > 1:  # a step sharing no factor with n visits every column
        step += 1
    i, j = np.divmod(np.arange(0, n * n, step), n)
    i, j = i[j > i], j[j > i]
    panel = i // HEIGHT
    sample = np.sort(np.concatenate([P[i[panel == k] - start, j[panel == k] - start]
                                     for k, (start, P) in enumerate(d2.panels)]))
    scalar, bits = d2.dtype.type, np.dtype(f"u{d2.dtype.itemsize}")
    L, U, below, inside = scalar(0), scalar(np.inf), 0, count
    while True:
        if inside <= cap:
            a, b = L, U
        else:
            i0, i1 = np.searchsorted(sample, L), np.searchsorted(sample, U, side="right")
            m = i1 - i0
            spread = 1.5 * np.sqrt(m) + 1.0  # three standard deviations of a sample rank
            ia = int(np.floor(m * (lo - below) / inside - spread))
            ib = int(np.ceil(m * (hi - below + 1) / inside + spread))
            a, b = (sample[i0 + min(max(k, 0), m - 1)] for k in (ia, ib)) if m else (L, U)
            if a <= L and b >= U:  # no narrower window: halve [L, U]
                keys = np.abs(np.array([L, U], dtype=d2.dtype)).view(bits)
                a = b = (keys[:1] + (keys[1] - keys[0]) // 2).view(d2.dtype)[0]
        low, lt, le, window = _window_pass(d2, a, b, cap)
        if not low >= 0:
            return None
        if hi < lt:
            U, inside = np.nextafter(a, scalar(-np.inf)), lt - below
        elif lo >= le:
            L, below, inside = np.nextafter(b, scalar(np.inf)), le, below + inside - le
        elif lt <= lo and hi < le:
            if a == b:
                return a, a
            if window is not None:
                window = np.concatenate(window)
                window.partition(hi - lt)
                return (window[:hi - lt].max() if lo < hi else window[hi - lt]), window[hi - lt]
            L, U, below, inside = a, b, lt, le - lt
        else:  # lo is the last value below the pivot p, hi the first at or above it
            p = a if lt == hi else np.nextafter(b, scalar(np.inf))
            return (max(np.where(chunk < p, chunk, -np.inf).max() for chunk in _upper_triangle(d2)),
                    min(np.where(chunk >= p, chunk, np.inf).min() for chunk in _upper_triangle(d2)))


def median_bandwidth(d2):
    """Median pairwise distance of the SymGraph d2 of squared distances; falls back to 1 when degenerate.

    np.median's value bit for bit, NaN included: the squared distances at the
    two middle ranks of the upper triangle (`_middle_pair`, which makes no
    copy of it) are square-rooted and averaged with np.mean in d2's dtype.
    """
    if d2.n < 2:
        raise ParameterError("median heuristic needs at least 2 items")
    pair = _middle_pair(d2)
    if pair is None:
        return float("nan")  # np.median's value, which gaussian_kernel rejects
    # for an odd count both are the one middle value, whose mean is itself
    sigma = float(np.mean(np.sqrt(np.array(pair, dtype=d2.dtype))))
    if sigma == 0.0:
        warnings.warn("all items identical; falling back to bandwidth 1", stacklevel=2)
        sigma = 1.0
    return sigma


def visual_similarity(Xatt, bandwidth=None):
    """Gaussian-kernel similarity of attentive features, as a SymGraph; unit diagonal.

    Each panel's Gram block becomes its distances in place; the median over
    them all is the bandwidth when `bandwidth` is None; then each panel becomes
    its kernel. Returns (S_v, sigma) with the bandwidth actually used.
    """
    sq = (Xatt**2).sum(axis=0)
    G = SymGraph(Xatt.shape[1], Xatt.dtype)
    for lo, P in G.panels:
        hi = lo + len(P)
        _distances(sq[lo:hi], sq[lo:], np.matmul(Xatt[:, lo:hi].T, Xatt[:, lo:], out=P))
    sigma = median_bandwidth(G) if bandwidth is None else float(bandwidth)
    for _, P in G.panels:
        gaussian_kernel(P, sigma)
        np.fill_diagonal(P, 1.0)  # the diagonal of its diagonal block
    return G.mirror(), sigma


def combine(mu, visual, counts):
    """mu*visual + counts, in `visual`'s buffer when it is an array: the tags' part of every
    graph's panels and of the queries' products and self terms, where a variant with no
    kernel passes zeros."""
    visual *= mu
    visual += counts
    return visual


def add_counts(mu, K, Yk, Y):
    """K <- mu*K + Yk^T Y in K's buffer: the kernel rows of the items Yk tags, fused
    with their tag counts against Y a PANEL-row block at a time. Integer counts
    are the same sums in any block."""
    for lo in range(0, K.shape[0], PANEL):
        combine(mu, K[lo:lo + PANEL], Yk[:, lo:lo + PANEL].T @ Y)
    return K


def inv_sqrt_degree(degrees):
    """D^{-1/2} as a vector; zero where the degree is zero."""
    return np.where(degrees > 0, 1.0 / np.sqrt(np.where(degrees > 0, degrees, 1.0)), 0.0)


def normalize(S):
    """(S, degrees): the SymGraph S scaled in place to D^{-1/2} S D^{-1/2}; zero-degree rows stay zero.

    A degree is its row's sum in the panel holding the row plus the column
    sums, right of their diagonal blocks, of the panels above. The check runs
    before the first write, so a rejected S is left unchanged.
    """
    if min(P.min() for _, P in S.panels) < 0:
        raise ParameterError("graph must be nonnegative")
    degrees = np.zeros(S.n, dtype=S.dtype)
    for lo, P in S.panels:
        hi = lo + len(P)
        degrees[lo:hi] += P.sum(axis=1)
        degrees[hi:] += P[:, len(P):].sum(axis=0)
    inv_sqrt = inv_sqrt_degree(degrees)
    for lo, P in S.panels:
        P *= inv_sqrt[lo:lo + len(P), None]
        P *= inv_sqrt[None, lo:]
    return S.mirror(), degrees  # the scaling rounds an entry and its mirror apart


def similarity(Xatt, Y, config):
    """(S, sigma): the variant's unnormalized similarity, a SymGraph in Xatt's dtype.

    The kernel part is built first, zeros when the variant has none, and the
    tag counts are fused into its panels; sigma is the kernel's bandwidth, or
    None without a kernel.
    """
    Y = np.asarray(Y, dtype=Xatt.dtype)
    uses_visual, uses_tags = PARTS[config.variant]
    if uses_visual:
        S, sigma = visual_similarity(Xatt, config.bandwidth)
    else:  # mu*0 + counts is the counts alone
        S, sigma = SymGraph(Y.shape[1], Y.dtype), None
        for _, P in S.panels:
            P.fill(0)
    if uses_tags:  # exact counts on both sides of the diagonal keep it symmetric
        for lo, P in S.panels:
            add_counts(config.mu, P, Y[:, lo:lo + len(P)], Y[:, lo:])
    return S, sigma


def build_graph(Xatt, Y, config):
    """(S_tilde, degrees, sigma): the variant's similarity, normalized in its own panels."""
    S, sigma = similarity(Xatt, Y, config)
    return (*normalize(S), sigma)


def _kernel_products(xatt_q, xatt_train, R, sigma, panel, G):
    """G <- K R^T for the m x n Gaussian kernel K of the queries' attentive features
    against the training items', `panel` rows of K at a time in one reused buffer.

    One product of augmented operands, [-2 x_q; ||x_q||^2; 1]^T [X; 1^T; ||x_i||^2],
    gives each panel's squared distances, clipped at 0.
    The buffers are freed on return, before the caller forms anything m x p.
    """
    (k, m), n = xatt_q.shape, xatt_train.shape[1]
    B = np.concatenate([xatt_train, np.ones((1, n), dtype=G.dtype),
                        (xatt_train**2).sum(axis=0, keepdims=True)])
    sq = (xatt_q**2).sum(axis=0)
    A = np.empty((k + 2, min(panel, m)), dtype=G.dtype)
    A[k + 1] = 1.0
    K = np.empty((A.shape[1], n), dtype=G.dtype)
    for lo in range(0, m, panel):
        hi = min(lo + panel, m)
        a = A[:, :hi - lo]
        np.multiply(xatt_q[:, lo:hi], -2.0, out=a[:k])
        a[k] = sq[lo:hi]
        d2 = np.matmul(a.T, B, out=K[:hi - lo])
        gaussian_kernel(np.maximum(d2, 0.0, out=d2), sigma)
        np.matmul(d2, R.T, out=G[lo:hi])


def query_products(xatt_q, Yq, xatt_train, y_train, R, config, panel):
    """(G, s): the m queries' similarity rows to the n training items, times R^T, and their self terms.

    Each query joins the training items as one more node. Its unnormalized
    similarity row, the variant's fusion of the kernel and the tag counts as
    in `similarity`, is formed only inside the product G = S_q R^T (m x p)
    with the caller's p x n operand R; s holds the m self terms, the same
    fusion of the kernel's 1 and ||y_q||^2. config.bandwidth must be the
    resolved bandwidth of the training graph.
    The kernel is formed `panel` queries at a time (`_kernel_products`); the
    tag counts enter as Yq^T (Y R^T), so no variant forms an m x n array of
    them, and a variant with no kernel none at all. G and s are in the
    features' dtype.
    """
    dtype = np.result_type(xatt_q, xatt_train)
    R, Yq, y_train = (np.asarray(a, dtype=dtype) for a in (R, Yq, y_train))
    uses_visual, uses_tags = PARTS[config.variant]
    G = np.zeros((xatt_q.shape[1], R.shape[0]), dtype=dtype)
    s = np.full(xatt_q.shape[1], float(uses_visual), dtype=dtype)
    if uses_visual:
        _kernel_products(xatt_q, xatt_train, R, config.bandwidth, panel, G)
    if uses_tags:
        combine(config.mu, G, Yq.T @ (y_train @ R.T))
        combine(config.mu, s, (Yq**2).sum(axis=0))
    return G, s
