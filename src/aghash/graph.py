"""Augmented semantic graph: visual + auxiliary similarity, fusion, normalization.

Also the one-column extension of the training graph for out-of-sample queries.
The graph takes the dtype of the attentive features, float32 or float64; the
tags, 0/1 entries whose counts are exact in either, are cast to it.
"""

import math
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
    """exp(-d2 / (2 sigma^2)) of the squared distances d2, computed in d2's buffer and returned.

    2 sigma^2 is rounded to d2's dtype, in which it must be neither 0 (the
    kernel would be 0/0 where d2 is 0) nor infinite (the kernel would be all ones).
    """
    with np.errstate(over="ignore"):
        two_var = d2.dtype.type(2.0 * np.float64(sigma) ** 2)
    if two_var == 0:
        raise ParameterError(f"bandwidth {sigma} is too small: 2 sigma^2 is 0 in {d2.dtype}")
    if not np.isfinite(two_var):
        raise ParameterError(f"bandwidth {sigma} is too large: 2 sigma^2 overflows {d2.dtype}")
    np.negative(d2, out=d2)
    d2 /= two_var
    return np.exp(d2, out=d2)


def _upper_triangle(d2):
    """The strict upper triangle of the square d2, PANEL rows at a time: the part
    inside the diagonal block (a copy of at most PANEL^2 / 2 entries), then the
    block right of it (a view)."""
    n = d2.shape[0]
    above = np.triu(np.ones((PANEL, PANEL), dtype=bool), 1)
    for lo in range(0, n - 1, PANEL):
        hi = min(lo + PANEL, n)
        yield d2[lo:hi, lo:hi][above[:hi - lo, :hi - lo]]
        if hi < n:
            yield d2[lo:hi, hi:]


def _window_pass(d2, a, b, cap):
    """One pass over d2's upper triangle: (its min, #(v < a), #(v <= b), the values in [a, b]).

    The values are gathered only while there are at most `cap` of them, else None.
    """
    low, lt, le, window = np.inf, 0, 0, []
    for chunk in _upper_triangle(d2):
        low = np.minimum(low, chunk.min())  # NaN propagates
        below, upto = chunk < a, chunk <= b
        lt += np.count_nonzero(below)
        le += np.count_nonzero(upto)
        if window is not None and le - lt <= cap:
            window.append(chunk[np.logical_xor(upto, below, out=upto)])
        else:
            window = None
    return low, lt, le, window


def _middle_pair(d2):
    """The values at the middle ranks lo <= hi of d2's upper triangle (one rank
    for an odd count), or None when an entry is NaN or negative.

    Counting passes narrow a value interval [L, U] holding both ranks; the
    values in a window [a, b] are gathered only when they fit in PANEL x n
    entries, so no pass copies the triangle. The windows come from pivots
    read off a strided sample of the triangle (Floyd & Rivest's selection).
    Once the sample cannot narrow [L, U], a value halving it in bit-pattern
    order (monotone for values >= 0) is the pivot, so the loop ends. Ranks
    split across a pivot are the largest value below it and the smallest
    above it: one more pass.
    """
    n = d2.shape[0]
    count = n * (n - 1) // 2
    lo, hi = (count - 1) // 2, count // 2
    cap = PANEL * n
    step = max(64, n * n // SAMPLE)
    while math.gcd(step, n) > 1:  # a step sharing no factor with n visits every column
        step += 1
    i, j = np.divmod(np.arange(0, n * n, step), n)
    sample = np.sort(d2[i[j > i], j[j > i]])
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
    """Median pairwise distance of the n x n squared distances d2; falls back to 1 when degenerate.

    np.median's value bit for bit, NaN included: the squared distances at the
    two middle ranks of the upper triangle (`_middle_pair`, which makes no
    copy of it) are square-rooted and averaged with np.mean in d2's dtype.
    """
    n = d2.shape[0]
    if n < 2:
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
        add_counts(config.mu, S, Y, Y)
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
    if not uses_visual:
        st_col = Yq.T @ y_train
    else:
        st_col = gaussian_kernel(sqdist(xatt_q, xatt_train), config.bandwidth)
        if uses_tags:
            add_counts(config.mu, st_col, Yq, y_train)
    s_self = combine(config.mu, 1.0 if uses_visual else None, (Yq**2).sum(axis=0) if uses_tags else None)
    d_q = st_col.sum(axis=1) + s_self
    safe_dq = np.where(d_q > 0, d_q, 1.0)
    st_col /= np.sqrt(safe_dq)[:, None]
    st_col *= inv_sqrt_degree(degrees)[None, :]
    st_col[d_q == 0, :] = 0.0
    st_self = np.where(d_q > 0, s_self / safe_dq, 0.0)
    return st_col, st_self
