import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from aghash import attention as att
from aghash import graph as sg
from aghash.errors import ParameterError, ShapeError
from aghash.graph import (
    VARIANTS,
    GraphConfig,
    SymGraph,
    build_graph,
    combine,
    gaussian_kernel,
    median_bandwidth,
    normalize,
    query_products,
    similarity,
    visual_similarity,
)
from conftest import sqdist


def triangle(d2):
    """The SymGraph of d2's strict upper triangle, the part median_bandwidth reads."""
    upper = np.triu(d2, 1)
    return SymGraph.from_dense(upper + upper.T)


def assert_median_is_numpys(d2):
    """median_bandwidth of d2's triangle is np.median of its upper triangle's
    distances, bit for bit, and falls back to 1 with a warning where that is 0."""
    n = d2.shape[0]
    want = float(np.median(np.sqrt(d2[np.triu_indices(n, 1)])))
    if want == 0.0:
        with pytest.warns(UserWarning, match="all items identical"):
            assert median_bandwidth(triangle(d2)) == 1.0
    else:
        assert median_bandwidth(triangle(d2)) == want


def normalize_dense(S):
    """normalize on the SymGraph of the full array S: (the whole S~, degrees)."""
    St, degrees = normalize(SymGraph.from_dense(S))
    return St.full(), degrees


def traced_peak(fn, *args):
    """(fn's result, the peak bytes tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestVisualSimilarity:
    def test_identical_items(self):
        X = np.ones((3, 4))
        with pytest.warns(UserWarning):
            S, sigma = visual_similarity(X)
        assert np.array_equal(S.full(), np.ones((4, 4)))
        assert sigma == 1.0

    def test_kernel_value_at_two_sigma_squared(self):
        # squared distance 2*sigma^2 gives exp(-1)
        sigma = 1.7
        X = np.array([[0.0, sigma * np.sqrt(2.0)]])
        S, _ = visual_similarity(X, bandwidth=sigma)
        assert S.full()[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("dtype, sigma", [(np.float32, 1e-30), (np.float64, 1e-200)])
    def test_vanishing_bandwidth_is_rejected(self, dtype, sigma):
        # 2 sigma^2 is 0 in d2's dtype, so the kernel would be 0/0 where d2 is 0
        d2 = np.zeros((2, 2), dtype=dtype)
        with pytest.raises(ParameterError, match=f"bandwidth {sigma} is too small"):
            gaussian_kernel(d2, sigma)
        assert not d2.any()
        assert gaussian_kernel(d2, 1e-20 if dtype == np.float32 else 1e-150)[0, 0] == 1.0

    @pytest.mark.parametrize("dtype, sigma", [(np.float32, 1e30), (np.float64, 1e200)])
    def test_overflowing_bandwidth_is_rejected(self, dtype, sigma):
        # 2 sigma^2 is infinite in d2's dtype, so the kernel would be all ones
        d2 = np.ones((2, 2), dtype=dtype)
        with pytest.raises(ParameterError, match=re.escape(f"bandwidth {sigma} is too large")):
            gaussian_kernel(d2, sigma)
        assert np.all(d2 == 1)
        assert gaussian_kernel(d2, 1e18 if dtype == np.float32 else 1e150)[0, 0] == 1.0

    def test_large_bandwidth_limit(self):
        rng = np.random.default_rng(0)
        S, _ = visual_similarity(rng.standard_normal((3, 5)), bandwidth=1e9)
        assert np.allclose(S.full(), 1.0, atol=1e-12)

    def test_unit_diagonal_and_range(self):
        rng = np.random.default_rng(1)
        S = visual_similarity(rng.standard_normal((4, 6)))[0].full()
        assert np.array_equal(np.diag(S), np.ones(6))
        assert S.min() > 0.0 and S.max() <= 1.0

    @pytest.mark.parametrize("n", [5, sg.PANEL, 2 * sg.PANEL + 3])
    def test_sqdist_is_the_one_shot_formula(self, n):
        # the panelled fix-up takes the same elementwise steps as (a + b) - 2 A^T B
        rng = np.random.default_rng(n)
        A, B = rng.standard_normal((7, n)), rng.standard_normal((7, n + 2))
        for P, Q in ((A, A), (A, B)):
            want = np.maximum((P**2).sum(axis=0)[:, None] + (Q**2).sum(axis=0)[None, :]
                              - 2.0 * (P.T @ Q), 0.0)
            assert np.array_equal(sqdist(P, Q), want)

    def test_gaussian_kernel_overwrites_its_argument(self):
        X = np.random.default_rng(8).standard_normal((3, 9))
        d2 = sqdist(X, X)
        want = np.exp(-d2 / (2.0 * 1.3**2))
        K = gaussian_kernel(d2, 1.3)
        assert K is d2 and np.array_equal(K, want)

    @pytest.mark.parametrize("dtype, sigmas", [(np.float32, (1e-20, 1e-3, 0.7, 1.3, 1e15)),
                                               (np.float64, (1e-160, 1e-3, 0.7, 1.3, 1e150))])
    def test_gaussian_kernel_is_the_two_step_formula(self, dtype, sigmas):
        # d2 / -(2 sigma^2) in one pass is -d2, then / (2 sigma^2), bit for bit:
        # zeros, subnormals, large values and infinities, and a subnormal
        # 2 sigma^2 (the first sigma) whose quotients overflow to -inf
        info = np.finfo(dtype)
        values = np.array([0.0, info.smallest_subnormal, 7 * info.smallest_subnormal,
                           info.smallest_normal / 3, info.smallest_normal, 1e-30, 0.5, 1.0, 2.0,
                           3.7, 1e4, 1e30, info.max / 2, info.max, np.inf], dtype=dtype)
        for sigma in sigmas:
            want = values.copy()
            two_var = dtype(2.0 * np.float64(sigma) ** 2)
            with np.errstate(over="ignore"):
                np.negative(want, out=want)
                want /= two_var
            np.exp(want, out=want)
            got = gaussian_kernel(values.copy(), sigma)
            bits = np.dtype(f"u{info.bits // 8}")
            assert np.array_equal(got.view(bits), want.view(bits)), sigma

    def test_median_heuristic_value(self):
        X = np.array([[0.0, 1.0, 3.0]])
        # pairwise distances 1, 2, 3 -> median 2
        assert median_bandwidth(triangle(sqdist(X, X))) == 2.0

    # 1, 3, 179700 and 180901 pairs: odd and even counts
    @pytest.mark.parametrize("n", [2, 3, 600, 602])
    def test_median_heuristic_matches_oracle(self, n):
        # np.median of the upper triangle's distances, bit for bit, on float64
        # features, on the float32 ones fit builds its d2 from, on heavily tied
        # integer-valued ones, on identical items, whose median 0 falls back to
        # 1 with a warning, and on uniform values; at n = 600 these leave a
        # value below the largest at the lower middle rank after the selection
        rng = np.random.default_rng(n)
        X = rng.standard_normal((16, n))
        tied = rng.integers(0, 3, (2, n)).astype(np.float32)
        uniform = np.random.default_rng(46).random((n, n)).astype(np.float32)  # only the upper triangle is read
        for d2 in [sqdist(F, F) for F in (X, X.astype(np.float32), tied, np.ones((4, n), np.float32))] + [uniform]:
            assert_median_is_numpys(d2)
        nan = triangle(d2)
        nan.panels[0][1][0, -1] = np.nan  # a NaN distance gives np.median's NaN
        assert np.isnan(median_bandwidth(nan))
        if n > 3:  # the bound is in n x n arrays: a few items' Python objects exceed it
            d2 = sqdist(X, X)
            median_bandwidth(triangle(d2[:3, :3]))  # numpy's lazy imports happen outside the trace
            sigma, peak = traced_peak(median_bandwidth, triangle(d2))
            assert sigma == np.median(np.sqrt(d2[np.triu_indices(n, 1)]))
            # the parent's gather of the upper triangle alone was 0.5 of these
            assert peak < 0.2 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64 arrays"

    @pytest.mark.parametrize("n", [600, 602])
    def test_median_heuristic_matches_oracle_after_a_miss(self, n):
        # inputs whose first window misses the middle ranks or holds too many
        # values to gather: each costs further passes over the triangle, never
        # a copy, and the value stays np.median's bit for bit. Non-symmetric d2
        # with two values, split at random or with exactly hi - 1, hi or hi + 1
        # entries below the larger (the middle ranks tie, or straddle the
        # split, also between two adjacent floats, or between 0 and inf); then
        # d2 with inf entries below the middle and at it, which need no miss
        rng = np.random.default_rng(n + 1)
        count = n * (n - 1) // 2
        hi = count // 2
        upper = np.triu_indices(n, 1)
        cases = [np.where(rng.random((n, n)) < 0.5, 1.0, 4.0).astype(np.float32)]
        one = np.float32(1.0)
        for k in (hi, hi - 1, hi + 1):
            for small, large in ((1.0, 4.0), (one, np.nextafter(one, np.float32(2.0))), (0.0, np.inf)):
                values = np.full(count, large, dtype=np.float32)
                values[:k] = small
                d2 = rng.random((n, n)).astype(np.float32)
                d2[upper] = rng.permutation(values)
                cases.append(d2)
        passes, upper_triangle = [], sg._upper_triangle

        def spy(d2):
            passes[-1] += 1
            return upper_triangle(d2)

        with mock.patch.object(sg, "_upper_triangle", spy):
            for d2 in cases:
                passes.append(0)
                assert_median_is_numpys(d2)
        assert min(passes) >= 2, f"passes per case {passes}"
        for share in (0.3, 0.6):
            d2 = rng.random((n, n))
            d2[rng.random((n, n)) < share] = np.inf
            assert_median_is_numpys(d2)

    def test_median_after_a_miss_gathers_no_triangle(self):
        # the middle ranks straddle two values, so the first window holds every
        # entry: the gather stops at PANEL x n entries (0.17 of this triangle),
        # and the split takes one more pass
        n = 1500
        count = n * (n - 1) // 2
        values = np.full(count, 4.0, dtype=np.float32)
        values[:count // 2] = 1.0
        d2 = np.ones((n, n), dtype=np.float32)
        d2[np.triu_indices(n, 1)] = np.random.default_rng(3).permutation(values)
        median_bandwidth(triangle(d2[:3, :3]))  # numpy's lazy imports happen outside the trace
        sigma, peak = traced_peak(median_bandwidth, triangle(d2))
        assert sigma == 1.5
        # the triangle alone is 0.5 of these
        assert peak < 0.25 * n * n * 4, f"peak {peak / (n * n * 4):.2f} n x n float32 arrays"

    def test_the_package_takes_no_np_median(self):
        # np.median selects the two middle ranks and the last one, a slower
        # generic selection than median_bandwidth's one partition
        root = Path(sg.__file__).parent
        assert [path.name for path in sorted(root.glob("*.py")) if "median(" in path.read_text()] == []


# the graph variant whose similarity each kernel `part` is
PART_VARIANTS = {"visual": "visual-only", "augmented": "augmented"}


def graph_and_target(X, Y, config, part):
    """build_graph's (S_tilde, degrees, sigma), then the kernel similarity `part`
    (a PART_VARIANTS key, or None) rebuilt from the graph's resolved bandwidth,
    as fit builds its 'visual' reconstruction target."""
    St, degrees, sigma = build_graph(X, Y, config)
    if part is None:
        return St, degrees, sigma, None
    resolved = config if sigma is None else replace(config, bandwidth=sigma)
    return St, degrees, sigma, similarity(X, Y, replace(resolved, variant=PART_VARIANTS[part]))[0]


def aux_similarity(Y):
    """The aux-only variant's similarity of the tags Y, whatever the features."""
    return similarity(np.zeros((1, Y.shape[1])), Y, GraphConfig(variant="aux-only"))[0].full()


class TestAuxSimilarity:
    def test_shared_count(self):
        Y = np.array([[1.0, 1], [0, 1], [1, 1]])
        assert aux_similarity(Y)[0, 1] == 2.0

    def test_orthogonal(self):
        Y = np.eye(3)
        assert aux_similarity(Y)[0, 1] == 0.0

    def test_self_count(self):
        Y = np.array([[1.0], [1.0], [0.0], [1.0]])
        assert aux_similarity(Y)[0, 0] == 3.0

    def test_integer_valued_bounded(self):
        rng = np.random.default_rng(2)
        Y = (rng.random((5, 8)) < 0.5).astype(float)
        Sa = aux_similarity(Y)
        assert np.array_equal(Sa, np.round(Sa))
        assert Sa.max() <= 5


class TestFuse:
    def test_mu_zero_is_aux_only(self):
        rng = np.random.default_rng(3)
        Sv = rng.random((4, 4))
        Sa = rng.random((4, 4))
        assert np.array_equal(combine(0.0, Sv, Sa), Sa)

    def test_zero_aux(self):
        Sv = np.full((3, 3), 0.5)
        assert np.array_equal(combine(1.0, Sv, np.zeros((3, 3))), Sv)

    def test_scalar_arithmetic(self):
        assert combine(1.0, np.array([[0.5]]), np.array([[2.0]]))[0, 0] == 2.5

    def test_a_missing_part_leaves_the_other_unscaled(self):
        # a variant with no kernel passes zeros, in whose buffer its counts come back as they are
        Sv, Sa = np.zeros((2, 2)), np.full((2, 2), 2.0)
        assert combine(3.0, Sv, Sa) is Sv and np.array_equal(Sv, Sa)
        assert combine(3.0, 0.0, 2.0) == 2.0 and combine(3.0, 1.0, 2.0) == 5.0


class TestNormalize:
    def test_all_ones(self):
        n = 5
        St, degrees = normalize_dense(np.ones((n, n)))
        assert np.allclose(St, np.full((n, n), 1.0 / n), atol=1e-12)
        assert np.array_equal(degrees, np.full(n, float(n)))

    def test_diagonal(self):
        St, _ = normalize_dense(np.diag([4.0, 4.0]))
        assert St[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_isolated_node(self):
        S = np.zeros((3, 3))
        S[:2, :2] = 1.0
        St, _ = normalize_dense(S)
        assert np.array_equal(St[2], np.zeros(3))
        assert np.array_equal(St[:, 2], np.zeros(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            SymGraph.from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))
        # symmetry is checked one block at a time; the last block and the far corner count too
        for i, j in ((39, 0), (0, 39), (20, 21)):
            S = np.ones((40, 40))
            S[i, j] = 2.0
            with pytest.raises(ParameterError, match="symmetric"):
                SymGraph.from_dense(S)

    def test_rejects_non_square(self):
        for shape in ((2, 3), (4,), (2, 2, 2)):
            with pytest.raises(ShapeError, match="graph must be square"):
                SymGraph.from_dense(np.ones(shape))

    @pytest.mark.parametrize("i, j", [
        (sg.PANEL - 1, sg.PANEL), (sg.PANEL, sg.PANEL - 1),
        (0, sg.PANEL - 1), (sg.PANEL - 1, 0),
        (2 * sg.PANEL + 2, sg.PANEL), (sg.PANEL, 2 * sg.PANEL + 2),
    ])
    @pytest.mark.parametrize("scale, accepted", [(0.99, True), (1.01, False)])
    def test_symmetry_tolerance_at_block_edges(self, i, j, scale, accepted):
        # blocks and their mirrors accept exactly the matrices allclose(S, S.T) accepts
        S = np.ones((2 * sg.PANEL + 3,) * 2)
        S[i, j] += scale * (1e-12 + 1e-10)
        assert np.allclose(S, S.T, rtol=1e-10, atol=1e-12) == accepted
        if accepted:
            normalize(SymGraph.from_dense(S))
        else:
            with pytest.raises(ParameterError, match="graph must be symmetric"):
                SymGraph.from_dense(S)

    @pytest.mark.parametrize("value, mirror, accepted", [
        (1.0 + 0.5e-10, 1.0, True),  # within the tolerance, not exactly symmetric
        (1.0 + 2e-10, 1.0, False),  # beyond the tolerance
        (np.nan, np.nan, False),  # NaN equals nothing, so a mirrored NaN pair is rejected
        (np.inf, np.inf, True),  # inf equals inf, exactly and within the tolerance
    ], ids=["within", "beyond", "nan", "inf"])
    def test_symmetry_check_accepts_what_allclose_accepts(self, value, mirror, accepted):
        S = np.ones((2 * sg.PANEL + 3,) * 2)
        S[sg.PANEL + 1, 2], S[2, sg.PANEL + 1] = value, mirror
        assert np.allclose(S, S.T, rtol=1e-10, atol=1e-12) == accepted
        if accepted:
            with np.errstate(invalid="ignore"):  # inf degrees scale their row to NaN
                normalize(SymGraph.from_dense(S))
        else:
            with pytest.raises(ParameterError, match="graph must be symmetric"):
                SymGraph.from_dense(S)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_floating_graph_keeps_its_dtype(self, dtype):
        A = np.random.default_rng(8).random((40, 40))
        G = SymGraph.from_dense((A + A.T).astype(dtype))
        St, degrees = normalize(G)
        assert St is G and St.dtype == dtype and degrees.dtype == dtype and St.full().dtype == dtype
        St, degrees = normalize(SymGraph.from_dense(np.ones((3, 3), dtype=np.int64)))
        assert St.dtype == np.float64 and degrees.dtype == np.float64

    def test_rejects_negative(self):
        with pytest.raises(ParameterError, match="graph must be nonnegative"):
            normalize(SymGraph.from_dense(np.array([[0.0, -1.0], [-1.0, 0.0]])))

    def test_working_set(self):
        # normalize scales the triangle in place: beyond it, the degrees, a
        # panel's column sums and the mirror's PANEL x PANEL squares (0.05 n x n
        # here; the dense graph's symmetry check read up to 0.15); each entry
        # takes the dense formula's two products
        n = 600
        A = np.random.default_rng(7).random((n, n))
        S = A + A.T
        G = SymGraph.from_dense(S)
        (St, degrees), peak = traced_peak(normalize, G)
        assert peak < 0.08 * n * n * 8, f"peak {peak / (n * n * 8):.3f} n x n float64 arrays"
        assert St is G
        assert np.allclose(degrees, S.sum(axis=1), rtol=1e-13, atol=0)
        inv = 1.0 / np.sqrt(degrees)
        upper = np.triu_indices(n)
        assert np.array_equal(St.full()[upper], (S * inv[:, None] * inv[None, :])[upper])

    def test_from_dense_holds_the_triangle(self):
        # the copy of a full array is its triangle and the panels' diagonal
        # blocks, about n^2/2 + n HEIGHT/2 entries, beside the symmetry check's
        # and the mirror's PANEL x PANEL squares
        n = 600
        A = np.random.default_rng(10).random((n, n))
        S = A + A.T
        SymGraph.from_dense(S[:3, :3])  # numpy's lazy imports happen outside the trace
        G, peak = traced_peak(SymGraph.from_dense, S)
        entries = sum(P.size for _, P in G.panels)
        assert entries <= (n * n + n * sg.HEIGHT) / 2 and all(P.dtype == np.float64 for _, P in G.panels)
        assert peak < entries * 8 + 0.08 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64"
        assert np.array_equal(G.full(), S)

    @pytest.mark.parametrize("bad", ["asymmetric", "negative"])
    def test_rejected_graph_is_unchanged(self, bad):
        A = np.random.default_rng(9).random((300, 300))
        S = A + A.T
        if bad == "asymmetric":
            S[299, 0] += 1.0
        else:
            S[299, 0] = S[0, 299] = -1.0
        S0 = S.copy()
        if bad == "asymmetric":
            with pytest.raises(ParameterError, match="graph must be symmetric"):
                SymGraph.from_dense(S)
        else:
            G = SymGraph.from_dense(S)
            G0 = [P.copy() for _, P in G.panels]
            with pytest.raises(ParameterError, match="graph must be nonnegative"):
                normalize(G)
            assert all(np.array_equal(P, P0) for (_, P), P0 in zip(G.panels, G0))
        assert np.array_equal(S, S0)

    def test_symmetry_preserved_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = rng.random((6, 6))
            St, _ = normalize_dense(A + A.T)
            assert np.array_equal(St, St.T)
            assert St.min() >= 0.0

    def test_spectral_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = rng.random((20, 20))
            St, _ = normalize_dense(A + A.T)
            top = np.linalg.eigvalsh(St).max()
            assert top <= 1.0 + 1e-8


class TestSymGraph:
    @pytest.mark.parametrize("n", [1, 2, sg.HEIGHT - 1, sg.HEIGHT, sg.HEIGHT + 1, 600])
    @pytest.mark.parametrize("r", [1, 16, 132])
    def test_products_match_the_full_matrix(self, n, r):
        # M @ G is M @ G.full() to float32 rounding in float32 and to float64
        # rounding in float64: the same sums in another order
        rng = np.random.default_rng(n + r)
        A = rng.random((n, n))
        S, M = A + A.T, rng.standard_normal((r, n))
        for dtype in (np.float32, np.float64):
            G = SymGraph.from_dense(S.astype(dtype))
            got = M.astype(dtype) @ G
            want = M.astype(dtype).astype(np.float64) @ G.full().astype(np.float64)
            scale = np.abs(M.astype(dtype)).astype(np.float64) @ np.abs(G.full()).astype(np.float64)
            eps = np.finfo(dtype).eps
            assert got.dtype == dtype and got.shape == (r, n)
            assert np.all(np.abs(got - want) <= 8 * eps * scale)
        assert (M.astype(np.float32) @ SymGraph.from_dense(S)).dtype == np.float64

    @pytest.mark.parametrize("n", [1, 2, sg.HEIGHT - 1, sg.HEIGHT, sg.HEIGHT + 1, 600])
    def test_full_is_exactly_symmetric(self, n):
        # a full array within the tolerance, and every variant's graph before
        # and after its normalization, whose scaling rounds the two sides apart
        rng = np.random.default_rng(n)
        A = rng.random((n, n))
        S = A + A.T
        S[np.triu_indices(n, 1)] *= 1.0 + 1e-12
        F = SymGraph.from_dense(S).full()
        assert np.array_equal(F, F.T) and np.array_equal(np.triu(F), np.triu(S))
        X = rng.standard_normal((5, n)).astype(np.float32)
        Y = (rng.random((3, n)) < 0.4).astype(float)
        for variant in VARIANTS:
            config = GraphConfig(mu=0.7, bandwidth=None if n > 1 else 1.0, variant=variant)
            for G in (similarity(X, Y, config)[0], build_graph(X, Y, config)[0]):
                F = G.full()
                assert np.array_equal(F, F.T)

    def test_storage_is_the_triangle(self):
        # about n^2/2 + n HEIGHT/2 entries, each panel an array of its own
        n = 3 * sg.HEIGHT + 17
        G = SymGraph(n, np.float32)
        assert n * (n + 1) / 2 <= sum(P.size for _, P in G.panels) <= (n * n + n * sg.HEIGHT) / 2
        assert [lo for lo, _ in G.panels] == list(range(0, n, sg.HEIGHT))
        assert all(P.base is None and P.flags.c_contiguous and P.shape == (min(sg.HEIGHT, n - lo), n - lo)
                   for lo, P in G.panels)

    def test_product_shape_error(self):
        G = SymGraph.from_dense(np.eye(4))
        for M in (np.ones((2, 3)), np.ones(4), np.ones((1, 2, 4))):
            with pytest.raises(ShapeError, match="cannot multiply"):
                M @ G


class TestBuildGraph:
    def test_variants(self):
        # the graph is the variant's similarity, normalized, bit for bit
        n = sg.PANEL + 7
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, n))
        Y = (rng.random((2, n)) < 0.5).astype(float)
        for variant in VARIANTS:
            config = GraphConfig(mu=0.7, variant=variant)
            St, degrees, sigma = build_graph(X, Y, config)
            S, s2 = similarity(X, Y, config)
            want_St, want_degrees = normalize(S)
            assert sigma == s2 and np.array_equal(St.full(), want_St.full())
            assert np.array_equal(degrees, want_degrees)

    def test_visual_only_similarity_is_the_kernel(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3, 5))
        Y = (rng.random((2, 5)) < 0.5).astype(float)
        S, sigma = similarity(X, Y, GraphConfig(variant="visual-only"))
        assert sigma == visual_similarity(X)[1]
        assert np.array_equal(S.full(), visual_similarity(X, sigma)[0].full())

    # `part` names a kernel similarity, built after the graph as fit builds its kernel target
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("part", [None, "visual", "augmented"])
    def test_every_variant_and_part(self, variant, part):
        # the similarity fused in the kernel's buffer equals the one fused from copies,
        # and a target rebuilt from the graph's resolved bandwidth is the part it used
        n = sg.PANEL + 7
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, n))
        Y = (rng.random((3, n)) < 0.4).astype(float)
        config = GraphConfig(mu=0.7, variant=variant)
        St, degrees, sigma, target = graph_and_target(X, Y, config, part)
        Sv, median = visual_similarity(X)
        Sv = Sv.full()
        uses_visual = sg.PARTS[variant][0]
        S = {"augmented": 0.7 * Sv + Y.T @ Y, "visual-only": Sv, "aux-only": Y.T @ Y}[variant]
        assert np.array_equal(similarity(X, Y, config)[0].full(), S)
        want_St, want_degrees = normalize(SymGraph.from_dense(S))
        assert np.array_equal(St.full(), want_St.full()) and np.array_equal(degrees, want_degrees)
        assert sigma == (median if uses_visual else None)
        if part is None:
            assert target is None
        else:
            want = {"visual": Sv, "augmented": 0.7 * Sv + Y.T @ Y}[part]
            assert np.array_equal(target.full(), want) and not any(
                np.shares_memory(P, Q) for _, P in target.panels for _, Q in St.panels)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("part", [None, "visual", "augmented"])
    def test_working_set(self, variant, part):
        # beyond its inputs: the kernel's triangle panels (0.71 n x n at
        # n = 600), then S~ in them; the median gathers none of the triangle;
        # a target adds its own panels next to S~. The graph read 0.95 n x n
        # here and 1.65 with a target, where the n x n buffer read 1.26 and 2.26
        n = 600
        rng = np.random.default_rng(11)
        X = rng.standard_normal((64, n))
        Y = (rng.random((4, n)) < 0.4).astype(float)
        build_graph(X[:, :9], Y[:, :9], GraphConfig())  # numpy's lazy imports happen outside the trace
        _, peak = traced_peak(graph_and_target, X, Y, GraphConfig(variant=variant), part)
        bound = 1.0 + 0.7 * (part is not None)
        assert peak < bound * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64 arrays"

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("part", [None, "visual", "augmented"])
    def test_dtype_follows_features(self, variant, part):
        # float64 tags do not lift a float32 graph to float64, and the float32
        # graph is the float64 one to float32 rounding
        n = sg.PANEL + 7
        rng = np.random.default_rng(13)
        X = rng.standard_normal((4, n))
        Y = (rng.random((3, n)) < 0.4).astype(float)
        config = GraphConfig(mu=0.7, variant=variant)
        St64, degrees64, _, target64 = graph_and_target(X, Y, config, part)
        St, degrees, _, target = graph_and_target(X.astype(np.float32), Y, config, part)
        assert St64.dtype == degrees64.dtype == np.float64
        assert St.dtype == degrees.dtype == np.float32
        assert np.allclose(St.full(), St64.full(), rtol=1e-5, atol=1e-7)
        if part is not None:
            assert target64.dtype == np.float64 and target.dtype == np.float32

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            GraphConfig(mu=-1.0)
        with pytest.raises(ParameterError):
            GraphConfig(bandwidth=0.0)
        with pytest.raises(ParameterError):
            GraphConfig(variant="sparse")
        with pytest.raises(ParameterError, match="mu must be a real number, got 'x'"):
            GraphConfig(mu="x")
        with pytest.raises(ParameterError, match="^mu must be a real number, got True$"):
            GraphConfig(mu=True)


    @pytest.mark.parametrize("variant", sg.VARIANTS)
    def test_graph_in_basis_coordinates(self, variant):
        # distances do not change under the orthonormal basis, so the graph of the
        # features under the projections re-expressed in its k = 8 coordinates,
        # as fit builds them, is the graph of the d' = 32 features
        rng = np.random.default_rng(5)
        X, Y = rng.standard_normal((6, 300)), (rng.random((2, 300)) < 0.5).astype(np.float64)
        params = att.init_attention(6, 2, 32, seed=5)
        Q = att.basis(params)
        in_basis = att.AttentionParams(Q.T @ params.P_x, Q.T @ params.P_y)
        config = sg.GraphConfig(variant=variant)
        St, degrees, sigma = build_graph(att.denoise(X, Y, params).astype(np.float32), Y, config)
        St_c, degrees_c, sigma_c = build_graph(att.denoise(X, Y, in_basis).astype(np.float32), Y, config)
        eps = np.finfo(np.float32).eps
        St, St_c = St.full(), St_c.full()
        assert np.abs(St_c - St).max() <= 16 * eps * np.abs(St).max()
        assert np.abs(degrees_c - degrees).max() <= 16 * eps * degrees.max()
        if sigma is not None:
            assert abs(sigma_c - sigma) <= 1e-6 * sigma


def query_inputs(seed, m, n, k=16, c=4, dtype=np.float64):
    """Random (xatt_q, Yq, xatt_train, y_train, R) of m queries against n
    training items, the features in `dtype`, the tags and the 9 x n operand R float64."""
    rng = np.random.default_rng(seed)
    xatt_q, xatt_train = (rng.standard_normal((k, size)).astype(dtype) for size in (m, n))
    Yq, y_train = ((rng.random((c, size)) < 0.4).astype(float) for size in (m, n))
    return xatt_q, Yq, xatt_train, y_train, rng.standard_normal((9, n))


class TestQueryColumns:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_products_of_the_explicit_rows(self, variant):
        # G = S_q R^T for the rows mu*kernel + counts formed whole, and the
        # self terms mu*1 + |y_q|^2, whatever the panel; with R = I, G is S_q
        m, n = 23, 40
        xatt_q, Yq, xatt_train, y_train, R = query_inputs(3, m, n)
        config = GraphConfig(mu=0.7, bandwidth=2.0, variant=variant)
        uses_visual, uses_tags = sg.PARTS[variant]
        rows = gaussian_kernel(sqdist(xatt_q, xatt_train), 2.0) if uses_visual else np.zeros((m, n))
        self_terms = np.full(m, float(uses_visual))
        if uses_tags:
            rows, self_terms = 0.7 * rows + Yq.T @ y_train, 0.7 * self_terms + Yq.sum(axis=0)
        for panel in (1, 5, m):
            G, s = query_products(xatt_q, Yq, xatt_train, y_train, R, config, panel)
            assert G.shape == (m, 9) and np.allclose(G, rows @ R.T, rtol=1e-12, atol=1e-12)
            assert np.array_equal(s, self_terms)
        G, _ = query_products(xatt_q, Yq, xatt_train, y_train, np.eye(n), config, 5)
        assert np.allclose(G, rows, rtol=1e-12, atol=1e-12)

    def test_kernel_of_a_training_item_is_at_most_one(self):
        # a query equal to a training item: its squared distance, formed by one
        # product, rounds below 0 for some items (measured 43 of 300 here),
        # where the clip keeps the kernel at 1
        rng = np.random.default_rng(3)
        X = (3.0 * rng.standard_normal((8, 300))).astype(np.float32)
        no_tags = np.zeros((2, 300))
        config = GraphConfig(bandwidth=1.0, variant="visual-only")
        G, s = query_products(X, no_tags, X, no_tags, np.eye(300), config, 64)
        assert G.dtype == np.float32 and G.max() == 1.0 and np.all(s == 1.0)
        assert np.diag(G).min() > 1.0 - 1e-4

    def test_visual_only_forms_no_tag_counts(self):
        # the kernel's m x n buffer; no m x n tag counts beside it
        m, n = 1024, 2000
        xatt_q, Yq, xatt_train, y_train, R = query_inputs(12, m, n)
        config = GraphConfig(bandwidth=4.0, variant="visual-only")
        query_products(xatt_q[:, :9], Yq[:, :9], xatt_train, y_train, R, config, m)  # lazy imports
        _, peak = traced_peak(query_products, xatt_q, Yq, xatt_train, y_train, R, config, m)
        assert peak < 1.3 * m * n * 8, f"peak {peak / (m * n * 8):.3f} m x n float64 arrays"

    def test_aux_only_forms_no_m_by_n_array(self):
        # the tag counts enter through Y R^T: no variant without a kernel forms a row panel
        m, n = 1024, 2000
        xatt_q, Yq, xatt_train, y_train, R = query_inputs(13, m, n)
        config = GraphConfig(variant="aux-only")
        query_products(xatt_q[:, :9], Yq[:, :9], xatt_train, y_train, R, config, m)  # lazy imports
        _, peak = traced_peak(query_products, xatt_q, Yq, xatt_train, y_train, R, config, m)
        assert peak < 0.1 * m * n * 8, f"peak {peak / (m * n * 8):.3f} m x n float64 arrays"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_dtype_follows_features(self, variant):
        # float64 tags and operand, as a caller may hold them, leave float32
        # products float32; they are the float64 ones to float32 rounding
        m, n = 5, 40
        xatt_q, Yq, xatt_train, y_train, R = query_inputs(14, m, n, k=6, c=3)
        R = np.abs(R)  # no cancellation in the products the rounding is compared on
        config = GraphConfig(bandwidth=2.0, variant=variant)
        G64, s64 = query_products(xatt_q, Yq, xatt_train, y_train, R, config, 2)
        G, s = query_products(xatt_q.astype(np.float32), Yq, xatt_train.astype(np.float32),
                              y_train, R, config, 2)
        assert G64.dtype == s64.dtype == np.float64
        assert G.dtype == s.dtype == np.float32
        assert np.allclose(G, G64, rtol=1e-5, atol=1e-7)
        assert np.allclose(s, s64, rtol=1e-5, atol=1e-7)

    def test_float32_columns_form_no_float64_tag_counts(self):
        # float32 features: the m x n kernel is float32 whatever the tags' and
        # the operand's dtype; a float64 panel beside it would make the peak 3
        m, n = 1024, 2000
        xatt_q, Yq, xatt_train, y_train, R = query_inputs(15, m, n, dtype=np.float32)
        config = GraphConfig(bandwidth=4.0)
        query_products(xatt_q[:, :9], Yq[:, :9], xatt_train, y_train, R, config, m)  # lazy imports
        _, peak = traced_peak(query_products, xatt_q, Yq, xatt_train, y_train, R, config, m)
        assert peak < 2.3 * m * n * 4, f"peak {peak / (m * n * 4):.3f} m x n float32 arrays"
