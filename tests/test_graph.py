import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aghash import graph as sg
from aghash.errors import ParameterError
from aghash.graph import (
    VARIANTS,
    GraphConfig,
    build_graph,
    combine,
    gaussian_kernel,
    median_bandwidth,
    normalize,
    query_columns,
    similarity,
    sqdist,
    visual_similarity,
)
from aghash.objective import RECON_PARTS


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
        assert np.array_equal(S, np.ones((4, 4)))
        assert sigma == 1.0

    def test_kernel_value_at_two_sigma_squared(self):
        # squared distance 2*sigma^2 gives exp(-1)
        sigma = 1.7
        X = np.array([[0.0, sigma * np.sqrt(2.0)]])
        S, _ = visual_similarity(X, bandwidth=sigma)
        assert S[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("dtype, sigma", [(np.float32, 1e-30), (np.float64, 1e-200)])
    def test_vanishing_bandwidth_is_rejected(self, dtype, sigma):
        # 2 sigma^2 is 0 in d2's dtype, so the kernel would be 0/0 where d2 is 0
        d2 = np.zeros((2, 2), dtype=dtype)
        with pytest.raises(ParameterError, match=f"bandwidth {sigma} is too small"):
            gaussian_kernel(d2, sigma)
        assert not d2.any()
        assert gaussian_kernel(d2, 1e-20 if dtype == np.float32 else 1e-150)[0, 0] == 1.0

    def test_large_bandwidth_limit(self):
        rng = np.random.default_rng(0)
        S, _ = visual_similarity(rng.standard_normal((3, 5)), bandwidth=1e9)
        assert np.allclose(S, 1.0, atol=1e-12)

    def test_unit_diagonal_and_range(self):
        rng = np.random.default_rng(1)
        S, _ = visual_similarity(rng.standard_normal((4, 6)))
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

    def test_median_heuristic_value(self):
        X = np.array([[0.0, 1.0, 3.0]])
        # pairwise distances 1, 2, 3 -> median 2
        assert median_bandwidth(sqdist(X, X)) == 2.0

    @pytest.mark.parametrize("n", [600, 602])  # 179700 and 180901 pairs: even and odd counts
    def test_median_heuristic_matches_oracle(self, n):
        X = np.random.default_rng(n).standard_normal((16, n))
        d2 = sqdist(X, X)
        median_bandwidth(d2[:3, :3])  # numpy's lazy imports happen outside the trace
        sigma, peak = traced_peak(median_bandwidth, d2)
        assert sigma == np.median(np.sqrt(d2[np.triu_indices(n, 1)]))
        assert peak < 0.6 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64 arrays"


def graph_and_target(X, Y, config, part):
    """build_graph's (S_tilde, degrees, sigma), then the kernel target `part` (a
    RECON_PARTS key, or None) that fit builds from the graph's resolved bandwidth."""
    St, degrees, sigma = build_graph(X, Y, config)
    if part is None:
        return St, degrees, sigma, None
    resolved = config if sigma is None else replace(config, bandwidth=sigma)
    return St, degrees, sigma, similarity(X, Y, replace(resolved, variant=RECON_PARTS[part]))[0]


def aux_similarity(Y):
    """The aux-only variant's similarity of the tags Y, whatever the features."""
    return similarity(np.zeros((1, Y.shape[1])), Y, GraphConfig(variant="aux-only"))[0]


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
        Sv, Sa = np.full((2, 2), 0.5), np.full((2, 2), 2.0)
        assert combine(3.0, Sv, None) is Sv and combine(3.0, None, Sa) is Sa
        assert combine(3.0, 1.0, None) == 1.0 and combine(3.0, 1.0, 2.0) == 5.0
        assert np.array_equal(Sv, np.full((2, 2), 0.5))


class TestNormalize:
    def test_all_ones(self):
        n = 5
        St, degrees = normalize(np.ones((n, n)))
        assert np.allclose(St, np.full((n, n), 1.0 / n), atol=1e-12)
        assert np.array_equal(degrees, np.full(n, float(n)))

    def test_diagonal(self):
        St, _ = normalize(np.diag([4.0, 4.0]))
        assert St[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_isolated_node(self):
        S = np.zeros((3, 3))
        S[:2, :2] = 1.0
        St, _ = normalize(S)
        assert np.array_equal(St[2], np.zeros(3))
        assert np.array_equal(St[:, 2], np.zeros(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterError):
            normalize(np.array([[0.0, 1.0], [0.5, 0.0]]))
        # symmetry is checked one block at a time; the last block and the far corner count too
        for i, j in ((39, 0), (0, 39), (20, 21)):
            S = np.ones((40, 40))
            S[i, j] = 2.0
            with pytest.raises(ParameterError, match="symmetric"):
                normalize(S)

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
            normalize(S)
        else:
            with pytest.raises(ParameterError, match="graph must be symmetric"):
                normalize(S)

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
                normalize(S)
        else:
            with pytest.raises(ParameterError, match="graph must be symmetric"):
                normalize(S)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_floating_graph_keeps_its_dtype(self, dtype):
        A = np.random.default_rng(8).random((40, 40))
        S = (A + A.T).astype(dtype)
        St, degrees = normalize(S)
        assert St is S and St.dtype == dtype and degrees.dtype == dtype
        St, degrees = normalize(np.ones((3, 3), dtype=np.int64))
        assert St.dtype == np.float64 and degrees.dtype == np.float64

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            normalize(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_working_set(self):
        # normalize scales its input in place: beyond it, only the symmetry check's blocks
        n = 600
        A = np.random.default_rng(7).random((n, n))
        S = A + A.T
        S0 = S.copy()
        (St, _), peak = traced_peak(normalize, S)
        assert peak < 0.15 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64 arrays"
        assert St is S
        inv = 1.0 / np.sqrt(S0.sum(axis=1))
        assert np.array_equal(St, S0 * inv[:, None] * inv[None, :])

    @pytest.mark.parametrize("bad", ["asymmetric", "negative"])
    def test_rejected_graph_is_unchanged(self, bad):
        A = np.random.default_rng(9).random((300, 300))
        S = A + A.T
        if bad == "asymmetric":
            S[299, 0] += 1.0
        else:
            S[299, 0] = S[0, 299] = -1.0
        S0 = S.copy()
        with pytest.raises(ParameterError):
            normalize(S)
        assert np.array_equal(S, S0)

    def test_symmetry_preserved_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = rng.random((6, 6))
            S = A + A.T
            St, _ = normalize(S)
            assert np.allclose(St, St.T, atol=1e-12)
            assert St.min() >= 0.0

    def test_spectral_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = rng.random((20, 20))
            St, _ = normalize(A + A.T)
            top = np.linalg.eigvalsh(St).max()
            assert top <= 1.0 + 1e-8


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
            assert sigma == s2 and np.array_equal(St, want_St) and np.array_equal(degrees, want_degrees)

    def test_visual_only_similarity_is_the_kernel(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3, 5))
        Y = (rng.random((2, 5)) < 0.5).astype(float)
        S, sigma = similarity(X, Y, GraphConfig(variant="visual-only"))
        assert sigma == visual_similarity(X)[1]
        assert np.array_equal(S, visual_similarity(X, sigma)[0])

    # `part` names a kernel reconstruction target, built after the graph as fit builds it
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
        uses_visual, uses_tags = sg.PARTS[variant]
        S = combine(0.7, Sv.copy() if uses_visual else None, Y.T @ Y if uses_tags else None)
        assert np.array_equal(similarity(X, Y, config)[0], S)
        want_St, want_degrees = normalize(S.copy())
        assert np.array_equal(St, want_St) and np.array_equal(degrees, want_degrees)
        assert sigma == (median if uses_visual else None)
        if part is None:
            assert target is None
        else:
            want = {"visual": Sv, "augmented": combine(0.7, Sv.copy(), Y.T @ Y)}[part]
            assert np.array_equal(target, want) and not np.shares_memory(target, St)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("part", [None, "visual", "augmented"])
    def test_working_set(self, variant, part):
        # beyond its inputs: the kernel buffer, then S~, plus the median's
        # half-triangle gather; a target adds its own n x n next to S~
        n = 600
        rng = np.random.default_rng(11)
        X = rng.standard_normal((64, n))
        Y = (rng.random((4, n)) < 0.4).astype(float)
        build_graph(X[:, :9], Y[:, :9], GraphConfig())  # numpy's lazy imports happen outside the trace
        _, peak = traced_peak(graph_and_target, X, Y, GraphConfig(variant=variant), part)
        bound = 1.6 + (part is not None)
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
        assert np.allclose(St, St64, rtol=1e-5, atol=1e-7)
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


class TestQueryColumns:
    def test_visual_only_forms_no_tag_counts(self):
        # the kernel's m x n buffer and its sqdist panel; no m x n tag counts beside it
        m, n = 1024, 2000
        rng = np.random.default_rng(12)
        xatt_q, xatt_train = rng.standard_normal((16, m)), rng.standard_normal((16, n))
        Yq, y_train = (rng.random((4, m)) < 0.4).astype(float), (rng.random((4, n)) < 0.4).astype(float)
        degrees = rng.random(n) * n
        config = GraphConfig(bandwidth=4.0, variant="visual-only")
        query_columns(xatt_q[:, :9], Yq[:, :9], xatt_train, y_train, degrees, config)  # lazy imports
        _, peak = traced_peak(query_columns, xatt_q, Yq, xatt_train, y_train, degrees, config)
        assert peak < 1.3 * m * n * 8, f"peak {peak / (m * n * 8):.3f} m x n float64 arrays"

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_dtype_follows_features(self, variant):
        # float64 tags and degrees, as a model holds them, leave float32 columns
        # float32; the float32 columns are the float64 ones to float32 rounding
        m, n = 5, 40
        rng = np.random.default_rng(14)
        xatt_q, xatt_train = rng.standard_normal((6, m)), rng.standard_normal((6, n))
        Yq, y_train = (rng.random((3, m)) < 0.4).astype(float), (rng.random((3, n)) < 0.4).astype(float)
        degrees = rng.random(n) * n
        config = GraphConfig(bandwidth=2.0, variant=variant)
        col64, self64 = query_columns(xatt_q, Yq, xatt_train, y_train, degrees, config)
        col, self_ = query_columns(xatt_q.astype(np.float32), Yq, xatt_train.astype(np.float32),
                                   y_train, degrees.astype(np.float32), config)
        assert col64.dtype == np.asarray(self64).dtype == np.float64
        assert col.dtype == np.asarray(self_).dtype == np.float32
        assert np.allclose(col, col64, rtol=1e-5, atol=1e-7)
        assert np.allclose(self_, self64, rtol=1e-5, atol=1e-7)

    def test_float32_columns_form_no_float64_tag_counts(self):
        # float32 features: the m x n kernel and the m x n tag counts are both
        # float32 whatever the tags' dtype; float64 counts would make the peak 3
        m, n = 1024, 2000
        rng = np.random.default_rng(15)
        xatt_q = rng.standard_normal((16, m)).astype(np.float32)
        xatt_train = rng.standard_normal((16, n)).astype(np.float32)
        Yq, y_train = (rng.random((4, m)) < 0.4).astype(float), (rng.random((4, n)) < 0.4).astype(float)
        degrees = (rng.random(n) * n).astype(np.float32)
        config = GraphConfig(bandwidth=4.0)
        query_columns(xatt_q[:, :9], Yq[:, :9], xatt_train, y_train, degrees, config)  # lazy imports
        _, peak = traced_peak(query_columns, xatt_q, Yq, xatt_train, y_train, degrees, config)
        assert peak < 2.3 * m * n * 4, f"peak {peak / (m * n * 4):.3f} m x n float32 arrays"
