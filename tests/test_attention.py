import numpy as np
import pytest

from aghash.attention import (
    AttentionParams,
    attention_grads,
    denoise,
    init_attention,
    project,
)
from aghash.errors import ShapeError

from conftest import central_diff, max_rel_err


def identity_denoise(Xbar, Ybar):
    """denoise under identity projections, so its inputs are already the projected Xbar, Ybar."""
    eye = np.eye(Xbar.shape[0])
    return denoise(Xbar, Ybar, AttentionParams(eye, eye))


def attention_scores(Xbar, Ybar):
    """The clipped cosine scores alpha that `denoise` mixes with."""
    return identity_denoise(Xbar, Ybar)[1].alpha


class TestProject:
    def test_identity(self):
        X = np.arange(6.0).reshape(2, 3)
        p = AttentionParams(np.eye(2), np.zeros((2, 4)))
        Xbar, _ = project(X, np.zeros((4, 3)), p)
        assert np.array_equal(Xbar, X)

    def test_annihilation(self):
        p = AttentionParams(np.zeros((2, 2)), np.eye(2))
        Xbar, _ = project(np.ones((2, 3)), np.ones((2, 3)), p)
        assert np.array_equal(Xbar, np.zeros((2, 3)))

    def test_hand_product(self):
        # d=2 -> d'=1 with P_x = [1, 1], x = (3, 4) maps to 7
        p = AttentionParams(np.array([[1.0, 1.0]]), np.array([[1.0]]))
        Xbar, _ = project(np.array([[3.0], [4.0]]), np.zeros((1, 1)), p)
        assert Xbar[0, 0] == 7.0

    def test_shape_mismatch(self):
        p = AttentionParams(np.ones((2, 3)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            project(np.ones((4, 5)), np.ones((2, 5)), p)


class TestScores:
    def test_identical_vectors(self):
        v = np.array([[1.0], [2.0]])
        assert attention_scores(v, v)[0, 0] == pytest.approx(1.0)

    def test_opposite_vectors_clipped(self):
        v = np.array([[1.0], [2.0]])
        assert attention_scores(v, -v)[0, 0] == 0.0

    def test_hand_cosine(self):
        x = np.array([[1.0], [0.0]])
        y = np.array([[1.0], [1.0]])
        assert attention_scores(x, y)[0, 0] == pytest.approx(1.0 / np.sqrt(2), abs=1e-12)

    def test_zero_vector_scores_zero(self):
        x = np.zeros((2, 1))
        y = np.ones((2, 1))
        assert attention_scores(x, y)[0, 0] == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 5))
        Y = rng.standard_normal((3, 4))
        a = attention_scores(X, Y)
        b = attention_scores(2.5 * X, 0.3 * Y)
        assert np.allclose(a, b, atol=1e-12)

    def test_range_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = attention_scores(rng.standard_normal((2, 3)), rng.standard_normal((2, 3)))
            assert a.min() >= 0.0 and a.max() <= 1.0


class TestAttentiveFeatures:
    def test_zero_attention_fallback(self):
        # every semantic vector points away from both items, so all scores clip to 0
        Xbar = np.array([[1.0, 2.0]])
        Ybar = np.array([[-5.0, -6.0]])
        out, cache = identity_denoise(Xbar, Ybar)
        assert np.array_equal(cache.alpha, np.zeros((2, 2)))
        assert np.array_equal(out, Xbar)

    def test_single_neighbor(self):
        Xbar = np.array([[1.0], [2.0]])
        Ybar = np.array([[3.0], [4.0]])
        out, _ = identity_denoise(Xbar, Ybar)
        assert np.array_equal(out, Xbar + Ybar)

    def test_hand_weighted_mean(self):
        # equal scores 1/sqrt(2) for ybar = (2,0) and (0,2), xbar = (1,1) -> (2,2);
        # the zero item scores 0 everywhere
        Xbar = np.array([[1.0, 0.0], [1.0, 0.0]])
        Ybar = np.array([[2.0, 0.0], [0.0, 2.0]])
        out, cache = identity_denoise(Xbar, Ybar)
        assert np.allclose(cache.alpha, [[1 / np.sqrt(2), 1 / np.sqrt(2)], [0.0, 0.0]], atol=1e-15)
        assert np.allclose(out[:, 0], [2.0, 2.0])

    def test_residual_with_zero_semantic_projection(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 6))
        Y = (rng.random((3, 6)) < 0.5).astype(float)
        p = AttentionParams(rng.standard_normal((5, 4)), np.zeros((5, 3)))
        Xatt, _ = denoise(X, Y, p)
        assert np.array_equal(Xatt, project(X, Y, p)[0])


class TestInit:
    def test_deterministic_and_scaled(self):
        a = init_attention(100, 10, 8, seed=5)
        b = init_attention(100, 10, 8, seed=5)
        assert np.array_equal(a.P_x, b.P_x) and np.array_equal(a.P_y, b.P_y)
        assert a.P_x.std() == pytest.approx(1 / np.sqrt(100), rel=0.2)


class TestGrads:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4, 8))
        Y = (rng.random((3, 8)) < 0.5).astype(float)
        p = init_attention(4, 3, 5, seed=8)
        W = rng.standard_normal((5, 8))  # arbitrary downstream weighting

        def loss(P_x, P_y):
            Xatt, _ = denoise(X, Y, AttentionParams(P_x, P_y))
            return float((W * Xatt).sum() + 0.5 * (Xatt**2).sum())

        Xatt, cache = denoise(X, Y, p)
        dPx, dPy = attention_grads(cache, W + Xatt)
        fd_x = central_diff(lambda P: loss(P, p.P_y), p.P_x)
        fd_y = central_diff(lambda P: loss(p.P_x, P), p.P_y)
        assert max_rel_err(dPx, fd_x) < 1e-4
        assert max_rel_err(dPy, fd_y) < 1e-4
