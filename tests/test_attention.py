from unittest import mock

import numpy as np
import pytest

from aghash import attention as att
from aghash.attention import (
    AttentionParams,
    attention_scores,
    basis,
    denoise,
    init_attention,
    project,
)
from aghash.errors import ShapeError


def identity_denoise(Xbar, Ybar):
    """denoise under identity projections, so its inputs are already the projected Xbar, Ybar."""
    eye = np.eye(Xbar.shape[0])
    return denoise(Xbar, Ybar, AttentionParams(eye, eye))


def spied_denoise(X, Y, params):
    """(Xatt, scores): denoise and the scores it mixes with, over the distinct columns of Y."""
    scores = []

    def spy(Xbar, Ubar):
        scores.append(attention_scores(Xbar, Ubar))
        return scores[-1]

    with mock.patch.object(att, "attention_scores", spy):
        Xatt = denoise(X, Y, params)
    (alpha,) = scores
    return Xatt, alpha


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
        out = identity_denoise(Xbar, Ybar)
        assert np.array_equal(attention_scores(Xbar, Ybar), np.zeros((2, 2)))
        assert np.array_equal(out, Xbar)

    def test_single_neighbor(self):
        Xbar = np.array([[1.0], [2.0]])
        Ybar = np.array([[3.0], [4.0]])
        out = identity_denoise(Xbar, Ybar)
        assert np.array_equal(out, Xbar + Ybar)

    def test_hand_weighted_mean(self):
        # equal scores 1/sqrt(2) for ybar = (2,0) and (0,2), xbar = (1,1) -> (2,2);
        # the zero item scores 0 everywhere
        Xbar = np.array([[1.0, 0.0], [1.0, 0.0]])
        Ybar = np.array([[2.0, 0.0], [0.0, 2.0]])
        out = identity_denoise(Xbar, Ybar)
        assert np.allclose(attention_scores(Xbar, Ybar), [[1 / np.sqrt(2), 1 / np.sqrt(2)], [0.0, 0.0]],
                           atol=1e-15)
        assert np.allclose(out[:, 0], [2.0, 2.0])

    def test_residual_with_zero_semantic_projection(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 6))
        Y = (rng.random((3, 6)) < 0.5).astype(float)
        p = AttentionParams(rng.standard_normal((5, 4)), np.zeros((5, 3)))
        Xatt = denoise(X, Y, p)
        assert np.array_equal(Xatt, project(X, Y, p)[0])


def dense_denoise(X, Y, p):
    """(Xatt, alpha, w) of the attention forward with one score per column of Y."""
    Xbar, Ybar = p.P_x @ X, p.P_y @ Y

    def unit(M):
        norms = np.sqrt((M**2).sum(axis=0))
        return M / np.where(norms > 0, norms, 1.0)

    alpha = np.clip(unit(Xbar).T @ unit(Ybar), 0.0, 1.0)
    w = alpha.sum(axis=1)
    mix = (Ybar @ alpha.T) / np.where(w > 0, w, 1.0)
    mix[:, w == 0] = 0.0
    return mix + Xbar, alpha, w


def tag_cases():
    """name -> c x m aux semantics with repeated columns."""
    rng = np.random.default_rng(9)
    real = rng.standard_normal((3, 5))
    mixed = (rng.random((3, 30)) < 0.5).astype(np.float64)
    mixed[:, ::4] = 0.0
    return {
        "duplicate-binary": (rng.random((3, 40)) < 0.4).astype(np.float64),
        "one-distinct": np.tile([[1.0], [0.0], [1.0]], (1, 12)),
        "all-zero": np.zeros((3, 12)),
        "some-zero": mixed,
        "negative-real": real[:, rng.integers(0, 5, 25)],
    }


class TestDistinctColumns:
    @pytest.mark.parametrize("name", list(tag_cases()))
    def test_matches_dense(self, name):
        Y = tag_cases()[name]
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, Y.shape[1]))
        X[:, 3] = 0.0  # an item with no direction scores 0 everywhere: w = 0
        p = init_attention(4, 3, 6, seed=11)
        Xatt, scores = spied_denoise(X, Y, p)
        want, alpha, w = dense_denoise(X, Y, p)
        U, inverse, counts = np.unique(Y, axis=1, return_inverse=True, return_counts=True)
        assert scores.shape == (Y.shape[1], U.shape[1])
        assert np.allclose(Xatt, want, rtol=1e-12, atol=1e-13 * np.abs(want).max())
        assert np.allclose(scores[:, inverse], alpha, rtol=1e-12, atol=1e-15)
        assert np.allclose(scores @ counts, w, rtol=1e-12, atol=1e-15)
        assert w[3] == 0.0 and np.array_equal(Xatt[:, 3], np.zeros(6))
        if name == "all-zero":
            assert np.array_equal(Xatt, p.P_x @ X)


class TestInit:
    def test_deterministic_and_scaled(self):
        a = init_attention(100, 10, 8, seed=5)
        b = init_attention(100, 10, 8, seed=5)
        assert np.array_equal(a.P_x, b.P_x) and np.array_equal(a.P_y, b.P_y)
        assert a.P_x.std() == pytest.approx(1 / np.sqrt(100), rel=0.2)


class TestBasis:
    @pytest.mark.parametrize("use_attention", [True, False])
    def test_orthonormal_columns_span_the_features(self, use_attention):
        # k = d + c = 8 (d = 6 without attention) of d' = 32 columns, and
        # Q Q^T Xatt = Xatt to float64 rounding for any items under the projections
        rng = np.random.default_rng(4)
        params = init_attention(6, 2, 32, seed=4)
        Q = basis(params, use_attention)
        assert Q.shape == (32, 8 if use_attention else 6) and Q.dtype == np.float64
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() < 1e-14
        X, Y = rng.standard_normal((6, 50)), (rng.random((2, 50)) < 0.5).astype(np.float64)
        Xatt = denoise(X, Y, params) if use_attention else project(X, Y, params)[0]
        assert np.abs(Q @ (Q.T @ Xatt) - Xatt).max() < 1e-14 * np.abs(Xatt).max() * 32

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_features_under_reexpressed_projections(self, use_attention):
        # R_x = Q^T P_x and R_y = Q^T P_y give Q^T times the d'-wide features, whose
        # norms and cosines Q keeps: the attention scores are the same
        rng = np.random.default_rng(6)
        params = init_attention(6, 2, 32, seed=6)
        Q = basis(params, use_attention)
        in_basis = AttentionParams(Q.T @ params.P_x, Q.T @ params.P_y)
        X, Y = rng.standard_normal((6, 50)), (rng.random((2, 50)) < 0.5).astype(np.float64)
        if use_attention:
            wide, ours = denoise(X, Y, params), denoise(X, Y, in_basis)
            scores = [attention_scores(*project(X, Y, p)) for p in (params, in_basis)]
            assert np.abs(scores[1] - scores[0]).max() < 1e-13
        else:
            wide, ours = project(X, Y, params)[0], project(X, Y, in_basis)[0]
        assert ours.shape == (Q.shape[1], 50)
        assert np.abs(ours - Q.T @ wide).max() < 1e-13 * np.abs(wide).max()

    @pytest.mark.parametrize("d_prime, use_attention", [(8, True), (7, True), (6, False)])
    def test_identity_when_the_columns_reach_d_prime(self, d_prime, use_attention):
        assert basis(init_attention(6, 2, d_prime, seed=0), use_attention) is None
