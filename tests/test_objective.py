import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aghash import attention as att
from aghash import graph as sg
from aghash import network as net
from aghash import objective as obj
from aghash.errors import ShapeError
from aghash.network import GcnParams

from conftest import backprop, central_diff, forward, max_rel_err, small_instance


def tags(rng, n, c=3):
    return (rng.random((c, n)) < 0.4).astype(np.float64)


def factor(rng, n, kind):
    """A target factor by kind: 'tags' a c x n 0/1 matrix, 'features' the unit columns of k x n features."""
    return tags(rng, n) if kind == "tags" else att.unit_columns(rng.standard_normal((5, n)))[0]


def offdiag_mean(K):
    """The mean off-diagonal entry of a square K, 0 when it has none."""
    n = K.shape[0]
    return K[~np.eye(n, dtype=bool)].mean() if n > 1 else 0.0


def dense_loss(Z, G, k):
    """||N^T N - k (G^T G - m 11^T)||^2 and its Z gradient, every n x n matrix formed whole in float64.

    m is the mean off-diagonal entry of G^T G (0 at n = 1) and N holds Z's unit
    columns, a zero column staying zero with zero gradient.
    """
    Z, G = np.asarray(Z, dtype=np.float64), np.asarray(G, dtype=np.float64)
    n = Z.shape[1]
    norms = np.sqrt((Z**2).sum(axis=0))
    safe = np.where(norms > 0, norms, 1.0)
    N = Z / safe
    K = G.T @ G
    R = N.T @ N - k * (K - offdiag_mean(K))
    dN = 4.0 * N @ R  # 2 N (R + R^T) with R symmetric
    dZ = (dN - N * (N * dN).sum(axis=0)) / safe
    return float((R**2).sum()), np.where(norms > 0, dZ, 0.0)


class TestLowRankTarget:
    @pytest.mark.parametrize("kind", ["tags", "features"])
    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_offset_and_norm_are_the_dense_ones(self, kind, n):
        G = factor(np.random.default_rng(n), n, kind)
        T = obj.LowRankTarget(G)
        K = G.T @ G
        dense = K - offdiag_mean(K)
        assert T.shape == (n, n) and T.F.dtype == np.float64
        assert np.allclose(T.F.T @ np.diag(T.w) @ T.F, dense, rtol=1e-12, atol=1e-12)
        assert T.sq_norm == pytest.approx(float((dense**2).sum()), rel=1e-12)

    def test_gradient_factor_takes_the_given_dtype(self):
        Y = tags(np.random.default_rng(2), 9)
        T = obj.LowRankTarget(Y.astype(np.int64), np.float32)
        assert T.F.dtype == np.float64 and T.F_grad.dtype == np.float32
        assert np.array_equal(T.F_grad, T.F)  # 0/1 tags and ones are exact in float32


class TestReconstructionLoss:
    def test_perfect_cosine_match(self):
        # unit columns e1, e1 and (-1/2, sqrt(3)/2) sum to a vector of squared
        # norm 3 = n, so their off-diagonal cosines average 0: reconstructing
        # their own cosines leaves no offset to miss
        Z = np.array([[1.0, 2.0, -0.5], [0.0, 0.0, np.sqrt(3.0) / 2.0]])
        loss, _ = obj.reconstruction_loss(Z, obj.LowRankTarget(att.unit_columns(Z)[0]), k=1.0)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_orthogonal_columns(self):
        # G^T G = I has mean off-diagonal 0, so the target is I, the codes' Gram
        loss, dZ = obj.reconstruction_loss(np.eye(2), obj.LowRankTarget(np.eye(2)), k=1.0)
        assert loss == pytest.approx(0.0, abs=1e-24) and not dZ.any()

    def test_codes_equal_to_their_factor_miss_only_the_offset(self):
        # G = N: the residual is m 11^T everywhere, so the loss is (m n)^2
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((4, 6))
        N = att.unit_columns(Z)[0]
        loss, _ = obj.reconstruction_loss(Z, obj.LowRankTarget(N), k=1.0)
        assert loss == pytest.approx((offdiag_mean(N.T @ N) * 6) ** 2, rel=1e-10)

    def test_k_scaling(self):
        # orthogonal unit codes against the identity at k = 2: (1 - 2)^2 twice
        loss, _ = obj.reconstruction_loss(np.eye(2), obj.LowRankTarget(np.eye(2)), k=2.0)
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_zero_column_contributes_target_only(self):
        # the target is I; the zero column's inner products are 0, so only its
        # diagonal target entry is missed, and it gets no gradient
        Z = np.array([[1.0, 0.0]])
        loss, dZ = obj.reconstruction_loss(Z, obj.LowRankTarget(np.eye(2)), k=1.0)
        assert loss == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(dZ[:, 1], [0.0])

    def test_single_item(self):
        # n = 1: no offset, and the one unit column's Gram is 1 whatever Z is
        Z = np.array([[3.0], [4.0]])
        G = np.array([[1.0], [1.0]])
        loss, dZ = obj.reconstruction_loss(Z, obj.LowRankTarget(G), k=1.5)
        assert loss == pytest.approx((1.0 - 1.5 * 2.0) ** 2, rel=1e-14)
        assert np.abs(dZ).max() < 1e-14

    def test_cosine_gradient(self):
        # float64 central differences of the loss over every entry of the
        # nonzero columns, for both factors, in float32 and float64, at n = 1
        # and at n = 9 with a zero column, which has no derivative and gets 0
        for n, kind, dtype in itertools.product([1, 9], ["tags", "features"], [np.float32, np.float64]):
            rng = np.random.default_rng(40 + n)
            G = factor(rng, n, kind)
            T = obj.LowRankTarget(G)
            Z = rng.standard_normal((4, n))
            if n > 1:
                Z[:, 1] = 0.0
            live = np.any(Z != 0, axis=0)
            _, dZ = obj.reconstruction_loss(Z.astype(dtype), obj.LowRankTarget(G, dtype), 0.7)

            def loss(cols):
                W = Z.copy()
                W[:, live] = cols
                return obj.reconstruction_loss(W, T, 0.7)[0]

            fd = central_diff(loss, Z[:, live])
            assert not dZ[:, ~live].any()
            if dtype == np.float64:
                assert max_rel_err(dZ[:, live], fd) < 1e-4, (n, kind)
            else:  # the float64 derivatives to float32 rounding
                assert np.abs(dZ[:, live] - fd).max() <= 1e-4 * max(np.abs(fd).max(), 1.0), (n, kind)

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            obj.reconstruction_loss(np.ones((2, 3)), obj.LowRankTarget(np.ones((1, 2))), 1.0)


class TestPanelledReconstruction:
    """The Gram form against every n x n matrix formed whole, at sizes on both
    sides of graph.PANEL, the row panels the graph is built in."""

    @pytest.mark.parametrize("n", [1, sg.PANEL - 1, sg.PANEL, sg.PANEL + 1, 3 * sg.PANEL + 7])
    @pytest.mark.parametrize("part", ["aux", "visual", "augmented"])
    def test_matches_dense(self, part, n):
        # the factor of each part: the tags, the unit features, or both stacked,
        # whose Gram matrix is the sum of theirs. Zero columns included; float32
        # codes get the float64 loss and gradient to float32 rounding. At n = 1
        # the one column's gradient is 0 up to rounding.
        rng = np.random.default_rng(n)
        Y, Nx = factor(rng, n, "tags"), factor(rng, n, "features")
        G = {"aux": Y, "visual": Nx, "augmented": np.vstack([Y, Nx])}[part]
        Z = rng.standard_normal((4, n))
        Z[:, 1::5] = 0.0
        want, dZ_want = dense_loss(Z, G, 1.5)
        scale = max(np.abs(dZ_want).max(), 1.0)
        for dtype, rel in [(np.float64, 1e-12), (np.float32, 1e-5)]:
            loss, dZ = obj.reconstruction_loss(Z.astype(dtype), obj.LowRankTarget(G, dtype), 1.5)
            assert type(loss) is float and dZ.dtype == dtype
            assert loss == pytest.approx(want, rel=rel), dtype
            assert np.abs(dZ - dZ_want).max() <= rel * scale, dtype
            assert not dZ[:, 1::5].any()  # a zero column has inner product 0 with everything and no gradient


def recon_target(Xatt, Y, target, dtype=np.float64):
    """The target `fit` builds, by kind: 'aux' the tags' centred Gram matrix,
    'visual' the attentive features' centred cosines."""
    return obj.LowRankTarget(Y if target == "aux" else att.unit_columns(Xatt)[0], dtype)


def check_gradients(inst, target, dtype):
    """backprop_all's gradients on `inst` in dtype against float64 central
    differences of its loss, with the reconstruction target by kind."""
    T = recon_target(inst.Xatt, inst.Y, target)
    low = replace(inst, Xatt=inst.Xatt.astype(dtype), St=sg.SymGraph.from_dense(inst.St.full().astype(dtype)),
                  gcn=GcnParams(inst.gcn.W1.astype(dtype), inst.gcn.W2.astype(dtype)))
    loss, grads = backprop(low, target=recon_target(inst.Xatt, inst.Y, target, dtype))
    assert type(loss) is float and set(grads) == {"W1", "W2"}
    for name in ("W1", "W2"):
        assert grads[name].dtype == dtype
        fd = central_diff(lambda P: backprop(inst, gcn=replace(inst.gcn, **{name: P}), target=T)[0],
                          getattr(inst.gcn, name))
        if dtype == np.float64:
            assert max_rel_err(grads[name], fd) < 1e-4, name
        else:  # the float64 gradients to float32 rounding
            assert np.abs(grads[name] - fd).max() <= 1e-4 * np.abs(fd).max(), name


class TestBackpropAll:
    def test_network_gradients(self):
        check_gradients(small_instance(20), "aux", np.float64)

    def test_network_gradients_through_the_basis(self):
        # d + c = 6 < d' = 10: the instance is re-expressed in k = 6 coordinates,
        # so W1 is h x 6 and the projections R_x, R_y are 6 x 4 and 6 x 2
        inst = small_instance(26, d=4, c=2, d_prime=10)
        assert inst.gcn.W1.shape == (8, 6) and inst.apar.P_x.shape == (6, 4) and inst.apar.P_y.shape == (6, 2)
        for target in ("aux", "visual"):
            for dtype in (np.float32, np.float64):
                check_gradients(inst, target, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("target", ["aux", "visual"])
    def test_gcn_gradients_take_the_forward_dtype(self, dtype, target):
        # the gradients follow H2, Z and the weights, and the loss is a float
        check_gradients(small_instance(24), target, dtype)

    def test_k_scales_the_target(self):
        # backprop_all's loss is the reconstruction loss at the k it is given
        inst = small_instance(21)
        H2, Z = forward(inst)
        target = obj.LowRankTarget(inst.Y)
        for k in (0.5, 2.0):
            loss, _ = obj.backprop_all(H2, Z, target, inst.gcn, k)
            assert loss == obj.reconstruction_loss(Z, target, k)[0]

    def test_an_epoch_forms_no_panel_of_the_target(self):
        # one backprop_all at n = 4000 allocates only r x n and smaller arrays:
        # its traced peak stays below one graph.PANEL x n float32 panel (2 MiB),
        # which the row-panelled loss formed several of (it read 6.4 MiB; this
        # form 1.0 MiB)
        n, r, c, k = 4000, 16, 4, 8
        rng = np.random.default_rng(5)
        target = obj.LowRankTarget(tags(rng, n, c), np.float32)
        H2 = rng.standard_normal((k, n)).astype(np.float32)
        gcn = net.GcnParams(rng.standard_normal((8, k)).astype(np.float32),
                            rng.standard_normal((r, 8)).astype(np.float32))
        Z = (gcn.W2 @ gcn.W1) @ H2
        obj.backprop_all(H2, Z, target, gcn, 1.0)  # numpy's lazy imports happen outside the trace
        tracemalloc.start()
        try:
            obj.backprop_all(H2, Z, target, gcn, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = sg.PANEL * n * np.dtype(np.float32).itemsize
        assert peak < bound, f"peak {peak / bound:.2f} PANEL x n float32 panels"
