from dataclasses import replace

import numpy as np
import pytest

from aghash import graph as sg
from aghash import objective as obj
from aghash.errors import ShapeError
from aghash.network import GcnParams

from conftest import backprop, central_diff, forward, max_rel_err, small_instance

sym = sg.SymGraph.from_dense  # a reconstruction target from a full symmetric array


class TestReconstructionLoss:
    def test_perfect_cosine_match(self):
        Z = np.array([[1.0, 2.0], [0.0, 0.0]])  # columns parallel, cos = 1
        target = sym(np.ones((2, 2)))
        loss, _ = obj.reconstruction_loss(Z, target, k=1.0)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_orthogonal_columns(self):
        Z = np.eye(2)
        loss, _ = obj.reconstruction_loss(Z, sym(np.ones((2, 2))), k=1.0)
        # off-diagonal cosine 0 vs target 1: two unit residuals
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_k_scaling(self):
        Z = np.eye(2)
        loss, _ = obj.reconstruction_loss(Z, sym(np.ones((2, 2))), k=2.0)
        # diagonal residual (2-1)^2 twice, off-diagonal 2^2 twice
        assert loss == pytest.approx(10.0, abs=1e-12)

    def test_zero_column_contributes_target_only(self):
        Z = np.array([[1.0, 0.0]])
        loss, dZ = obj.reconstruction_loss(Z, sym(np.ones((2, 2))), k=1.0)
        assert loss == pytest.approx(3.0, abs=1e-12)
        assert np.array_equal(dZ[:, 1], [0.0])

    def test_cosine_gradient(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((4, 6))
        T = rng.random((6, 6))
        T = sym((T + T.T) / 2)
        _, dZ = obj.reconstruction_loss(Z, T, k=1.0)
        fd = central_diff(lambda z: obj.reconstruction_loss(z, T, 1.0)[0], Z)
        assert max_rel_err(dZ, fd) < 1e-4

    def test_bad_shape(self):
        with pytest.raises(ShapeError):
            obj.reconstruction_loss(np.ones((2, 3)), np.ones((2, 2)), 1.0)


def recon_target(Xatt, Y, target):
    """The target `fit` builds, by kind: 'aux' the tags' Gram matrix, 'visual' the features' kernel."""
    return obj.TagGram(Y) if target == "aux" else sg.visual_similarity(Xatt)[0]


def dense_reconstruction_loss(Z, T, k):
    """The reconstruction loss and its gradient with every n x n matrix formed whole."""
    norms = np.sqrt((Z**2).sum(axis=0))
    safe = np.where(norms > 0, norms, 1.0)
    N = Z / safe
    C = N.T @ N
    R = k * T - np.maximum(C, 0.0)
    dC = np.where(C > 0, -2.0 * R, 0.0)
    dN = N @ (dC + dC.T)
    dZ = (dN - N * (N * dN).sum(axis=0)) / safe
    return float((R**2).sum()), np.where(norms > 0, dZ, 0.0)


class TestPanelledReconstruction:
    @pytest.mark.parametrize("n", [1, obj.PANEL - 1, obj.PANEL, obj.PANEL + 1, 3 * obj.PANEL + 7])
    @pytest.mark.parametrize("part", ["aux", "visual", "augmented"])
    def test_matches_dense(self, part, n):
        rng = np.random.default_rng(n)
        Y = (rng.random((3, n)) < 0.4).astype(np.float64)
        Sv, _ = sg.visual_similarity(rng.standard_normal((5, n)), bandwidth=2.0)
        Svf = Sv.full()
        target, dense = {"aux": (obj.TagGram(Y), Y.T @ Y), "visual": (Sv, Svf),
                         "augmented": (sym(Svf + Y.T @ Y), Svf + Y.T @ Y)}[part]
        Z = rng.standard_normal((4, n))
        Z[:, 1::5] = 0.0
        loss, dZ = obj.reconstruction_loss(Z, target, 1.5)
        want, dZ_want = dense_reconstruction_loss(Z, dense, 1.5)
        assert loss == pytest.approx(want, rel=1e-12)
        assert np.allclose(dZ, dZ_want, rtol=1e-10, atol=1e-12 * np.abs(dZ_want).max())
        assert not dZ[:, 1::5].any()  # a zero column has cosine 0 with everything and no gradient

    def test_tag_gram_matches_its_array_bit_for_bit(self):
        # a TagGram's fresh panels and a SymGraph's copied rows are scaled in
        # place: the same loss and gradient, and the SymGraph is left unchanged
        rng = np.random.default_rng(9)
        n = 2 * sg.HEIGHT + 5
        Y = (rng.random((3, n)) < 0.4).astype(np.float64)
        G = sym(Y.T @ Y)
        kept = G.data.copy()
        Z = rng.standard_normal((4, n))
        loss, dZ = obj.reconstruction_loss(Z, obj.TagGram(Y), 1.5)
        want, dZ_want = obj.reconstruction_loss(Z, G, 1.5)
        assert loss == want and dZ.tobytes() == dZ_want.tobytes()
        assert np.array_equal(G.data, kept)

    @pytest.mark.parametrize("part", ["aux", "visual"])
    def test_float32_panels_match_float64(self, part):
        # fit's float32 codes form their panels and sums in float32: the loss
        # and gradient are the float64 ones to float32 rounding, in Z's dtype
        rng = np.random.default_rng(29)
        n = 3 * obj.PANEL + 7
        Y = (rng.random((4, n)) < 0.4).astype(np.float64)
        Sv, _ = sg.visual_similarity(rng.standard_normal((5, n)), bandwidth=2.0)
        Z = rng.standard_normal((16, n))

        def loss_in(dtype):
            target = obj.TagGram(Y) if part == "aux" else sym(Sv.full().astype(dtype))
            return obj.reconstruction_loss(Z.astype(dtype), target, 1.5)

        (loss, dZ), (want, dZ_want) = loss_in(np.float32), loss_in(np.float64)
        assert dZ.dtype == np.float32 and dZ_want.dtype == np.float64
        assert type(loss) is float and loss == pytest.approx(want, rel=1e-5)
        assert np.abs(dZ - dZ_want).max() <= 1e-5 * np.abs(dZ_want).max()


def check_gradients(inst, target, dtype):
    """backprop_all's gradients on `inst` in dtype against float64 central
    differences of its loss, with the reconstruction target by kind."""
    T = recon_target(inst.Xatt, inst.Y, target)
    low = replace(inst, Xatt=inst.Xatt.astype(dtype), St=sym(inst.St.full().astype(dtype)),
                  gcn=GcnParams(inst.gcn.W1.astype(dtype), inst.gcn.W2.astype(dtype)))
    loss, grads = backprop(low, target=T if target == "aux" else sym(T.full().astype(dtype)))
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
        target = obj.TagGram(inst.Y)
        for k in (0.5, 2.0):
            loss, _ = obj.backprop_all(H2, Z, target, inst.gcn, k)
            assert loss == obj.reconstruction_loss(Z, target, k)[0]
