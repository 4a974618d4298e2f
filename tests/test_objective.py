from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from aghash import graph as sg
from aghash import network as net
from aghash import objective as obj
from aghash import trainer
from aghash.data import synth_dataset
from aghash.errors import ParameterError, ShapeError
from aghash.network import DecoderParams, GcnParams

from conftest import backprop, central_diff, max_rel_err, small_instance


class TestQuantizationLoss:
    def test_zero_at_codes(self):
        B = np.array([[1.0, -1.0], [-1.0, 1.0]])
        loss, dZ = obj.quantization_loss(B, B.copy())
        assert loss == 0.0
        assert np.array_equal(dZ, np.zeros_like(B))

    def test_hand_value(self):
        B = np.array([[1.0]])
        Z = np.array([[0.25]])
        loss, dZ = obj.quantization_loss(B, Z)
        assert loss == pytest.approx(0.5625)
        assert dZ[0, 0] == pytest.approx(-1.5)

    def test_gradient(self):
        rng = np.random.default_rng(0)
        B = np.where(rng.standard_normal((3, 5)) >= 0, 1.0, -1.0)
        Z = rng.standard_normal((3, 5))
        _, dZ = obj.quantization_loss(B, Z)
        fd = central_diff(lambda z: obj.quantization_loss(B, z)[0], Z)
        assert max_rel_err(dZ, fd) < 1e-6


class TestReconstructionLoss:
    def test_perfect_cosine_match(self):
        Z = np.array([[1.0, 2.0], [0.0, 0.0]])  # columns parallel, cos = 1
        target = np.ones((2, 2))
        loss, _ = obj.reconstruction_loss(Z, target, k=1.0)
        assert loss == pytest.approx(0.0, abs=1e-24)

    def test_orthogonal_columns(self):
        Z = np.eye(2)
        loss, _ = obj.reconstruction_loss(Z, np.ones((2, 2)), k=1.0)
        # off-diagonal cosine 0 vs target 1: two unit residuals
        assert loss == pytest.approx(2.0, abs=1e-12)

    def test_k_scaling(self):
        Z = np.eye(2)
        loss, _ = obj.reconstruction_loss(Z, np.ones((2, 2)), k=2.0)
        # diagonal residual (2-1)^2 twice, off-diagonal 2^2 twice
        assert loss == pytest.approx(10.0, abs=1e-12)

    def test_zero_column_contributes_target_only(self):
        Z = np.array([[1.0, 0.0]])
        loss, dZ = obj.reconstruction_loss(Z, np.ones((2, 2)), k=1.0)
        assert loss == pytest.approx(3.0, abs=1e-12)
        assert np.array_equal(dZ[:, 1], [0.0])

    def test_cosine_gradient(self):
        rng = np.random.default_rng(1)
        Z = rng.standard_normal((4, 6))
        T = rng.random((6, 6))
        T = (T + T.T) / 2
        _, dZ = obj.reconstruction_loss(Z, T, k=1.0)
        fd = central_diff(lambda z: obj.reconstruction_loss(z, T, 1.0)[0], Z)
        assert max_rel_err(dZ, fd) < 1e-4

    def test_inner_mode_value_and_gradient(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((3, 5))
        T = rng.random((5, 5))
        T = T + T.T
        loss, dZ = obj.reconstruction_loss(Z, T, k=1.5, mode="inner")
        assert loss == pytest.approx(float(((1.5 * T - Z.T @ Z) ** 2).sum()))
        fd = central_diff(lambda z: obj.reconstruction_loss(z, T, 1.5, mode="inner")[0], Z)
        assert max_rel_err(dZ, fd) < 1e-5

    def test_bad_mode_and_shape(self):
        with pytest.raises(ParameterError):
            obj.reconstruction_loss(np.ones((2, 2)), np.ones((2, 2)), 1.0, mode="l1")
        with pytest.raises(ShapeError):
            obj.reconstruction_loss(np.ones((2, 3)), np.ones((2, 2)), 1.0)


def kernel_target(Xatt, Y, target):
    """The n x n matrix fit reconstructs for a kernel target: its graph variant's similarity."""
    part = obj.RECON_PARTS.get(target)
    return None if part is None else sg.similarity(Xatt, Y, sg.GraphConfig(variant=part))[0]


def dense_reconstruction_loss(Z, T, k, mode):
    """The reconstruction loss and its gradient with every n x n matrix formed whole."""
    if mode == "inner":
        R = k * T - Z.T @ Z
        return float((R**2).sum()), -2.0 * Z @ (R + R.T)
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
    # the 'aux' target in 'inner' mode is the 'inner-product' target
    @pytest.mark.parametrize("n", [1, obj.PANEL - 1, obj.PANEL, obj.PANEL + 1, 3 * obj.PANEL + 7])
    @pytest.mark.parametrize("mode", ["cosine", "inner"])
    @pytest.mark.parametrize("part", ["aux", "visual", "augmented"])
    def test_matches_dense(self, part, mode, n):
        rng = np.random.default_rng(n)
        Y = (rng.random((3, n)) < 0.4).astype(np.float64)
        Sv, _ = sg.visual_similarity(rng.standard_normal((5, n)), bandwidth=2.0)
        target, dense = {"aux": (obj.TagGram(Y), Y.T @ Y), "visual": (Sv, Sv),
                         "augmented": (Sv + Y.T @ Y,) * 2}[part]
        Z = rng.standard_normal((4, n))
        Z[:, 1::5] = 0.0
        loss, dZ = obj.reconstruction_loss(Z, target, 1.5, mode=mode)
        want, dZ_want = dense_reconstruction_loss(Z, dense, 1.5, mode)
        assert loss == pytest.approx(want, rel=1e-12)
        assert np.allclose(dZ, dZ_want, rtol=1e-10, atol=1e-12 * np.abs(dZ_want).max())
        if mode == "cosine":  # a zero column has cosine 0 with everything and no gradient
            assert not dZ[:, 1::5].any()


    @pytest.mark.parametrize("mode", ["cosine", "inner"])
    def test_tag_gram_matches_its_array_bit_for_bit(self, mode):
        # a TagGram's fresh panels are scaled in place, an array target's rows
        # are copied: the same loss and gradient, and the array is left unchanged
        rng = np.random.default_rng(9)
        n = 2 * obj.PANEL + 5
        Y = (rng.random((3, n)) < 0.4).astype(np.float64)
        dense = Y.T @ Y
        kept = dense.copy()
        Z = rng.standard_normal((4, n))
        loss, dZ = obj.reconstruction_loss(Z, obj.TagGram(Y), 1.5, mode=mode)
        want, dZ_want = obj.reconstruction_loss(Z, dense, 1.5, mode=mode)
        assert loss == want and dZ.tobytes() == dZ_want.tobytes()
        assert np.array_equal(dense, kept)


class TestFeatureReconstruction:
    def test_exact_decoder(self):
        Z = np.array([[1.0, -1.0]])
        dec = DecoderParams(Wd=np.array([[2.0], [0.0]]))
        Xatt = dec.Wd @ Z
        loss, dZ, dWd = obj.feature_reconstruction_loss(Z, Xatt, dec)
        assert loss == 0.0
        assert np.array_equal(dZ, np.zeros_like(Z))
        assert np.array_equal(dWd, np.zeros_like(dec.Wd))

    def test_gradients(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((4, 6))
        Xatt = rng.standard_normal((5, 6))
        dec = DecoderParams(Wd=rng.standard_normal((5, 4)))
        _, dZ, dWd = obj.feature_reconstruction_loss(Z, Xatt, dec)
        fd_z = central_diff(lambda z: obj.feature_reconstruction_loss(z, Xatt, dec)[0], Z)
        fd_w = central_diff(
            lambda w: obj.feature_reconstruction_loss(Z, Xatt, DecoderParams(Wd=w))[0], dec.Wd
        )
        assert max_rel_err(dZ, fd_z) < 1e-5
        assert max_rel_err(dWd, fd_w) < 1e-5


class TestClassificationLoss:
    def test_perfect_predictions(self):
        Y = np.array([[1.0, 0.0]])
        loss, dlog = obj.classification_loss(Y.copy(), Y)
        assert loss == pytest.approx(0.0, abs=1e-9)
        assert np.array_equal(dlog, np.zeros_like(Y))

    def test_hand_value(self):
        P = np.array([[0.5]])
        Y = np.array([[1.0]])
        loss, dlog = obj.classification_loss(P, Y)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        assert dlog[0, 0] == -0.5

    def test_logit_gradient(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 7))
        Y = (rng.random((3, 7)) < 0.5).astype(float)
        P = net.sigmoid(logits)
        _, dlog = obj.classification_loss(P, Y)
        fd = central_diff(lambda L: obj.classification_loss(net.sigmoid(L), Y)[0], logits)
        assert max_rel_err(dlog, fd) < 1e-6


class TestGanLosses:
    def test_uninformative_disc(self):
        p = net.DiscParams(
            A1=np.zeros((64, 2)), b1=np.zeros(64),
            A2=np.zeros((32, 64)), b2=np.zeros(32),
            A3=np.zeros((1, 32)), b3=np.zeros(1),
        )
        rng = np.random.default_rng(5)
        res = obj.gan_losses(rng.standard_normal((2, 4)), rng.standard_normal((2, 4)), p)
        assert res.l_disc == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
        assert res.l_gen_adv == pytest.approx(np.log(2.0), abs=1e-12)

    def test_disc_gradients(self):
        inst = small_instance(10)
        rng = np.random.default_rng(11)
        Z = rng.standard_normal((4, 16))

        def loss_for(disc):
            return obj.gan_losses(Z, inst.prior, disc).l_disc

        grads = obj.disc_grads(Z, inst.prior, inst.disc)
        for name in ("A1", "b1", "A2", "b2", "A3", "b3"):
            base = getattr(inst.disc, name)

            def f(P, _name=name):
                kwargs = {k: getattr(inst.disc, k) for k in ("A1", "b1", "A2", "b2", "A3", "b3")}
                kwargs[_name] = P
                return loss_for(net.DiscParams(**kwargs))

            fd = central_diff(f, base)
            assert max_rel_err(grads[name], fd) < 1e-4, name

    def test_generator_dZ(self):
        inst = small_instance(12)
        rng = np.random.default_rng(13)
        Z = rng.standard_normal((4, 16))
        res = obj.gan_losses(Z, inst.prior, inst.disc)
        fd = central_diff(lambda z: obj.gan_losses(z, inst.prior, inst.disc).l_gen_adv, Z)
        assert max_rel_err(res.dZ, fd) < 1e-4

    def test_code_length_mismatch(self):
        inst = small_instance(14)
        with pytest.raises(ShapeError):
            obj.gan_losses(np.ones((5, 3)), inst.prior, inst.disc)



# the adversarial pass as it was before the discriminator and generator steps
# were split: one call computed both halves, each step used one of them
def _reference_disc_backward(V, h1, h2, dlogits, p):
    df = dlogits[None, :]
    dA3 = df @ h2.T
    db3 = df.sum(axis=1)
    dh2 = p.A3.T @ df
    da2 = dh2 * (h2 > 0)
    dA2 = da2 @ h1.T
    db2 = da2.sum(axis=1)
    dh1 = p.A2.T @ da2
    da1 = dh1 * (h1 > 0)
    dA1 = da1 @ V.T
    db1 = da1.sum(axis=1)
    dV = p.A1.T @ da1
    return {"A1": dA1, "b1": db1, "A2": dA2, "b2": db2, "A3": dA3, "b3": db3}, dV


def reference_gan_losses(Z, prior_samples, disc):
    m_fake, m_real = Z.shape[1], prior_samples.shape[1]
    h1r, h2r, f_real = net.disc_layers(prior_samples, disc)
    h1f, h2f, f_fake = net.disc_layers(Z, disc)
    D_real, D_fake = net.sigmoid(f_real), net.sigmoid(f_fake)
    l_disc = float(np.logaddexp(0.0, -f_real).mean() + np.logaddexp(0.0, f_fake).mean())
    g_real, _ = _reference_disc_backward(prior_samples, h1r, h2r, (D_real - 1.0) / m_real, disc)
    g_fake, _ = _reference_disc_backward(Z, h1f, h2f, D_fake / m_fake, disc)
    disc_grads = {name: g_real[name] + g_fake[name] for name in g_real}
    _, dZ = _reference_disc_backward(Z, h1f, h2f, -(1.0 - D_fake) / m_fake, disc)
    return SimpleNamespace(l_disc=l_disc, l_gen_adv=float(np.logaddexp(0.0, -f_fake).mean()),
                           disc_grads=disc_grads, dZ=dZ)


class TestSplitAdversarialPass:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_each_half_is_the_joint_pass_bit_for_bit(self, dtype):
        inst = small_instance(21, n=40, r=6)
        Z = (3.0 * np.random.default_rng(22).standard_normal((6, 40))).astype(dtype)
        ref = reference_gan_losses(Z, inst.prior, inst.disc)
        grads, gan = obj.disc_grads(Z, inst.prior, inst.disc), obj.gan_losses(Z, inst.prior, inst.disc)
        assert grads.keys() == ref.disc_grads.keys()
        for name, grad in grads.items():
            assert grad.dtype == ref.disc_grads[name].dtype and grad.tobytes() == ref.disc_grads[name].tobytes()
        assert (gan.l_disc, gan.l_gen_adv) == (ref.l_disc, ref.l_gen_adv)
        assert gan.dZ.dtype == ref.dZ.dtype and gan.dZ.tobytes() == ref.dZ.tobytes()

    def test_fit_is_the_fit_of_the_joint_pass(self, tmp_path):
        fm, aux, _ = synth_dataset(n=30, d=6, c=2, sep=3.0, label_noise=0.1, seed=23)
        cfg = trainer.TrainConfig(epochs=5, lr=1e-2, seed=23)
        runs = []
        for disc_grads, gan_losses in ((obj.disc_grads, obj.gan_losses),
                                       (lambda *args: reference_gan_losses(*args).disc_grads, reference_gan_losses)):
            with mock.patch.multiple(obj, disc_grads=disc_grads, gan_losses=gan_losses):
                model, history = trainer.fit(fm, aux, np.arange(20), r=4, d_prime=8, hidden=8, cfg=cfg)
            trainer.save_model(tmp_path / "model.bin", model)
            runs.append(((tmp_path / "model.bin").read_bytes(), history))
        assert runs[0] == runs[1]


class TestHyperparams:
    def test_defaults(self):
        hp = obj.Hyperparams()
        assert (hp.lambda1, hp.lambda2, hp.lambda3, hp.k) == (100.0, 1.0, 1.0, 1.0)
        assert hp.recon_target == "aux"

    def test_validation(self):
        with pytest.raises(ParameterError):
            obj.Hyperparams(lambda1=-1.0)
        with pytest.raises(ParameterError):
            obj.Hyperparams(k=0.0)
        with pytest.raises(ParameterError):
            obj.Hyperparams(recon_target="l2")

    def test_total_weighting(self):
        hp = obj.Hyperparams(lambda1=2.0, lambda2=3.0, lambda3=4.0)
        assert obj.total_generator_loss(1.0, 10.0, 100.0, 1000.0, hp) == 1.0 + 20.0 + 300.0 + 4000.0


class TestBackpropAll:
    def _generator_loss(self, inst, gcn, head, hp):
        bd, _ = backprop(inst, gcn=gcn, head=head, hp=hp)
        return bd.total_gen

    def test_network_gradients(self):
        inst = small_instance(20)
        _, grads = backprop(inst)
        fd_w1 = central_diff(
            lambda W: self._generator_loss(inst, GcnParams(W1=W, W2=inst.gcn.W2), inst.head, inst.hp),
            inst.gcn.W1,
        )
        fd_w2 = central_diff(
            lambda W: self._generator_loss(inst, GcnParams(W1=inst.gcn.W1, W2=W), inst.head, inst.hp),
            inst.gcn.W2,
        )
        fd_wc = central_diff(
            lambda W: self._generator_loss(inst, inst.gcn, net.ClsHead(Wc=W), inst.hp),
            inst.head.Wc,
        )
        assert max_rel_err(grads["W1"], fd_w1) < 1e-4
        assert max_rel_err(grads["W2"], fd_w2) < 1e-4
        assert max_rel_err(grads["Wc"], fd_wc) < 1e-4

    def test_network_gradients_through_the_basis(self):
        # d + c = 6 < d' = 10: the instance is re-expressed in k = 6 coordinates,
        # so W1 is h x 6 and the projections R_x, R_y are 6 x 4 and 6 x 2
        inst = small_instance(26, d=4, c=2, d_prime=10)
        assert inst.gcn.W1.shape == (8, 6) and inst.apar.P_x.shape == (6, 4) and inst.apar.P_y.shape == (6, 2)
        _, grads = backprop(inst)
        fd_w1 = central_diff(lambda W: backprop(inst, gcn=GcnParams(W1=W, W2=inst.gcn.W2))[0].total_gen,
                             inst.gcn.W1)
        assert max_rel_err(grads["W1"], fd_w1) < 1e-4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("target", obj.RECON_TARGETS)
    def test_gcn_gradients_take_the_forward_dtype(self, dtype, target):
        # the GCN gradients follow S~ and the layers; the head's and the decoder's
        # follow their float64 parameters, and the losses are floats
        inst = small_instance(24, hp=obj.Hyperparams(recon_target=target))
        Xatt, St = inst.Xatt.astype(dtype), inst.St.astype(dtype)
        gcn = GcnParams(inst.gcn.W1.astype(dtype), inst.gcn.W2.astype(dtype))
        recon = kernel_target(Xatt, inst.Y, target)
        decoder = net.init_decoder(Xatt.shape[0], inst.B.shape[0], 3)
        H = Xatt @ St
        bd, grads = obj.backprop_all(Xatt, H, net.gcn_layers(H, St, gcn), St, inst.Y, inst.B, gcn,
                                     inst.disc, inst.head, inst.hp, inst.prior, recon_matrix=recon,
                                     decoder=decoder)
        assert grads["W1"].dtype == grads["W2"].dtype == dtype
        assert all(grads[name].dtype == np.float64 for name in grads if name not in ("W1", "W2"))
        assert set(grads) == {"W1", "W2", "Wc"} | ({"Wd"} if target == "feature" else set())
        assert all(type(value) is float for value in vars(bd).values())
        if dtype == np.float32:  # the float32 gradients are the float64 ones to float32 rounding
            _, want = obj.backprop_all(inst.Xatt, inst.Xatt @ inst.St, net.gcn_layers(
                inst.Xatt @ inst.St, inst.St, inst.gcn), inst.St, inst.Y, inst.B, inst.gcn, inst.disc,
                inst.head, inst.hp, inst.prior, decoder=decoder,
                recon_matrix=kernel_target(inst.Xatt, inst.Y, target))
            for name in ("W1", "W2"):
                assert np.abs(grads[name] - want[name]).max() <= 1e-4 * np.abs(want[name]).max()

    def test_feature_target_requires_decoder(self):
        inst = small_instance(22, hp=obj.Hyperparams(recon_target="feature"))
        with pytest.raises(ParameterError):
            backprop(inst)

    def test_missing_recon_matrix(self):
        # the kernel targets read an n x n matrix; 'aux' and 'inner-product' form theirs from Y
        for target in obj.RECON_PARTS:
            inst = small_instance(23, hp=obj.Hyperparams(recon_target=target))
            with pytest.raises(ParameterError):
                backprop(inst)
