import dataclasses
import json
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aghash import attention as att
from aghash import cli
from aghash import graph as sg
from aghash import network as net
from aghash import objective as obj
from aghash import retrieval
from aghash import trainer
from aghash.data import FeatureMatrix, make_split, synth_dataset
from aghash.errors import AghashError, DataError, FormatError, NumericError, ParameterError, ShapeError
from aghash.trainer import AdamState, TrainConfig, adam_step, sign_pm
from conftest import read_checkpoint


def tiny_fit(seed=0, **overrides):
    fm, aux, _ = synth_dataset(n=24, d=6, c=2, sep=4.0, label_noise=0.0, seed=seed)
    split = make_split(24, (16, 4), seed=seed)
    kwargs = dict(r=4, d_prime=8, hidden=8, cfg=TrainConfig(epochs=3, lr=1e-3, seed=seed))
    kwargs.update(overrides)
    model, history = trainer.fit(fm, aux, split.train, **kwargs)
    return fm, aux, split, model, history


# the sizes of a tiny_fit model at its default settings
TINY_DIMS = {"c": 2, "d": 6, "h": 8, "k": 8, "n": 16, "r": 4}


def flags_fit(seed, *flags):
    """tiny_fit under the configuration that `aghash train` resolves from `flags`."""
    args = cli.build_parser().parse_args(
        ["train", "--features", "-", "--aux", "-", "--split", "-", "--out", "-",
         "--epochs", "3", "--lr", "1e-3", "--seed", str(seed), "--r", "4", "--d-prime", "8",
         "--hidden", "8", *flags])
    return tiny_fit(seed=seed, **cli._fit_kwargs(args))


def encode_pre_sign(model, Xq, Yq):
    """(codes, the outputs encode_queries took the signs of) for one call."""
    seen = []

    def spy(Z):
        seen.append(Z)
        return sign_pm(Z)

    with mock.patch.object(trainer, "sign_pm", spy):
        codes = trainer.encode_queries(model, Xq, Yq)
    assert len(seen) == 1  # one sign over all m queries, however many panels they take
    return codes, seen[0]


def panel_of(monkeypatch, model, queries):
    """Size encode_queries' panels to `queries` queries: the byte budget of that
    many n-wide COMPUTE_DTYPE graph columns of the model's n training items."""
    column = model.degrees.size * np.dtype(trainer.COMPUTE_DTYPE).itemsize
    monkeypatch.setattr(retrieval, "BLOCK_BYTES", queries * column)


def model_arrays(model):
    """Name -> array of everything a checkpoint holds, read from the model."""
    arrays = net.parameters(model.attention, model.gcn)
    arrays.update((name, getattr(model, name)) for name in trainer._CACHED)
    return arrays


def same_codes_tolerance(model, z_batch):
    """How far two calls' outputs for the same items may differ: inner * eps * max|z|.

    An output is a chain of COMPUTE_DTYPE products: the query kernel (inner
    length k), its row sums and its product with xatt_train (n each),
    W = W2 W1 (h) and W's product with the first hop (k); the other term's
    product with wh1_train (n) is shorter.
    A computed sum of L products is within L u |x|.|y| of the exact one, u =
    eps / 2 (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    sec. 3.1), and to first order the lengths along a chain add up. The
    batched and the one-column calls may each order their sums differently,
    so they differ by at most 2 L u |x|.|y| = L eps |x|.|y|, L = 2n + 2k + h,
    with max|z| standing for the magnitudes |x|.|y|. Measured on the variant
    models: at most 1.8 eps max|z|, against L = 56 there.
    """
    k, n = model.xatt_train.shape
    inner = 2 * n + 2 * k + model.gcn.W1.shape[0]
    return inner * np.finfo(trainer.COMPUTE_DTYPE).eps * np.abs(z_batch).max()


def assert_same_codes(model, batch, z_batch, one, z_one):
    """Codes of the same items from different calls: a bit may flip only where
    rounding differs between the products and the output is that close to 0."""
    tol = same_codes_tolerance(model, z_batch)
    assert np.all(np.abs(z_one - z_batch) <= tol)
    flipped = one != batch
    assert np.all(np.abs(z_batch[flipped]) <= tol)


class TestAdam:
    def test_first_step_is_lr_times_sign(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        p = np.array([1.0, -2.0])
        g = np.array([0.5, -3.0])
        adam_step(p, g, AdamState.like(p), 1, lr=0.1)
        assert np.allclose(p, [1.0, -2.0] - 0.1 * np.sign(g), atol=1e-7)

    def test_zero_gradient_no_move(self):
        p = np.array([2.0])
        adam_step(p, np.zeros(1), AdamState.like(p), 1, lr=0.1)
        assert p[0] == 2.0

    def test_state_accumulates(self):
        st = AdamState.like(np.zeros(1))
        p = np.array([0.0])
        for t in range(1, 6):
            adam_step(p, np.array([1.0]), st, t, lr=0.01)
        assert p[0] == pytest.approx(-0.05, abs=1e-6)

    def test_constant_gradient_reference_sequence(self):
        # against an independent scalar recurrence computed in plain python
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        g = 2.0
        m = v = 0.0
        x_ref = 0.5
        for t in range(1, 4):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x_ref -= lr * (m / (1 - b1**t)) / ((v / (1 - b2**t)) ** 0.5 + eps)
        st = AdamState.like(np.zeros(1))
        x = np.array([0.5])
        for t in range(1, 4):
            adam_step(x, np.array([g]), st, t, lr=lr)
        assert x[0] == pytest.approx(x_ref, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step(np.zeros(2), np.zeros(3), AdamState.like(np.zeros(2)), 1, lr=0.1)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_state_is_updated_in_place_with_the_same_arithmetic(self, dtype):
        # the parameter and the moments keep their arrays, and every value
        # equals the textbook expressions evaluated with fresh temporaries, bit for bit
        rng = np.random.default_rng(3)
        p = rng.standard_normal((7, 5)).astype(dtype)
        st = AdamState.like(p)
        p_array, m_array, v_array = p, st.m, st.v
        m, v = np.zeros_like(p), np.zeros_like(p)
        for t in range(1, 5):
            g = rng.standard_normal(p.shape).astype(dtype)
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g**2
            want = p - 1e-3 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
            assert adam_step(p, g, st, t, lr=1e-3) is None
            assert p is p_array and st.m is m_array and st.v is v_array
            assert np.array_equal(st.m, m) and np.array_equal(st.v, v)
            assert np.array_equal(p, want) and p.dtype == dtype


class TestSign:
    def test_zero_maps_to_plus_one(self):
        assert np.array_equal(sign_pm(np.array([-0.5, 0.0, 0.5])), [-1.0, 1.0, 1.0])

    def test_negative_zero(self):
        assert sign_pm(np.array([-0.0]))[0] == 1.0


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            TrainConfig(lr=0.0)
        with pytest.raises(ParameterError):
            TrainConfig(epochs=0)
        with pytest.raises(ParameterError, match="epochs must be an integer >= 1, got 2.5"):
            TrainConfig(epochs=2.5)
        with pytest.raises(ParameterError, match="seed must be an integer >= 0, got -1"):
            TrainConfig(seed=-1)
        with pytest.raises(ParameterError, match="seed must be an integer >= 0, got 0.5"):
            TrainConfig(seed=0.5)
        with pytest.raises(ParameterError, match="^lr must be a real number, got True$"):
            TrainConfig(lr=True)
        assert TrainConfig(epochs=np.int64(2), seed=np.uint32(7)).seed == 7

    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.lr, cfg.epochs, cfg.seed, cfg.k) == (1e-4, 300, 0, 1.0)

    def test_k_must_be_finite_and_positive(self):
        for k, message in ((0.0, "k must be > 0, got 0.0"), (-1.0, "k must be > 0, got -1.0"),
                           (float("nan"), "k must be finite, got nan"),
                           ("1", "k must be a real number, got '1'"), (True, "k must be a real number, got True")):
            with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
                TrainConfig(k=k)


class TestFit:
    @pytest.mark.parametrize("use_attention", [True, False])
    def test_features_beyond_float32_are_a_data_error(self, monkeypatch, use_attention):
        # finite in float64, not in the float32 attentive features: the item is named before
        # any graph work, and no overflow warning escapes
        fm, aux, _ = synth_dataset(n=24, d=6, c=2, sep=4.0, label_noise=0.0, seed=0)
        X = fm.data.copy()
        X[3, 5] = 1e300
        fm = FeatureMatrix(X)
        monkeypatch.setattr(sg, "build_graph", mock.Mock(side_effect=AssertionError("graph built")))
        with pytest.raises(DataError, match="^attentive features of item 5 are not finite in float32$"):
            trainer.fit(fm, aux, np.arange(2, 18), r=4, d_prime=8, hidden=8, use_attention=use_attention)

    def test_history_and_shapes(self):
        fm, aux, split, model, history = tiny_fit()
        assert len(history) == 3
        assert model.z_train.shape == (4, 16)
        assert model.xatt_train.shape == (8, 16)
        assert all(type(loss) is float and np.isfinite(loss) for loss in history)

    def test_deterministic(self):
        _, _, _, m1, h1 = tiny_fit(seed=5)
        _, _, _, m2, h2 = tiny_fit(seed=5)
        assert np.array_equal(m1.gcn.W1, m2.gcn.W1)
        assert np.array_equal(m1.z_train, m2.z_train)
        assert h1[-1] == h2[-1]

    def test_seed_changes_model(self):
        _, _, _, m1, _ = tiny_fit(seed=1)
        _, _, _, m2, _ = tiny_fit(seed=2)
        assert not np.array_equal(m1.gcn.W1, m2.gcn.W1)

    def test_loss_decreases(self):
        fm, aux, _ = synth_dataset(n=40, d=8, c=2, sep=5.0, label_noise=0.0, seed=3)
        split = make_split(40, (30, 5), seed=3)
        _, history = trainer.fit(
            fm, aux, split.train, r=8, d_prime=16, hidden=16,
            cfg=TrainConfig(epochs=40, lr=1e-3, seed=3),
        )
        assert history[-1] < history[0]

    def test_empty_train_split(self):
        fm, aux, _ = synth_dataset(n=8, d=4, c=2, sep=1.0, label_noise=0.0, seed=0)
        with pytest.raises(ParameterError):
            trainer.fit(fm, aux, np.array([], dtype=np.int64))

    @pytest.mark.parametrize("index", [99, -1])
    def test_train_index_out_of_range(self, index):
        fm, aux, _ = synth_dataset(n=40, d=4, c=2, sep=1.0, label_noise=0.0, seed=0)
        with pytest.raises(ParameterError, match=f"train index {index} is out of range for 40 items"):
            trainer.fit(fm, aux, [0, 1, index, 2], r=4, d_prime=8, hidden=8)

    @pytest.mark.parametrize("train_idx, error, message", [
        ([0.5, 1.7], ParameterError, "train indices must be integers, got dtype float64"),
        ([True, False, True], ParameterError, "train indices must be integers, got dtype bool"),
        ([[0, 1], [2, 3]], ShapeError, r"train indices must be 1-D, got shape \(2, 2\)"),
    ], ids=["fractional", "boolean", "two-dimensional"])
    def test_malformed_train_indices(self, train_idx, error, message):
        fm, aux, _ = synth_dataset(n=40, d=4, c=2, sep=1.0, label_noise=0.0, seed=0)
        with pytest.raises(error, match=message):
            trainer.fit(fm, aux, train_idx, r=4, d_prime=8, hidden=8)

    def test_repeated_train_index(self):
        # DatasetSplit's index-set check: a repeated item would be a duplicate graph node
        fm, aux, _ = synth_dataset(n=40, d=4, c=2, sep=1.0, label_noise=0.0, seed=0)
        with pytest.raises(ParameterError, match="^train index 3 is repeated$"):
            trainer.fit(fm, aux, [5, 3, 0, 3, 1, 5], r=4, d_prime=8, hidden=8)

    def test_each_epoch_steps_every_parameter_once(self):
        # the registry's arrays are stepped in place, each once per epoch with t == epoch:
        # the GCN's W1 and W2; the attention projections stay fixed
        parameters = net.parameters
        steps, ends, registries = [], [0], []

        def record(param, grad, state, t, lr):
            steps.append((id(param), t))
            adam_step(param, grad, state, t, lr)

        def spy(*groups):
            registries.append(parameters(*groups))
            return registries[-1]

        with mock.patch.object(trainer, "adam_step", record), mock.patch.object(net, "parameters", spy):
            _, _, _, model, _ = tiny_fit(epoch_callback=lambda epoch, _: ends.append(len(steps)))
        assert len(registries) == 1
        names = {id(param): name for name, param in registries[0].items()}
        ids = {param for param, _ in steps}
        assert {names[param] for param in ids} == {"W1", "W2"}
        assert names[id(model.gcn.W1)] == "W1" and names[id(model.gcn.W2)] == "W2"
        assert id(model.attention.P_x) not in ids and id(model.attention.P_y) not in ids
        for epoch in (1, 2, 3):
            stepped = steps[ends[epoch - 1]:ends[epoch]]
            assert sorted(stepped) == sorted((param, epoch) for param in ids)
        assert ends[-1] == len(steps)

    def test_identity_basis_is_a_fit_without_the_basis(self, tmp_path):
        # d + c = 8 = d': the basis is the identity, so training starts from the
        # drawn projections and W1 bit for bit, and the checkpoint is byte for
        # byte that of a fit that never asks for the basis
        cfg = TrainConfig(epochs=3, lr=1e-3, seed=19)
        bases, basis, denoise, backprop_all, first = [], att.basis, att.denoise, obj.backprop_all, {}

        def spy(*args):
            bases.append(basis(*args))
            return bases[-1]

        def first_denoise(X, Y, params):
            first.setdefault("P", (params.P_x, params.P_y))
            return denoise(X, Y, params)

        def first_step(*args, **kwargs):  # a copy: training steps W1 in place
            first.setdefault("W1", args[3].W1.copy())
            return backprop_all(*args, **kwargs)

        saved = []
        for patched in (spy, lambda *args: None):
            first.clear()
            with mock.patch.object(att, "basis", patched), mock.patch.object(att, "denoise", first_denoise), \
                    mock.patch.object(obj, "backprop_all", first_step):
                model = tiny_fit(seed=19, cfg=cfg)[3]
            trainer.save_model(tmp_path / "model.bin", model)
            saved.append((tmp_path / "model.bin").read_bytes())
            drawn = att.init_attention(6, 2, 8, 19)
            assert all(np.array_equal(a, b) for a, b in zip(first["P"], (drawn.P_x, drawn.P_y)))
            W1 = net.init_params(8, 8, 4, 20).W1.astype(trainer.COMPUTE_DTYPE)
            assert first["W1"].dtype == W1.dtype and np.array_equal(first["W1"], W1)
        assert bases == [None]  # one QR per fit, none per forward
        assert saved[0] == saved[1]

    @pytest.mark.parametrize("use_attention", [False, True])
    def test_basis_path_is_the_full_width_model(self, use_attention):
        # d + c = 8 < d' = 32: fit re-expresses the projections and W1 in k = 8
        # coordinates, with or without the attention, and its first outputs Z are
        # those of the d'-wide model drawn from the same seeds, to float32 rounding
        seed, dtype = 22, trainer.COMPUTE_DTYPE
        backprop_all, first = obj.backprop_all, []

        def first_step(*args, **kwargs):  # the codes the first step differentiates
            first.append(args[1].copy())
            return backprop_all(*args, **kwargs)

        with mock.patch.object(obj, "backprop_all", first_step):
            fm, aux, split, model, _ = tiny_fit(seed=seed, d_prime=32, use_attention=use_attention,
                                                cfg=TrainConfig(epochs=1, lr=1e-3, seed=seed))
        assert model.attention.P_x.shape == (8, 6) and model.attention.P_y.shape == (8, 2)
        assert model.gcn.W1.shape == (8, 8) and model.xatt_train.shape == (8, 16)
        X, Y = fm.data[:, split.train], aux.data[:, split.train]
        apar = att.init_attention(6, 2, 32, seed)
        xatt = (att.denoise(X, Y, apar) if use_attention else att.project(X, Y, apar)[0]).astype(dtype)
        gcn = net.init_params(32, 8, 4, seed + 1)
        St = sg.build_graph(xatt, Y, sg.GraphConfig())[0]
        Z = (gcn.W2.astype(dtype) @ gcn.W1.astype(dtype)) @ ((xatt @ St) @ St)
        assert np.abs(first[0] - Z).max() <= 1e-4 * np.abs(Z).max()

    def test_epoch_callback(self):
        seen = []
        tiny_fit(epoch_callback=lambda e, b: seen.append(e))
        assert seen == [1, 2, 3]

    def test_variant_fits_run(self, variant_models):
        for variant in cli._VARIANTS:
            _, _, _, model, history = variant_models[variant]
            assert np.isfinite(history[-1])
            if sg.PARTS[model.graph_cfg.variant][0]:  # the graph's kernel resolves the bandwidth
                assert model.graph_cfg.bandwidth == sg.visual_similarity(model.xatt_train)[1]
            else:
                assert model.graph_cfg.bandwidth is None

    @pytest.mark.parametrize("variants", [
        pytest.param(["full", "no-att", "only-sv", "only-sa"], id="aux"),
        pytest.param(["no-aux"], id="visual"),
    ])
    def test_reconstruction_target_is_built_once(self, variants):
        # codes that read the tags, through the attention or the graph, reconstruct
        # their centred Gram matrix; codes that read none the centred cosines of
        # their attentive features
        for variant in variants:
            calls, backprop_all = [], obj.backprop_all

            def spy(*args):
                calls.append(args)
                return backprop_all(*args)

            with mock.patch.object(obj, "backprop_all", spy):
                fm, aux, split, model, _ = flags_fit(0, "--variant", variant)
            target = calls[0][2]
            assert len(calls) == 3 and all(args[2] is target for args in calls)
            G = att.unit_columns(model.xatt_train)[0] if variant == "no-aux" else aux.data[:, split.train]
            want = obj.LowRankTarget(G, trainer.COMPUTE_DTYPE)
            assert isinstance(target, obj.LowRankTarget) and target.F_grad.dtype == trainer.COMPUTE_DTYPE
            assert np.array_equal(target.F, want.F) and np.array_equal(target.w, want.w)

    @pytest.mark.parametrize("variant", list(cli._VARIANTS))
    def test_one_graph_per_fit(self, variant):
        # the normalized graph is the fit's only SymGraph: no variant's
        # reconstruction target is a second one
        made, init = [], sg.SymGraph.__init__

        def count(graph, n, dtype):
            made.append(n)
            init(graph, n, dtype)

        with mock.patch.object(sg.SymGraph, "__init__", count):
            _, _, split, _, _ = flags_fit(0, "--variant", variant)
        assert made == [len(split.train)]

    def test_working_set(self):
        # training holds S~ but no n x n reconstruction target: the loss reads
        # the tags through their Gram matrices, and the attention scores are
        # n x u over the u distinct tag columns
        n = 600
        fm, aux, _ = synth_dataset(n=n, d=32, c=4, sep=2.0, label_noise=0.1, seed=1)
        u = np.unique(aux.data, axis=1).shape[1]
        scores, att_scores = [], att.attention_scores

        def spy(Xbar, Ubar):
            alpha = att_scores(Xbar, Ubar)
            scores.append(alpha.shape)
            return alpha

        tracemalloc.start()
        try:
            with mock.patch.object(att, "attention_scores", spy):
                trainer.fit(fm, aux, np.arange(n), d_prime=64, hidden=128, cfg=TrainConfig(epochs=2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * n * n * 8, f"peak {peak / (n * n * 8):.2f} n x n float64 arrays"
        assert scores == [(n, u)]

    def test_fit_holds_the_graph_once(self):
        # n large against d', h and r, so S~ dominates fit's peak: it is held as
        # its triangle, about n^2/2 + n HEIGHT/2 float32 entries (0.56 of an
        # n x n float32 array here); the fit read 0.82, where the n x n graph
        # read 1.26
        n = 2000
        fm, aux, _ = synth_dataset(n=n, d=16, c=4, sep=2.0, label_noise=0.1, seed=1)

        def fit(items):
            trainer.fit(fm, aux, np.arange(items), r=8, d_prime=16, hidden=32, cfg=TrainConfig(epochs=2))

        fit(50)  # numpy's lazy imports happen outside the trace
        tracemalloc.start()
        try:
            fit(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.9 * n * n * 4, f"peak {peak / (n * n * 4):.2f} n x n float32 arrays"

    @pytest.mark.parametrize("epochs", [1, 5])
    def test_two_graph_products_per_fit(self, epochs):
        # both hops are formed once: no epoch multiplies by the graph
        products, rmatmul = [], sg.SymGraph.__rmatmul__

        def count(graph, M):
            products.append(np.shape(M))
            return rmatmul(graph, M)

        with mock.patch.object(sg.SymGraph, "__rmatmul__", count):
            _, _, _, model, history = tiny_fit(cfg=TrainConfig(epochs=epochs, lr=1e-3))
        assert len(history) == epochs
        assert products == [model.xatt_train.shape] * 2

    def test_hidden_width_adds_no_hidden_by_n_array(self):
        # h sets only W1 (h x k), W2 (r x h), their draws, gradients and Adam
        # states: a 3-epoch fit at h = 2048 peaks less than one h x n float32
        # array above the same fit at h = 16 (measured 0.45; a ReLU layer's
        # h x n output alone is one, and the two-layer ReLU GCN read 1.44)
        n = 600
        fm, aux, _ = synth_dataset(n=n, d=32, c=4, sep=2.0, label_noise=0.1, seed=1)

        def peak(hidden):
            trainer.fit(fm, aux, np.arange(n), d_prime=64, hidden=hidden, cfg=TrainConfig(epochs=1))
            tracemalloc.start()  # numpy's lazy imports happened in the untraced fit
            try:
                trainer.fit(fm, aux, np.arange(n), d_prime=64, hidden=hidden, cfg=TrainConfig(epochs=3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        grown = peak(2048) - peak(16)
        assert grown < 2048 * n * 4, f"peak grew {grown / (2048 * n * 4):.2f} h x n float32 arrays"

    @pytest.mark.parametrize("n, hidden, bound", [
        (2000, 32, 2000 * 2000 * 4), (500, 2048, 2048 * 500 * 8),
    ], ids=["no-n-by-n", "no-float64-h-by-n"])
    def test_epoch_forms_no_graph_copy_or_float64_hidden_array(self, n, hidden, bound):
        # S~ and the layers exist before an epoch starts. Within one, the loss
        # forms only Gram matrices and r x n arrays, and the GCN products stay
        # in S~'s dtype, so the epoch's new arrays stay below one float32 n x n
        # array when n is large against h, and below one float64 h x n array
        # when h is large against n
        fm, aux, _ = synth_dataset(n=n, d=16, c=4, sep=2.0, label_noise=0.1, seed=1)
        peaks = []

        def trace(epoch, _):
            if epoch == 1:
                tracemalloc.start()
            else:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        try:
            trainer.fit(fm, aux, np.arange(n), r=8, d_prime=16, hidden=hidden, epoch_callback=trace,
                        cfg=TrainConfig(epochs=2))
        finally:
            tracemalloc.stop()
        assert peaks[0] < bound, f"epoch peak {peaks[0]} bytes, bound {bound}"

    def test_model_arrays_take_the_compute_dtype(self):
        _, _, _, model, _ = tiny_fit(seed=4)
        for name, arr in model_arrays(model).items():
            want = trainer.COMPUTE_DTYPE if name in trainer._COMPUTED else np.float64
            assert arr.dtype == want, name

    def test_one_attention_forward_per_fit_and_encode(self):
        # the projections are fixed: fit denoises the training items once, and
        # each encode_queries call its queries once, however many panels they take
        with mock.patch.object(att, "denoise", side_effect=att.denoise) as spy:
            fm, aux, split, model, _ = tiny_fit(cfg=TrainConfig(epochs=4, lr=1e-3))
            assert spy.call_count == 1
            Xq, Yq = fm.data[:, split.query], aux.data[:, split.query]
            with mock.patch.object(retrieval, "BLOCK_BYTES", 1):  # one query per panel
                for calls in (2, 3):
                    trainer.encode_queries(model, Xq, Yq)
                    assert spy.call_count == calls

    def test_cached_outputs_match_final_parameters(self):
        # the graph is built once, from the attentive features; the reference
        # forward runs in fit's dtype, so it is fit's own
        cfg = TrainConfig(epochs=3, lr=1e-3, seed=9)
        fm, aux, split, model, _ = tiny_fit(seed=9, cfg=cfg)
        X, Y = fm.data[:, split.train], aux.data[:, split.train]
        xatt = att.denoise(X, Y, model.attention).astype(trainer.COMPUTE_DTYPE)
        St, _, _ = sg.build_graph(xatt, Y, model.graph_cfg)
        H1 = xatt @ St
        W = model.gcn.W2 @ model.gcn.W1
        assert np.array_equal(model.xatt_train, xatt)
        assert np.array_equal(W @ H1, model.wh1_train)
        assert np.array_equal(W @ (H1 @ St), model.z_train)


class TestEncoding:
    def test_train_codes_match_signs(self):
        fm, aux, split, model, _ = tiny_fit(seed=11)
        codes = trainer.encode_train(model, fm.data[:, split.train], aux.data[:, split.train])
        assert np.array_equal(retrieval.unpack(codes), sign_pm(model.z_train))

    def test_query_matches_batch(self):
        fm, aux, split, model, _ = tiny_fit(seed=12)
        Xq = fm.data[:, split.query]
        Yq = aux.data[:, split.query]
        batch = trainer.encode_queries(model, Xq, Yq)
        one = trainer.encode_queries(model, Xq[:, :1], Yq[:, :1])[:, 0]
        assert np.array_equal(one, batch[:, 0])
        assert set(np.unique(batch)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_query_features_beyond_float32_are_a_data_error(self, use_attention):
        fm, aux, split, model, _ = tiny_fit(seed=12, use_attention=use_attention)
        Xq = fm.data[:, split.query].copy()
        Xq[2, 1] = 1e300
        with pytest.raises(DataError, match="^attentive features of query 1 are not finite in float32$"):
            trainer.encode_queries(model, Xq, aux.data[:, split.query])

    def test_non_finite_output_is_numeric_error(self):
        # sign_pm would read a NaN output as a -1 bit
        fm, aux, split, model, _ = tiny_fit(seed=12)
        model.wh1_train[0, 3] = np.nan
        with pytest.raises(NumericError, match="non-finite encoder output for query 0"):
            trainer.encode_queries(model, fm.data[:, split.query], aux.data[:, split.query])

    @pytest.mark.parametrize("variant", [*cli._VARIANTS, "basis"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_batch_codes_match_single_item_codes(self, variant_models, variant, data):
        # a bit may flip only where rounding differs between the batched and the
        # one-column products and the output is that close to 0
        fm, aux, _, model, _ = variant_models[variant]
        idx = data.draw(st.lists(st.integers(0, fm.n - 1), min_size=1, max_size=8), label="items")
        batch, z_batch = encode_pre_sign(model, fm.data[:, idx], aux.data[:, idx])
        for j, i in enumerate(idx):
            one, z_one = encode_pre_sign(model, fm.data[:, i:i + 1], aux.data[:, i:i + 1])
            assert_same_codes(model, batch[:, j], z_batch[:, j], one[:, 0], z_one[:, 0])

    def test_same_codes_bound_can_fail(self, variant_models):
        # one output moved just past the bound, or one code bit flipped where
        # the output is beyond the bound, fails the rule that the calls pass
        fm, aux, _, model, _ = variant_models["full"]
        batch, z_batch = encode_pre_sign(model, fm.data[:, :8], aux.data[:, :8])
        one, z_one = encode_pre_sign(model, fm.data[:, :1], aux.data[:, :1])
        assert_same_codes(model, batch[:, 0], z_batch[:, 0], one[:, 0], z_one[:, 0])
        tol = same_codes_tolerance(model, z_batch[:, 0])
        moved = z_batch[:, 0].astype(np.float64)
        moved[0] += tol * (1 + 1e-6)
        with pytest.raises(AssertionError):
            assert_same_codes(model, batch[:, 0], z_batch[:, 0], one[:, 0], moved)
        k = int(np.argmax(np.abs(z_batch[:, 0])))
        assert np.abs(z_batch[k, 0]) > tol
        flipped = one[:, 0].copy()
        flipped[k] = -flipped[k]
        with pytest.raises(AssertionError):
            assert_same_codes(model, batch[:, 0], z_batch[:, 0], flipped, z_one[:, 0])

    def test_codes_do_not_depend_on_the_panels(self, monkeypatch):
        # m = panel + 3 queries cross one panel edge; splitting the call at the
        # edge or encoding one query at a time gives the same codes
        fm, aux, _, model, _ = tiny_fit(seed=16)
        panel_of(monkeypatch, model, 5)
        Xq, Yq = fm.data[:, :8], aux.data[:, :8]
        batch, z_batch = encode_pre_sign(model, Xq, Yq)
        halves = [encode_pre_sign(model, Xq[:, cols], Yq[:, cols])
                  for cols in (slice(0, 5), slice(5, 8))]
        assert_same_codes(model, batch, z_batch, *(np.hstack(arrays) for arrays in zip(*halves)))
        for j in range(8):
            one, z_one = encode_pre_sign(model, Xq[:, j:j + 1], Yq[:, j:j + 1])
            assert_same_codes(model, batch[:, j], z_batch[:, j], one[:, 0], z_one[:, 0])

    def test_columns_and_layers_run_in_compute_dtype(self, monkeypatch):
        # float64 query features, tags and degrees: the graph columns, and so
        # both hops, are COMPUTE_DTYPE, so no float64 copy of a training array forms
        fm, aux, _, model, _ = tiny_fit(seed=21)
        panel_of(monkeypatch, model, 3)
        query_columns, seen = sg.query_columns, []

        def columns(*args):
            out = query_columns(*args)
            seen.extend(np.asarray(a).dtype for a in out)
            return out

        with mock.patch.object(sg, "query_columns", columns):
            codes, z = encode_pre_sign(model, fm.data[:, :7], aux.data[:, :7])
        assert seen == [trainer.COMPUTE_DTYPE] * 6 and z.dtype == trainer.COMPUTE_DTYPE

    def test_attention_runs_once_per_call(self, monkeypatch):
        # the attention dedupes y_train on each run, so it runs for all m queries at once
        fm, aux, _, model, _ = tiny_fit(seed=17)
        panel_of(monkeypatch, model, 2)
        with mock.patch.object(trainer, "_attentive", side_effect=trainer._attentive) as spy:
            trainer.encode_queries(model, fm.data[:, :7], aux.data[:, :7])
        assert spy.call_count == 1

    def test_working_set_is_one_panel(self, monkeypatch):
        # the n-wide graph columns live one panel at a time: eight panels'
        # worth of queries cost about what one panel's worth does
        n = 2000
        fm, aux, _ = synth_dataset(n=n + 128, d=6, c=2, sep=4.0, label_noise=0.0, seed=18)
        model, _ = trainer.fit(fm, aux, np.arange(n), r=4, d_prime=8, hidden=8,
                               cfg=TrainConfig(epochs=1, lr=1e-3, seed=18))
        panel_of(monkeypatch, model, 16)
        peaks = []
        for m in (16, 128):
            Xq, Yq = fm.data[:, n:n + m], aux.data[:, n:n + m]
            trainer.encode_queries(model, Xq, Yq)  # numpy's lazy imports happen outside the trace
            tracemalloc.start()
            try:
                trainer.encode_queries(model, Xq, Yq)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0], f"peaks {peaks} bytes for 16 and 128 queries"

    def test_training_item_roundtrips_through_inductive_rule(self, noisy_fits):
        # each training item encoded as a query, its own column added to the
        # training graph, mostly keeps its training code: measured 0.994-0.997
        # of bits and 0.90-0.95 of whole codes on the noisy setting
        for seed, fit in noisy_fits.items():
            bits, codes = inductive_agreement(*fit)
            assert bits >= 0.98 and codes >= 0.85, f"seed {seed}: bits {bits:.4f}, codes {codes:.4f}"

    def test_inductive_agreement_can_fail(self, noisy_fits):
        # without the cached first hop W H1 the queries lose the training
        # graph's second hop, and the agreement falls below both bounds
        for seed, (model, fm, aux, split) in noisy_fits.items():
            broken = dataclasses.replace(model, wh1_train=np.zeros_like(model.wh1_train))
            bits, codes = inductive_agreement(broken, fm, aux, split)
            assert bits < 0.98 and codes < 0.85, f"seed {seed}: bits {bits:.4f}, codes {codes:.4f}"

    def test_shape_errors(self):
        _, _, _, model, _ = tiny_fit(seed=14)
        with pytest.raises(ShapeError):
            trainer.encode_queries(model, np.ones((5, 2)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            trainer.encode_queries(model, np.ones((6, 2)), np.ones((3, 2)))

    def test_nonfinite_query_names_position(self):
        fm, aux, split, model, _ = tiny_fit(seed=14)
        Xq, Yq = fm.data[:, split.query].copy(), aux.data[:, split.query].copy()
        Xq[2, 3] = np.nan
        with pytest.raises(DataError, match="features value at row 2, column 3"):
            trainer.encode_queries(model, Xq, Yq)
        Xq[2, 3] = 0.0
        Yq[1, 0] = np.inf
        with pytest.raises(DataError, match="aux value at row 1, column 0"):
            trainer.encode_queries(model, Xq, Yq)

    @pytest.mark.parametrize("value", [0.5, -3.0, 2.0])
    def test_query_tags_that_are_not_binary(self, value):
        # the message of AuxSemantics: fractional tags would encode into fractional tag counts
        fm, aux, split, model, _ = tiny_fit(seed=14)
        Yq = aux.data[:, split.query].copy()
        Yq[1, 2] = value
        with pytest.raises(DataError, match="^query aux entry at row 1, column 2 is not 0/1$"):
            trainer.encode_queries(model, fm.data[:, split.query], Yq)

    def test_variant_encoding_runs(self, variant_models):
        for variant in cli._VARIANTS:
            fm, aux, split, model, _ = variant_models[variant]
            codes = trainer.encode_queries(model, fm.data[:, split.query], aux.data[:, split.query])
            assert codes.shape == (4, 4)


def inductive_agreement(model, fm, aux, split):
    """(share of bits, share of whole codes) where the inductive codes of the
    training items equal their training codes."""
    train = retrieval.unpack(trainer.encode_train(model, fm.data[:, split.train], aux.data[:, split.train]))
    inductive = trainer.encode_queries(model, fm.data[:, split.train], aux.data[:, split.train])
    same = inductive == train
    return same.mean(), same.all(axis=0).mean()


@pytest.fixture(scope="module")
def noisy_fits():
    """seed -> (model, features, aux, split) of the full model in the acceptance
    gates' noisy setting, at seeds 1, 2 and 3."""
    fits = {}
    for seed in (1, 2, 3):
        fm, aux, _ = synth_dataset(n=600, d=32, c=4, sep=2.0, label_noise=0.1, seed=seed)
        split = make_split(600, (300, 150), seed=seed)
        model, _ = trainer.fit(fm, aux, split.train, r=16, d_prime=64, hidden=128,
                               cfg=TrainConfig(epochs=150, lr=1e-3, seed=seed))
        fits[seed] = (model, fm, aux, split)
    return fits


@pytest.fixture(scope="module")
def variant_models():
    """--variant -> tiny_fit's (features, aux, split, model, history) under that variant.

    "basis" is the default variant at d' = 32 > d + c, which fit re-expresses
    in the k = d + c coordinates of the projections' span.
    """
    models = {}
    for variant, flags in [(v, ("--variant", v)) for v in cli._VARIANTS] + [("basis", ("--d-prime", "32"))]:
        models[variant] = flags_fit(20, *flags)
    return models


@pytest.fixture(scope="module")
def saved_checkpoint(tmp_path_factory, variant_models):
    """The bytes of a saved model, and a path for damaged copies."""
    model = variant_models["no-aux"][3]
    path = tmp_path_factory.mktemp("checkpoint") / "model.bin"
    trainer.save_model(path, model)
    return path.read_bytes(), path.with_name("cut.bin")


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        _, _, _, model, _ = tiny_fit(seed=16)
        p = tmp_path / "model.bin"
        trainer.save_model(p, model)
        back = trainer.load_model(p)
        assert np.array_equal(back.gcn.W1, model.gcn.W1)
        assert np.array_equal(back.z_train, model.z_train)
        assert back.graph_cfg == model.graph_cfg
        assert back.use_attention is model.use_attention
        assert back.graph_cfg.bandwidth == model.graph_cfg.bandwidth
        assert back.r == model.r

    @pytest.mark.parametrize("flags", [["--variant", v] for v in cli._VARIANTS] + [
        pytest.param(["--d-prime", "32"], id="basis"),
    ], ids=lambda flags: flags[-1].lstrip("-"))
    def test_round_trip_preserves_query_codes(self, tmp_path, flags):
        fm, aux, split, model, _ = flags_fit(17, *flags)
        p, resaved = tmp_path / "model.bin", tmp_path / "resaved.bin"
        trainer.save_model(p, model)
        back = trainer.load_model(p)
        trainer.save_model(resaved, back)
        assert resaved.read_bytes() == p.read_bytes()
        assert {name: a.dtype for name, a in model_arrays(back).items()} == {
            name: a.dtype for name, a in model_arrays(model).items()}
        Xq, Yq = fm.data[:, split.query], aux.data[:, split.query]
        codes, z = encode_pre_sign(model, Xq, Yq)
        back_codes, back_z = encode_pre_sign(back, Xq, Yq)
        assert np.array_equal(codes, back_codes)
        assert z.dtype == back_z.dtype and z.tobytes() == back_z.tobytes()

    def edited(self, tmp_path, edit):
        """The checkpoint of a tiny model after edit(arrays, meta) changed its contents."""
        _, _, _, model, _ = tiny_fit(seed=18)
        p = tmp_path / "model.bin"
        trainer.save_model(p, model)
        arrays, meta = read_checkpoint(p)
        edit(arrays, meta)
        net.save_arrays(p, list(arrays.values()), meta)
        return p

    def test_missing_array_or_unknown_meta_key(self, tmp_path):
        # the tiny model's nine arrays hold 464 floats, W1 64 of them
        p = self.edited(tmp_path, lambda arrays, meta: arrays.pop("W1"))
        with pytest.raises(FormatError, match="payload has 3200 bytes, its shapes need 3712"):
            trainer.load_model(p)
        p = self.edited(tmp_path, lambda arrays, meta: meta["graph"].update(batch=None))
        with pytest.raises(FormatError, match="unknown checkpoint graph setting 'batch'"):
            trainer.load_model(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.pop("dims"), "checkpoint has no meta key 'dims'"),
        (lambda meta: meta.update(r=4), "unknown checkpoint meta key 'r'"),
        (lambda meta: meta["dims"].pop("h"), "checkpoint has no dimension 'h'"),
        (lambda meta: meta["dims"].update({"d'": 3}), "unknown checkpoint dimension \"d'\""),
        (lambda meta: meta.update(dims=[2, 6, 8, 8, 16, 4]), "malformed checkpoint meta"),
    ], ids=["no-dims", "unknown-key", "no-dimension", "unknown-dimension", "dims-not-object"])
    def test_missing_or_unknown_dimension_or_meta_key(self, tmp_path, edit, message):
        p = self.edited(tmp_path, lambda arrays, meta: edit(meta))
        with pytest.raises(FormatError, match=re.escape(f"{p}: {message}")):
            trainer.load_model(p)

    @pytest.mark.parametrize("size", [4.0, "4", True, False, None, 0, -4, [4]], ids=repr)
    def test_dims_must_be_integers_of_at_least_1(self, tmp_path, size):
        p = self.edited(tmp_path, lambda arrays, meta: meta["dims"].update(r=size))
        message = f"{p}: checkpoint dimension 'r' must be an integer >= 1, got {size!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            trainer.load_model(p)

    @pytest.mark.parametrize("name, shape, expected", [
        ("P_x", (8,), ("k", "d")), ("P_y", (7, 2), (8, 2)), ("W1", (8, 7), (8, 8)),
        ("W2", (4, 9), (4, 8)), ("xatt_train", (7, 16), (8, 16)), ("wh1_train", (4, 15), (4, 16)),
        ("z_train", (3, 16), (4, 16)), ("degrees", (15,), (16,)), ("degrees", (16, 1), (16,)),
        ("y_train", (2, 17), (2, 16)), ("y_train", (3, 16), (2, 16)),
    ], ids=str)
    def test_array_shapes_must_agree(self, tmp_path, name, shape, expected):
        # the file stores sizes, not shapes: an array written at `shape` is refused when it holds
        # another number of values than the dims give it, and otherwise read at the dims' shape
        values = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        p = self.edited(tmp_path, lambda arrays, meta: arrays.update({name: values}))
        if values.size != np.prod([TINY_DIMS[symbol] for symbol in trainer._SHAPES[name]]):
            with pytest.raises(FormatError, match=re.escape(f"{p}: checkpoint payload has ")):
                trainer.load_model(p)
        else:
            loaded = getattr(trainer.load_model(p), name)
            assert loaded.shape == expected and np.array_equal(loaded, values.ravel())

    @pytest.mark.parametrize("edit", [
        lambda arrays, meta: arrays.update(y_train=np.ones(arrays["y_train"].size + 1)),
        lambda arrays, meta: meta["dims"].update(n=17),
        lambda arrays, meta: meta["dims"].update(h=2**40, r=2**40),
    ], ids=["one-float-long", "dims-beyond-payload", "dims-beyond-memory"])
    def test_payload_length_must_match_dims(self, tmp_path, edit):
        p = self.edited(tmp_path, edit)
        with pytest.raises(FormatError, match=re.escape(f"{p}: checkpoint payload has ")):
            trainer.load_model(p)

    @pytest.mark.parametrize("name, value", [
        ("P_x", np.nan), ("P_y", np.inf), ("W1", np.nan), ("W2", -np.inf), ("xatt_train", np.nan),
        ("wh1_train", np.inf), ("z_train", np.nan), ("degrees", np.nan), ("y_train", -np.inf),
        ("W1", 1e300), ("degrees", 1e39),  # finite on disk, beyond float32 where fit computes them
        # a signalling NaN (quiet bit clear), as one flipped exponent bit can make: its cast is "invalid"
        ("W2", np.frombuffer(bytes.fromhex("010000000000f07f"), "<f8")[0]),
    ], ids=str)
    def test_non_finite_array_is_format_error(self, tmp_path, name, value):
        p = self.edited(tmp_path, lambda arrays, meta: arrays[name].flat.__setitem__(-1, value))
        with pytest.raises(FormatError, match=re.escape(f"{p}: checkpoint array {name!r} is not finite")):
            trainer.load_model(p)

    @pytest.mark.parametrize("name, value, message", [
        ("degrees", -1e-12, "'degrees' has a negative entry"),
        ("y_train", 0.5, "'y_train' has an entry that is not 0 or 1"),
        ("y_train", -1.0, "'y_train' has an entry that is not 0 or 1"),
    ], ids=str)
    def test_entry_fit_cannot_produce_is_format_error(self, tmp_path, name, value, message):
        p = self.edited(tmp_path, lambda arrays, meta: arrays[name].flat.__setitem__(-1, value))
        with pytest.raises(FormatError, match=re.escape(f"{p}: checkpoint array {message}")):
            trainer.load_model(p)

    def test_zero_degree_loads(self, tmp_path):
        # an item with no edges has degree 0; the graph normalization maps it to 0, not inf
        p = self.edited(tmp_path, lambda arrays, meta: arrays["degrees"].__setitem__(0, 0.0))
        assert trainer.load_model(p).degrees[0] == 0.0

    def test_saved_state_is_what_encoding_reads(self, tmp_path):
        # header, the meta, then the nine arrays in table order as float64 and nothing after them
        _, _, _, model, _ = tiny_fit(seed=18)
        p = tmp_path / "model.bin"
        trainer.save_model(p, model)
        meta = read_checkpoint(p)[1]
        assert sorted(meta) == ["dims", "graph", "use_attention"]
        assert meta["dims"] == TINY_DIMS
        raw = json.dumps(meta, sort_keys=True).encode()
        arrays = [model.attention.P_x, model.attention.P_y, model.gcn.W1, model.gcn.W2, model.xatt_train,
                  model.wh1_train, model.z_train, model.degrees, model.y_train]
        assert list(trainer._SHAPES) == ["P_x", "P_y", "W1", "W2", "xatt_train", "wh1_train",
                                         "z_train", "degrees", "y_train"]
        assert p.read_bytes() == (b"AGCK" + struct.pack("<II", 7, len(raw)) + raw
                                  + b"".join(a.astype("<f8").tobytes() for a in arrays))

    @pytest.mark.parametrize("edit, error, message", [
        (lambda meta: meta.update(use_attention="no"), FormatError,
         "use_attention must be true or false, got 'no'"),
        (lambda meta: meta.update(use_attention=1), FormatError,
         "use_attention must be true or false, got 1"),
        (lambda meta: meta["graph"].update(mu="x"), ParameterError, "mu must be a real number, got 'x'"),
        (lambda meta: meta["graph"].update(mu=True), ParameterError, "mu must be a real number, got True"),
        (lambda meta: meta["graph"].update(variant="bogus"), ParameterError,
         "unknown graph variant 'bogus'"),
        (lambda meta: meta["graph"].update(bandwidth=-1), ParameterError,
         "fixed bandwidth must be > 0, got -1"),
    ], ids=["use-attention-string", "use-attention-integer", "mu-string", "mu-true", "variant-bogus",
            "bandwidth-negative"])
    def test_meta_of_the_wrong_type(self, tmp_path, edit, error, message):
        p = self.edited(tmp_path, lambda arrays, meta: edit(meta))
        with pytest.raises(error, match=re.escape(f"{p}: ") + ".*" + re.escape(message)):
            trainer.load_model(p)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_checkpoint_is_format_error(self, saved_checkpoint, data):
        saved, cut = saved_checkpoint
        cut.write_bytes(saved[:data.draw(st.integers(0, len(saved) - 1), label="size")])
        with pytest.raises(FormatError):
            trainer.load_model(cut)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_flipped_bit_loads_or_is_one_error(self, saved_checkpoint, data):
        saved, flipped = saved_checkpoint
        bit = data.draw(st.integers(0, 8 * len(saved) - 1), label="bit")
        raw = bytearray(saved)
        raw[bit // 8] ^= 1 << (bit % 8)
        flipped.write_bytes(bytes(raw))
        try:
            trainer.load_model(flipped)
        except AghashError:
            pass

    @pytest.mark.parametrize("version", [1, 3, 4, 5, 6])
    def test_version_1_checkpoint_rejected(self, tmp_path, version):
        _, _, _, model, _ = tiny_fit(seed=18)
        p = tmp_path / "model.bin"
        trainer.save_model(p, model)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", version)
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"unsupported checkpoint version {version}"):
            trainer.load_model(p)

    def test_save_is_byte_deterministic(self, tmp_path):
        _, _, _, m1, _ = tiny_fit(seed=18)
        _, _, _, m2, _ = tiny_fit(seed=18)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        trainer.save_model(p1, m1)
        trainer.save_model(p2, m2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_train_log_format(self, tmp_path):
        _, _, _, _, history = tiny_fit(seed=19)
        p = tmp_path / "log.csv"
        trainer.write_train_log(p, history)
        lines = p.read_text().splitlines()
        assert lines[0] == "epoch,l_recons"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(history[0], rel=1e-9)


def _sized_calls():
    """name -> (a library call with one size argument, the error it raises)."""
    fm, aux, _ = synth_dataset(n=24, d=6, c=2, sep=4.0, label_noise=0.0, seed=0)
    codes = retrieval.pack(np.ones((4, 6)))
    labels = np.ones((2, 6))

    def fit(**size):
        return lambda: trainer.fit(fm, aux, np.arange(16), **{"r": 4, "d_prime": 8, "hidden": 8, **size},
                                   cfg=TrainConfig(epochs=1))

    def evaluate(**size):
        return lambda: retrieval.evaluate(codes, codes, labels, labels, **{"K": 3, "curve_points": (1,), **size})

    def synth(**size):
        return lambda: synth_dataset(**{"n": 10, "d": 3, "c": 2, **size}, sep=1.0, label_noise=0.0, seed=0)

    def split(n=10, sizes=(4, 2)):
        return lambda: make_split(n, sizes, seed=0)

    def integer(name, value):
        return ParameterError, rf"^{name} must be an integer( >= [01])?, got {value}$"

    return {
        "synth-n": (synth(n=10.5), integer("n", 10.5)), "synth-d": (synth(d=3.0), integer("d", 3.0)),
        "synth-c": (synth(c=2.5), integer("c", 2.5)), "split-n": (split(n=10.0), integer("n", 10.0)),
        "split-train": (split(sizes=(4.0, 2)), integer("train size", 4.0)),
        "split-query": (split(sizes=(4, 2.5)), integer("query size", 2.5)),
        "fit-r": (fit(r=4.5), integer("r", 4.5)), "fit-hidden": (fit(hidden=8.0), integer("hidden", 8.0)),
        "fit-d-prime-bool": (fit(d_prime=True), integer("d_prime", True)),
        "evaluate-K": (evaluate(K=2.5), integer("K", 2.5)),
        "evaluate-curve": (evaluate(curve_points=(1.5,)), integer("curve point", 1.5)),
        # values below 1 keep their error types
        "synth-c-zero": (synth(c=0), integer("c", 0)),
        "split-negative": (split(sizes=(-1, 2)), integer("train size", -1)),
        "fit-r-zero": (fit(r=0), (ShapeError, "^r must be >= 1, got 0$")),
        "evaluate-K-zero": (evaluate(K=0), (ParameterError, "^K must be >= 1, got 0$")),
    }


@pytest.mark.parametrize("case", list(_sized_calls()))
def test_size_arguments_are_checked(case):
    call, (error, message) = _sized_calls()[case]
    with pytest.raises(error, match=message):
        call()
