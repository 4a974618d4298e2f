"""Acceptance gate: one printed pass/fail line per criterion.

Each test exercises a pinned scenario with frozen tolerances and reports a
single line to the terminal even under output capture.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from aghash import cli
from aghash import graph as sg
from aghash import network as net
from aghash import retrieval as rt
from aghash import trainer
from aghash.data import make_split, synth_dataset
from aghash.graph import GraphConfig
from aghash.trainer import TrainConfig

from conftest import backprop, central_diff, small_instance


def report(capfd, name, ok, detail):
    with capfd.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _entry_rel_err(a, b, floor=1e-7):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / scale


def grad_check(analytic, f, base, eps=1e-4, tol=1e-4):
    """Worst relative error vs central differences over differentiable entries.

    Entries where the difference quotient has not converged (values at eps and
    eps/5 disagree) sit on a ReLU/clip kink where the one-sided derivatives
    differ; finite differences are meaningless there, so those entries are
    excluded. Returns (worst error, number of excluded entries).
    """
    fd = central_diff(f, base, eps=eps)
    err = _entry_rel_err(np.asarray(analytic, dtype=np.float64), fd)
    kinks = 0
    for idx in zip(*np.nonzero(err > tol)):
        flat = base.copy()
        plus = flat.copy()
        plus[idx] += eps / 5
        minus = flat.copy()
        minus[idx] -= eps / 5
        fd_small = (f(plus) - f(minus)) / (2 * eps / 5)
        if _entry_rel_err(np.asarray(fd[idx]), np.asarray(fd_small)) > tol:
            kinks += 1
            err[idx] = 0.0
    return float(err.max()), kinks


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------


def test_gradient_suite(capfd):
    start = time.perf_counter()
    worst = 0.0
    kinks_total = 0
    for seed in range(20):
        inst = small_instance(seed)

        def loss(gcn=None, head=None):
            bd, _ = backprop(inst, gcn=gcn, head=head)
            return bd.total

        _, grads = backprop(inst)
        checks = [
            (grads["W1"], lambda P: loss(gcn=net.GcnParams(W1=P, W2=inst.gcn.W2)), inst.gcn.W1),
            (grads["W2"], lambda P: loss(gcn=net.GcnParams(W1=inst.gcn.W1, W2=P)), inst.gcn.W2),
            (grads["Wc"], lambda P: loss(head=net.ClsHead(Wc=P)), inst.head.Wc),
        ]
        for analytic, f, base in checks:
            err, kinks = grad_check(analytic, f, base)
            worst = max(worst, err)
            kinks_total += kinks
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 120.0
    report(capfd, "gradient-suite", ok,
           f"20 instances, max relative error {worst:.3g} (< 1e-4) with "
           f"{kinks_total} kink entries excluded, {elapsed:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# 2. graph equation unit checks
# ---------------------------------------------------------------------------


def test_equation_unit_checks(capfd):
    sigma = 0.9
    X = np.array([[0.0, sigma * np.sqrt(2.0)]])
    Sv, _ = sg.visual_similarity(X, bandwidth=sigma)
    kernel_ok = abs(Sv[0, 1] - np.exp(-1.0)) <= 1e-12

    rng = np.random.default_rng(0)
    Y = (rng.random((4, 10)) < 0.5).astype(float)
    Sa = sg.similarity(np.zeros((1, 10)), Y, sg.GraphConfig(variant="aux-only"))[0]
    inner_ok = all(
        Sa[i, j] == float(sum(int(Y[k, i]) * int(Y[k, j]) for k in range(4)))
        for i in range(10) for j in range(10)
    )

    n = 7
    St, _ = sg.normalize(np.ones((n, n)))
    ones_ok = np.abs(St - 1.0 / n).max() <= 1e-12

    eig_ok = True
    for _ in range(50):
        A = rng.random((20, 20))
        St, _ = sg.normalize(A + A.T)
        if np.linalg.eigvalsh(St).max() > 1.0 + 1e-8:
            eig_ok = False
            break

    ok = kernel_ok and inner_ok and ones_ok and eig_ok
    report(capfd, "equation-unit-checks", ok,
           f"kernel e^-1 {kernel_ok}, integer inner products {inner_ok}, "
           f"all-ones normalization {ones_ok}, spectral bound on 50 graphs {eig_ok}")


# ---------------------------------------------------------------------------
# 3. metric oracle
# ---------------------------------------------------------------------------


def _oracle_evaluate(Bq, Bd, Lq, Ld, K, points, denominator):
    """Brute-force MAP/precision from unpacked codes, python ints throughout."""
    r, nq = Bq.shape
    nd = Bd.shape[1]
    aps = []
    prec_sums = np.zeros(len(points))
    for qi in range(nq):
        dists = [sum(1 for b in range(r) if Bq[b, qi] != Bd[b, j]) for j in range(nd)]
        order = sorted(range(nd), key=lambda j: (dists[j], j))
        rel = [int(sum(int(Lq[k, qi]) * int(Ld[k, j]) for k in range(Lq.shape[0])) >= 1)
               for j in range(nd)]
        R = sum(rel)
        if R == 0:
            aps.append(0.0)
        else:
            hits = 0
            terms = []
            for pos, j in enumerate(order[:K], start=1):
                if rel[j]:
                    hits += 1
                    terms.append(hits / pos)
                else:
                    terms.append(0.0)
            denom = min(R, K) if denominator == "min" else R
            aps.append(float(np.asarray(terms).sum() / denom))
        for pi, kk in enumerate(points):
            top_hits = sum(rel[j] for j in order[:kk])
            prec_sums[pi] += np.float64(top_hits) / kk
    curve = [(kk, float(prec_sums[pi] / nq)) for pi, kk in enumerate(points)]
    return float(np.mean(aps)), aps, curve


def test_metric_oracle(capfd):
    rng = np.random.default_rng(100)
    mismatches = 0
    for case in range(100):
        nd = int(rng.integers(2, 51))
        nq = int(rng.integers(1, 6))
        # low r forces heavy distance ties
        r = int(rng.integers(1, 4)) if case % 3 == 0 else int(rng.integers(1, 17))
        c = int(rng.integers(1, 4))
        Bq = np.where(rng.random((r, nq)) < 0.5, 1.0, -1.0)
        Bd = np.where(rng.random((r, nd)) < 0.5, 1.0, -1.0)
        Lq = (rng.random((c, nq)) < 0.5).astype(float)
        Ld = (rng.random((c, nd)) < 0.5).astype(float)
        K = int(rng.integers(1, nd + 1))
        points = sorted(set(int(v) for v in rng.integers(1, nd + 1, size=3)))
        denominator = "min" if case % 2 == 0 else "full"
        rep = rt.evaluate(rt.pack(Bq), rt.pack(Bd), Lq, Ld, K=K,
                          curve_points=points, denominator=denominator)
        o_map, o_aps, o_curve = _oracle_evaluate(Bq, Bd, Lq, Ld, K, points, denominator)
        if rep.map_at_k != o_map or rep.per_query_ap != o_aps or rep.precision_curve != o_curve:
            mismatches += 1
    report(capfd, "metric-oracle", mismatches == 0,
           f"{100 - mismatches}/100 random instances match the brute-force scorer exactly")


# ---------------------------------------------------------------------------
# 4. end-to-end synthetic retrieval
# ---------------------------------------------------------------------------


def test_end_to_end_retrieval(capfd):
    fm, aux, truth = synth_dataset(n=2000, d=128, c=4, sep=10.0, label_noise=0.0, seed=11)
    split = make_split(2000, (1000, 500), seed=11)
    start = time.perf_counter()
    model, _ = trainer.fit(fm, aux, split.train, r=16, d_prime=512, hidden=1024,
                           cfg=TrainConfig(seed=11))
    train_time = time.perf_counter() - start

    Bq = trainer.encode_queries(model, fm.data[:, split.query], aux.data[:, split.query])
    Bd = trainer.encode_queries(model, fm.data[:, split.retrieval], aux.data[:, split.retrieval])
    rep = rt.evaluate(rt.pack(Bq), rt.pack(Bd),
                      truth.data[:, split.query], truth.data[:, split.retrieval], K=100)

    dists = (model.r - Bq.T @ Bd) / 2.0
    lq = truth.data[:, split.query].argmax(axis=0)
    ld = truth.data[:, split.retrieval].argmax(axis=0)
    same = lq[:, None] == ld[None, :]
    intra = float(dists[same].mean())
    inter = float(dists[~same].mean())

    ok = rep.map_at_k >= 0.95 and intra < inter and train_time < 300.0
    report(capfd, "end-to-end-retrieval", ok,
           f"MAP@100 = {rep.map_at_k:.4f} (>= 0.95), intra {intra:.2f} < inter {inter:.2f}, "
           f"trained in {train_time:.1f}s (< 300s)")


# ---------------------------------------------------------------------------
# 5. ablation directionality
# ---------------------------------------------------------------------------


def _noisy_setting(seed):
    """(features, aux, truth, split) of the noisy setting: n=600, sep 2, label noise 0.1."""
    fm, aux, truth = synth_dataset(n=600, d=32, c=4, sep=2.0, label_noise=0.1, seed=seed)
    return fm, aux, truth, make_split(600, (300, 150), seed=seed)


def _split_map(Bq, Bd, truth, split):
    """MAP@100 of query codes Bq against database codes Bd under the ground truth."""
    rep = rt.evaluate(rt.pack(Bq), rt.pack(Bd),
                      truth.data[:, split.query], truth.data[:, split.retrieval], K=100)
    return rep.map_at_k


def _ablation_map(fm, aux, truth, split, seed, variant):
    """MAP@100 of the model `aghash train --variant` trains in this setting."""
    graph_variant, use_attention = cli._VARIANTS[variant]
    model, _ = trainer.fit(
        fm, aux, split.train, r=16, d_prime=64, hidden=128, graph_cfg=GraphConfig(variant=graph_variant),
        cfg=TrainConfig(epochs=150, lr=1e-3, seed=seed), use_attention=use_attention,
    )
    Bq = trainer.encode_queries(model, fm.data[:, split.query], aux.data[:, split.query])
    Bd = trainer.encode_queries(model, fm.data[:, split.retrieval], aux.data[:, split.retrieval])
    return _split_map(Bq, Bd, truth, split)


@pytest.fixture(scope="module")
def noisy_full():
    """(seed, setting, MAP@100 of the full model) per noisy-setting seed. Two gates share the fits."""
    out = []
    for seed in (1, 2, 3):
        setting = _noisy_setting(seed)
        out.append((seed, setting, _ablation_map(*setting, seed, "full")))
    return out


def test_ablation_directionality(capfd, noisy_full):
    full, only_sv, no_aux = [], [], []
    for seed, setting, map_full in noisy_full:
        full.append(map_full)
        only_sv.append(_ablation_map(*setting, seed, "only-sv"))
        no_aux.append(_ablation_map(*setting, seed, "no-aux"))
    m_full, m_sv, m_na = np.mean(full), np.mean(only_sv), np.mean(no_aux)
    ok = (m_full - m_sv) >= 0.02 and (m_full - m_na) >= 0.02
    report(capfd, "ablation-directionality", ok,
           f"mean MAP full {m_full:.3f} vs only-sv {m_sv:.3f} and "
           f"no-aux {m_na:.3f} over 3 seeds (margins >= 0.02)")


# ---------------------------------------------------------------------------
# 5b. quality over baselines
# ---------------------------------------------------------------------------


def _tag_codes(Y, r=16):
    """The aux tags used directly as codes: each tag repeated to r bits, present +1, absent -1."""
    return np.repeat(np.where(Y > 0, 1.0, -1.0), r // Y.shape[0], axis=0)


def _itq_codes(train, items, r=16, iters=50, seed=0):
    """ITQ (Gong & Lazebnik, CVPR 2011): PCA to r dimensions, then the rotation
    that minimizes the quantization error, learned on the training columns."""
    mean = train.mean(axis=1, keepdims=True)
    P = np.linalg.svd(train - mean, full_matrices=False)[0][:, :r]
    V = P.T @ (train - mean)
    R = np.linalg.qr(np.random.default_rng(seed).standard_normal((r, r)))[0]
    for _ in range(iters):
        B = np.where(R.T @ V >= 0, 1.0, -1.0)
        U, _, Wt = np.linalg.svd(V @ B.T)
        R = U @ Wt
    return [np.where(R.T @ (P.T @ (X - mean)) >= 0, 1.0, -1.0) for X in items]


def test_quality_over_baselines(capfd, noisy_full):
    """The trained codes must beat hashing the model's own inputs on the same split.

    Measured before this gate existed (mean MAP@100 over seeds 1-3): the model
    0.602, the tags as codes 0.564, ITQ on [x; 3y] 0.362. Each bound is about
    40% of its margin: a model that no longer adds to its tags fails.
    """
    rows = []
    for _, (fm, aux, truth, split), map_full in noisy_full:
        q, db = split.query, split.retrieval
        map_tags = _split_map(_tag_codes(aux.data[:, q]), _tag_codes(aux.data[:, db]), truth, split)
        stacked = np.vstack([fm.data, 3.0 * aux.data])
        Bq, Bd = _itq_codes(stacked[:, split.train], (stacked[:, q], stacked[:, db]))
        rows.append((map_full, map_tags, _split_map(Bq, Bd, truth, split)))
    m_full, m_tags, m_itq = np.mean(rows, axis=0)
    each = all(full > max(tags, itq) for full, tags, itq in rows)
    ok = each and m_full - m_tags >= 0.015 and m_full - m_itq >= 0.1
    report(capfd, "quality-over-baselines", ok,
           f"mean MAP full {m_full:.3f} vs tags-as-codes {m_tags:.3f} (margin >= 0.015) and "
           f"ITQ on [x; 3y] {m_itq:.3f} (margin >= 0.1) over 3 seeds; "
           f"full beats both on every seed {each}")


# ---------------------------------------------------------------------------
# 6. epoch-curve shape
# ---------------------------------------------------------------------------


def _map_at_epochs(fm, aux, truth, split, epochs):
    model, _ = trainer.fit(fm, aux, split.train, r=16, d_prime=64, hidden=128,
                           cfg=TrainConfig(epochs=epochs, lr=1e-3, seed=21))
    Bq = trainer.encode_queries(model, fm.data[:, split.query], aux.data[:, split.query])
    Bd = trainer.encode_queries(model, fm.data[:, split.retrieval], aux.data[:, split.retrieval])
    rep = rt.evaluate(rt.pack(Bq), rt.pack(Bd),
                      truth.data[:, split.query], truth.data[:, split.retrieval], K=100)
    return rep.map_at_k


def test_epoch_curve_shape(capfd):
    fm, aux, truth = synth_dataset(n=600, d=32, c=4, sep=10.0, label_noise=0.0, seed=21)
    split = make_split(600, (300, 150), seed=21)
    map_300 = _map_at_epochs(fm, aux, truth, split, 300)
    map_1000 = _map_at_epochs(fm, aux, truth, split, 1000)
    # both fits must also clear the end-to-end bar, or two collapsed fits would pass
    ok = abs(map_300 - map_1000) <= 0.02 and min(map_300, map_1000) >= 0.95
    report(capfd, "epoch-curve-shape", ok,
           f"MAP@100 at 300 epochs {map_300:.4f} vs 1000 epochs {map_1000:.4f} "
           f"(|diff| <= 0.02, both >= 0.95)")


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------


def test_determinism(capfd, tmp_path):
    from aghash import cli

    data = tmp_path / "data"
    data.mkdir()
    assert cli.main(["synth", "--out", str(data), "--n", "60", "--d", "8", "--c", "2",
                     "--sep", "5", "--train-size", "40", "--query-size", "10",
                     "--seed", "5"]) == 0

    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        cmd = [sys.executable, "-m", "aghash.cli", "train", "--threads", "1",
               "--features", str(data / "features.txt"), "--aux", str(data / "aux.txt"),
               "--split", str(data / "split.json"), "--out", str(out),
               "--r", "8", "--d-prime", "16", "--hidden", "16",
               "--epochs", "20", "--lr", "1e-3", "--seed", "5"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "checkpoint.bin").read_bytes())
    ckpt_identical = outs[0] == outs[1]

    rng = np.random.default_rng(6)
    B = np.where(rng.random((48, 30)) < 0.5, 1.0, -1.0)
    pack_ok = np.array_equal(rt.unpack(rt.pack(B)), B)

    model = trainer.load_model(tmp_path / "a" / "checkpoint.bin")
    resaved = tmp_path / "resaved.bin"
    trainer.save_model(resaved, model)
    roundtrip_ok = resaved.read_bytes() == outs[0]

    ok = ckpt_identical and pack_ok and roundtrip_ok
    report(capfd, "determinism", ok,
           f"single-threaded checkpoints bit-identical {ckpt_identical}, "
           f"pack/unpack exact {pack_ok}, checkpoint save/load byte round trip {roundtrip_ok}")


# ---------------------------------------------------------------------------
# 8. ranking throughput
# ---------------------------------------------------------------------------


def test_ranking_throughput(capfd):
    rng = np.random.default_rng(7)
    db = rt.HashCodes(packed=rng.integers(0, 2**64, size=(100_000, 1), dtype=np.uint64), r=64)
    queries = rng.integers(0, 2**64, size=(1000, 1), dtype=np.uint64)
    start = time.perf_counter()
    checksum = 0
    for q in queries:
        checksum ^= int(rt.rank(q, db)[0])
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    report(capfd, "ranking-throughput", ok,
           f"1000 queries over 100k codes at r=64 in {elapsed:.2f}s (< 10s), checksum {checksum}")
