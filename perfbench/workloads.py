"""The four benchmark workloads and the measurements taken around them.

Each run is one closed-loop client: it issues the next library call only
after the previous one returns. A run has two timed parts:

- set-up, repeated `setup_reps` times and reported as its median (`setup_s`);
- the pipeline, fixed work repeated until the run has measured for
  `--seconds`, reported as the median of its repetitions (`pipeline_s`).

A traced run traces the last set-up and one pipeline, then repeats both with
tracing off; the difference in wall time is the tracing overhead.

Library functions are always looked up on their module at call time
(`trainer.fit`, not a name imported once), so the tracer's wrappers apply.
"""

import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from aghash import cli, data, retrieval, trainer
from aghash.errors import AghashError

import checks
import tracing

K = 100
N_QUERY = 500
NOISY = {"sep": 2.0, "label_noise": 0.1}  # does not saturate MAP@100


class Aborted(Exception):
    """A library call failed; the run cannot go on."""


class Ops:
    """Operations attempted and failed. A failed check fails its operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.errors = []

    def call(self, label, fn, *args, **kwargs):
        """(op id, result) of one library call."""
        self.attempted += 1
        op = self.attempted
        try:
            return op, fn(*args, **kwargs)
        except AghashError as exc:
            self.fail(op, f"{label}: {type(exc).__name__}: {exc}")
            raise Aborted(label) from exc

    def check(self, op, ok, message):
        if not ok:
            self.fail(op, message)

    def fail(self, op, message):
        self.failed.add(op)
        self.errors.append(message)


@dataclass
class Output:
    """What one pipeline produced, kept for the checks."""

    query: retrieval.HashCodes
    db: retrieval.HashCodes
    query_labels: np.ndarray
    db_labels: np.ndarray
    map_at_k: float
    map_op: int
    ranks: list = field(default_factory=list)  # (op, query index, order) of single rank calls
    encoded: bool = True  # codes came from the model, not from the generator
    epoch_marks: list = field(default_factory=list)


def _read_json(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _signs_check(ops, op, B, what):
    ops.check(op, checks.all_signs(B), f"{what}: codes outside {{-1,+1}}")


def _encode_evaluate(ops, model, features, aux, truth, split):
    codes = []
    for idx in (split.query, split.retrieval):
        op, B = ops.call("encode_queries", trainer.encode_queries, model,
                         features.data[:, idx], aux.data[:, idx])
        _signs_check(ops, op, B, "encode_queries")
        codes.append(ops.call("pack", retrieval.pack, B)[1])
    ql, dl = truth.data[:, split.query], truth.data[:, split.retrieval]
    op, report = ops.call("evaluate", retrieval.evaluate, codes[0], codes[1], ql, dl, K=K)
    return Output(codes[0], codes[1], ql, dl, report.map_at_k, op)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    setup_reps = 7

    def collect(self, out):
        """The pipeline's Output, built after timing ends."""
        return out

    def quality(self, seed, ops, first):
        """MAP@100 reported for the run: the pipeline's own by default."""
        return first.map_at_k


class ModelWorkload(Workload):
    """In-memory fit -> encode_queries -> evaluate at the acceptance dimensions."""

    setup_reps = 15  # a set-up takes tens of milliseconds

    def __init__(self, n_train, n_db, epochs):
        self.n_train, self.n_db, self.epochs = n_train, n_db, epochs

    def setup(self, seed, workdir, ops):
        n = self.n_train + N_QUERY + self.n_db
        features, aux, truth = data.synth_dataset(n, 128, 4, seed=seed, **NOISY)
        split = data.make_split(n, (self.n_train, N_QUERY), seed,
                                include_train_in_retrieval=False)
        return features, aux, truth, split

    def pipeline(self, inputs, ops, seed, workdir):
        features, aux, truth, split = inputs
        marks = []
        cfg = trainer.TrainConfig(epochs=self.epochs, lr=1e-3, seed=seed)
        _, (model, _) = ops.call(
            "fit", trainer.fit, features, aux, split.train, r=16, d_prime=512, hidden=1024,
            cfg=cfg, epoch_callback=lambda epoch, losses: marks.append(time.perf_counter()))
        out = _encode_evaluate(ops, model, features, aux, truth, split)
        out.epoch_marks = marks
        return out

    def quality(self, seed, ops, first):
        """MAP@100 of two small noisy-setting models, trained through the same API.

        A few epochs at the acceptance dimensions leave the codes collapsed or
        not depending on the seed, so the pipeline's own MAP is not a steady
        quality measure.
        """
        maps = []
        for probe_seed in (2 * seed, 2 * seed + 1):
            features, aux, truth = data.synth_dataset(600, 32, 4, seed=probe_seed, **NOISY)
            split = data.make_split(600, (300, 150), probe_seed)
            cfg = trainer.TrainConfig(epochs=150, lr=1e-3, seed=probe_seed)
            _, (model, _) = ops.call("probe fit", trainer.fit, features, aux, split.train,
                                     r=16, d_prime=64, hidden=128, cfg=cfg)
            out = _encode_evaluate(ops, model, features, aux, truth, split)
            check_map(ops, out, "probe")
            maps.append(out.map_at_k)
        return statistics.fmean(maps)


class SearchWorkload(Workload):
    """Retrieval only: clustered 64-bit codes over a 100k database.

    Class centres are rows of a 64 x 64 Sylvester-Hadamard matrix, so every
    pair of centres differs in exactly 32 bits and MAP does not depend on how
    close the seed happened to draw two centres; the seed picks the rows and
    XORs one random mask into all of them.
    """

    n_db, n_query, n_classes, r, flip = 100_000, 200, 10, 64, 0.33
    n_rank, n_checked = 1000, 20

    def setup(self, seed, workdir, ops):
        rng = np.random.default_rng(seed)
        hadamard = np.ones((1, 1), dtype=np.int64)
        while hadamard.shape[0] < self.r:
            hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
        rows = rng.choice(self.r, size=self.n_classes, replace=False)
        centers = (hadamard[rows] < 0) ^ rng.integers(0, 2, size=self.r).astype(bool)
        made = []
        for n in (self.n_query, self.n_db):
            labels = rng.integers(0, self.n_classes, size=n)
            bits = centers[labels] ^ (rng.random((n, self.r)) < self.flip)
            onehot = np.zeros((self.n_classes, n))
            onehot[labels, np.arange(n)] = 1.0
            made.append((retrieval.pack((2.0 * bits - 1.0).T), onehot))
        return made

    def pipeline(self, inputs, ops, seed, workdir):
        (query, ql), (db, dl) = inputs
        ranks = []
        for i in range(self.n_rank):
            qi = i % query.n
            op, order = ops.call("rank", retrieval.rank, query.packed[qi], db)
            if i < self.n_checked:
                ranks.append((op, qi, order))
        op, report = ops.call("evaluate", retrieval.evaluate, query, db, ql, dl, K=K)
        return Output(query, db, ql, dl, report.map_at_k, op, ranks, encoded=False)


class CliWorkload(Workload):
    """The README command-line pipeline, in process, from text files."""

    setup_reps = 5
    n, n_train = 6000, 500

    def _main(self, ops, argv, what):
        op, rc = ops.call(what, cli.main, argv + ["--threads", "1"])
        ops.check(op, rc == 0, f"aghash {what} exited with {rc}")
        return op

    def _completed(self, ops, op, path):
        status = _read_json(path).get("status") if os.path.exists(path) else None
        ops.check(op, status == "completed", f"{path}: manifest status {status!r}")

    def setup(self, seed, workdir, ops):
        out = os.path.join(workdir, "data")
        os.makedirs(out, exist_ok=True)
        op = self._main(ops, ["synth", "--out", out, "--n", str(self.n), "--d", "128",
                              "--c", "4", "--sep", str(NOISY["sep"]),
                              "--noise", str(NOISY["label_noise"]),
                              "--train-size", str(self.n_train),
                              "--query-size", str(N_QUERY), "--seed", str(seed)], "synth")
        self._completed(ops, op, os.path.join(out, "manifest.json"))
        return out

    def pipeline(self, src, ops, seed, workdir):
        out = os.path.join(workdir, "run")
        os.makedirs(out, exist_ok=True)
        inputs = ["--features", f"{src}/features.txt", "--aux", f"{src}/aux.txt",
                  "--split", f"{src}/split.json"]
        op = self._main(ops, ["train", *inputs, "--out", out, "--r", "16", "--d-prime", "64",
                              "--hidden", "128", "--epochs", "60", "--lr", "1e-3",
                              "--seed", str(seed)], "train")
        self._completed(ops, op, f"{out}/manifest.json")
        for subset, codes, labels in (("query", "query.codes", "qlabels.txt"),
                                      ("retrieval", "db.codes", "dblabels.txt")):
            op = self._main(ops, ["encode", "--checkpoint", f"{out}/checkpoint.bin", *inputs,
                                  "--subset", subset, "--out", f"{out}/{codes}",
                                  "--labels", f"{src}/labels.txt",
                                  "--labels-out", f"{out}/{labels}"], f"encode {subset}")
            self._completed(ops, op, f"{out}/{codes}.manifest.json")
        op = self._main(ops, ["evaluate", "--query-codes", f"{out}/query.codes",
                              "--db-codes", f"{out}/db.codes",
                              "--query-labels", f"{out}/qlabels.txt",
                              "--db-labels", f"{out}/dblabels.txt",
                              "--k", str(K), "--out-prefix", f"{out}/report"], "evaluate")
        self._completed(ops, op, f"{out}/report.manifest.json")
        return out, op

    def collect(self, result):
        # the written files are read back by the checks module, not by the library
        out, op = result
        sets = []
        for codes, labels in (("query.codes", "qlabels.txt"), ("db.codes", "dblabels.txt")):
            packed, r = checks.read_codes_file(f"{out}/{codes}")
            sets.append((retrieval.HashCodes(packed, r, [str(i) for i in range(len(packed))]),
                         checks.read_label_file(f"{out}/{labels}")))
        (query, ql), (db, dl) = sets
        return Output(query, db, ql, dl, _read_json(f"{out}/report.json")["map_at_k"], op)


WORKLOADS = {
    "train-n1000": ModelWorkload(n_train=1000, n_db=1500, epochs=12),
    "graph-n3000": ModelWorkload(n_train=3000, n_db=4000, epochs=2),
    "search-100k": SearchWorkload(),
    "cli-files": CliWorkload(),
}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_map(ops, out, what):
    ok, oracle = checks.map_matches(
        out.map_at_k, checks.signs_from_packed(out.query.packed, out.query.r),
        checks.signs_from_packed(out.db.packed, out.db.r), out.query_labels, out.db_labels, K)
    ops.check(out.map_op, ok, f"{what}: MAP@{K} {out.map_at_k!r} != brute force {oracle!r}")


def check_output(out, ops):
    q_signs = checks.signs_from_packed(out.query.packed, out.query.r)
    db_signs = checks.signs_from_packed(out.db.packed, out.db.r)
    for what, S in (("query", q_signs), ("db", db_signs)):
        _signs_check(ops, out.map_op, S, f"unpacked {what} codes")
    for op, qi, order in out.ranks:
        ops.check(op, checks.rank_matches(order, q_signs[qi], db_signs),
                  f"rank of query {qi} differs from the brute-force order")
    check_map(ops, out, "evaluate")


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _timed(wl, seed, ops, workdir, setup_reps, min_seconds, tracer=None):
    """Set-up reps, then pipelines until min_seconds have passed (at least one).

    With a tracer, traces the last set-up and the pipelines.
    Returns (setup times, pipeline times, first output, traced wall time).
    """
    setup_times, pipeline_times = [], []
    for rep in range(setup_reps):
        if tracer is not None and rep == setup_reps - 1:
            tracer.install()
            window = time.perf_counter()
        start = time.perf_counter()
        inputs = wl.setup(seed, workdir, ops)
        setup_times.append(time.perf_counter() - start)
    first = None
    begin = time.perf_counter()
    while first is None or time.perf_counter() - begin < min_seconds:
        start = time.perf_counter()
        out = wl.pipeline(inputs, ops, seed, workdir)
        pipeline_times.append(time.perf_counter() - start)
        first = first or wl.collect(out)
    traced_s = None
    if tracer is not None:
        traced_s = time.perf_counter() - window
        tracer.uninstall()
    return setup_times, pipeline_times, first, traced_s


def _distinct_codes(out):
    if not out.encoded:
        return 0, 0
    packed = np.concatenate([out.query.packed, out.db.packed])
    return len(np.unique(packed, axis=0)), len(packed)


def run(name, seed, seconds, trace, workdir):
    """Run one workload; returns (correct, attempted, failed, metrics, detail, spans)."""
    wl = WORKLOADS[name]
    ops = Ops()
    workdir = os.path.join(workdir, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    metrics, spans, detail = {}, [], {}
    try:
        if trace:
            tracer = tracing.Tracer()
            _, _, first, traced_s = _timed(wl, seed, ops, workdir, wl.setup_reps, 0, tracer)
            start = time.perf_counter()
            _timed(wl, seed, ops, workdir, 1, 0)
            overhead_s = traced_s - (time.perf_counter() - start)
            metrics = tracing.per_layer_metrics(tracer.spans, traced_s, overhead_s,
                                                first.epoch_marks, *_distinct_codes(first))
            spans = tracing.dump(tracer.spans)
        else:
            setup_times, pipeline_times, first, _ = _timed(
                wl, seed, ops, workdir, wl.setup_reps, seconds)
            peak_rss = tracing.maxrss_mb()
            metrics = {
                "setup_s": statistics.median(setup_times),
                "pipeline_s": statistics.median(pipeline_times),
                "peak_rss_mb": peak_rss,
                "map_at_100": wl.quality(seed, ops, first),
            }
            detail = {"setup_runs": len(setup_times), "pipeline_times": pipeline_times,
                      "pipeline_map_at_100": first.map_at_k}
        check_output(first, ops)
    except Aborted:
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["errors"] = ops.errors
    correct = not ops.failed and bool(metrics)
    return correct, ops.attempted, len(ops.failed), metrics, detail, spans
