import argparse
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from aghash import cli, manifest, network, trainer
from aghash import retrieval as rt
from aghash.data import FeatureMatrix, load_aux, load_features, load_split, save_features
from aghash.trainer import load_model
from conftest import read_checkpoint


def run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> train -> encode run shared across the module."""
    root = tmp_path_factory.mktemp("pipeline")
    synth_args = [
        "synth", "--out", str(root), "--n", "60", "--d", "8", "--c", "2",
        "--sep", "6", "--train-size", "40", "--query-size", "10", "--seed", "3",
    ]
    assert cli.main(synth_args) == 0
    train_args = [
        "train", "--features", str(root / "features.txt"), "--aux", str(root / "aux.txt"),
        "--split", str(root / "split.json"), "--out", str(root),
        "--r", "8", "--d-prime", "16", "--hidden", "16",
        "--epochs", "5", "--lr", "1e-3", "--seed", "3",
    ]
    assert cli.main(train_args) == 0
    return root


class TestSynth:
    def test_outputs_exist(self, pipeline):
        for name in ("features.txt", "aux.txt", "labels.txt", "split.json", "manifest.json"):
            assert (pipeline / name).exists(), name

    def test_manifest_contents(self, pipeline):
        man = json.loads((pipeline / "manifest.json").read_text())
        assert man["command"] == "train"  # overwritten by the later train step
        assert man["status"] == "completed"
        assert man["seed"] == 3
        assert all(len(digest) == 64 for digest in man["outputs"].values())

    def test_missing_out_dir_is_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "nope"), "--n", "10",
                         "--d", "4", "--c", "2", "--train-size", "5", "--query-size", "2"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_binary_format(self, tmp_path):
        # the readers tell a binary features file by its magic: no later step names the format
        assert cli.main(["synth", "--out", str(tmp_path), "--n", "12", "--d", "4",
                         "--c", "2", "--train-size", "6", "--query-size", "3",
                         "--format", "binary"]) == 0
        files = ["--features", str(tmp_path / "features.bin"), "--aux", str(tmp_path / "aux.txt"),
                 "--split", str(tmp_path / "split.json")]
        assert cli.main(["train", *files, "--out", str(tmp_path), "--r", "4", "--d-prime", "4",
                         "--hidden", "4", "--epochs", "1"]) == 0
        for subset in ("query", "retrieval"):
            assert cli.main(["encode", "--checkpoint", str(tmp_path / "checkpoint.bin"), *files,
                             "--subset", subset, "--out", str(tmp_path / f"{subset}.codes"),
                             "--labels", str(tmp_path / "labels.txt"),
                             "--labels-out", str(tmp_path / f"{subset}.labels")]) == 0
        assert cli.main(["evaluate", "--query-codes", str(tmp_path / "query.codes"),
                         "--db-codes", str(tmp_path / "retrieval.codes"),
                         "--query-labels", str(tmp_path / "query.labels"),
                         "--db-labels", str(tmp_path / "retrieval.labels"), "--k", "5",
                         "--out-prefix", str(tmp_path / "report")]) == 0


class TestTrain:
    def test_checkpoint_and_log(self, pipeline):
        model = load_model(pipeline / "checkpoint.bin")
        assert model.r == 8
        lines = (pipeline / "trainlog.csv").read_text().splitlines()
        assert lines[0].startswith("epoch,")
        assert len(lines) == 6

    def test_manifest_records_every_option(self, pipeline):
        man = json.loads((pipeline / "manifest.json").read_text())
        assert sorted(man["config"]) == sorted([
            "features", "aux", "split", "r", "d-prime", "hidden", "k", "mu", "bandwidth", "lr",
            "epochs", "variant"])
        assert man["config"]["d-prime"] == 16 and man["config"]["bandwidth"] is None

    @pytest.mark.filterwarnings("always::UserWarning")
    def test_library_warning_is_one_line(self, tmp_path, capsys):
        # noisy tags leave items with none: the loader's warning is one `warning:` line on
        # stderr, and the caller's way of showing warnings is back in place afterwards
        assert cli.main(["synth", "--out", str(tmp_path), "--n", "40", "--d", "4", "--c", "2",
                         "--noise", "0.5", "--train-size", "20", "--query-size", "10", "--seed", "1"]) == 0
        tags = np.loadtxt(tmp_path / "aux.txt", delimiter=",", skiprows=1)
        empty = np.flatnonzero(tags.sum(axis=0) == 0)
        assert empty.size
        capsys.readouterr()
        shown = warnings.showwarning
        code, captured = run(["train", "--features", str(tmp_path / "features.txt"),
                              "--aux", str(tmp_path / "aux.txt"), "--split", str(tmp_path / "split.json"),
                              "--out", str(tmp_path), "--r", "4", "--d-prime", "8", "--hidden", "8",
                              "--epochs", "2"], capsys)
        assert code == 0 and warnings.showwarning is shown
        assert captured.err == (f"warning: {tmp_path / 'aux.txt'}: {empty.size} item(s) have no auxiliary "
                                f"semantics (first: column {empty[0]})\n")

    def test_variant_flag(self, pipeline, tmp_path):
        args = [
            "train", "--features", str(pipeline / "features.txt"),
            "--aux", str(pipeline / "aux.txt"), "--split", str(pipeline / "split.json"),
            "--out", str(tmp_path), "--r", "4", "--d-prime", "8", "--hidden", "8",
            "--epochs", "2", "--lr", "1e-3", "--variant", "no-aux",
        ]
        assert cli.main(args) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["config"]["variant"] == "no-aux"
        kwargs = cli._fit_kwargs(cli.build_parser().parse_args(args))
        assert kwargs["graph_cfg"].variant == "visual-only"
        model = load_model(tmp_path / "checkpoint.bin")
        assert model.graph_cfg.variant == "visual-only"
        assert not model.use_attention and not kwargs["use_attention"]

    def test_config_file_overrides_flags(self, pipeline, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 2\nr = 4  # short codes\n")
        args = [
            "train", "--features", str(pipeline / "features.txt"),
            "--aux", str(pipeline / "aux.txt"), "--split", str(pipeline / "split.json"),
            "--out", str(tmp_path), "--r", "16", "--d-prime", "8", "--hidden", "8",
            "--epochs", "9", "--lr", "1e-3", "--config", str(cfg),
        ]
        assert cli.main(args) == 0
        model = load_model(tmp_path / "checkpoint.bin")
        assert model.r == 4
        assert len((tmp_path / "trainlog.csv").read_text().splitlines()) == 1 + 2

    def test_bad_config_line(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs 2\n")
        args = [
            "train", "--features", str(pipeline / "features.txt"),
            "--aux", str(pipeline / "aux.txt"), "--split", str(pipeline / "split.json"),
            "--out", str(tmp_path), "--config", str(cfg),
        ]
        assert cli.main(args) == 1
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize("line, error", [
        ("bandwidth = 1.5", None), ("threads = 1", None),
        ("bandwidth = wide", "invalid value 'wide'"), ("threads = two", "invalid value 'two'"),
        ("variant = sparse", "must be one of"),
    ])
    def test_config_values_take_flag_types(self, pipeline, tmp_path, capsys, line, error):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        args = [
            "train", "--features", str(pipeline / "features.txt"),
            "--aux", str(pipeline / "aux.txt"), "--split", str(pipeline / "split.json"),
            "--out", str(tmp_path), "--r", "4", "--d-prime", "8", "--hidden", "8",
            "--epochs", "1", "--config", str(cfg),
        ]
        code, captured = run(args, capsys)
        if error is None:
            assert code == 0
            if line.startswith("bandwidth"):
                assert load_model(tmp_path / "checkpoint.bin").graph_cfg.bandwidth == 1.5
        else:
            assert code == 1
            assert error in captured.err and len(captured.err.splitlines()) == 1


class TestEncode:
    def encode(self, pipeline, tmp_path, subset, extra=()):
        out = tmp_path / f"{subset}.codes"
        args = [
            "encode", "--checkpoint", str(pipeline / "checkpoint.bin"),
            "--features", str(pipeline / "features.txt"), "--aux", str(pipeline / "aux.txt"),
            "--split", str(pipeline / "split.json"), "--subset", subset,
            "--out", str(out), *extra,
        ]
        assert cli.main(args) == 0
        return out

    def test_train_subset(self, pipeline, tmp_path):
        out = self.encode(pipeline, tmp_path, "train")
        codes = rt.load_codes(out)
        assert codes.n == 40 and codes.r == 8
        man = json.loads((tmp_path / "train.codes.manifest.json").read_text())
        assert man["seed"] is None  # encoding draws no random numbers

    def test_train_subset_of_other_items_is_refused(self, pipeline, tmp_path, capsys):
        # as many training items as the checkpoint holds, but other ones: the cached codes are not theirs
        split = load_split(pipeline / "split.json")
        others = sorted(set(range(60)) - set(split.train.tolist())) + split.train[:20].tolist()
        aux = load_aux(pipeline / "aux.txt").data
        assert len(others) == 40 and not np.array_equal(aux[:, others], aux[:, split.train])
        path = _file(tmp_path, "s.json", json.dumps({"train": others, "query": [], "retrieval": []}))
        code, captured = run(_encode(pipeline, tmp_path, "train", split=path), capsys)
        assert code == 1 and captured.err == (
            "error: the split's training items are not the checkpoint's: their aux tags differ\n")
        assert not (tmp_path / "out.codes").exists()

    def test_query_subset_with_labels(self, pipeline, tmp_path):
        out = self.encode(
            pipeline, tmp_path, "query",
            extra=["--labels", str(pipeline / "labels.txt"),
                   "--labels-out", str(tmp_path / "qlabels.txt")],
        )
        assert rt.load_codes(out).n == 10
        sliced = load_aux(tmp_path / "qlabels.txt")
        split = load_split(pipeline / "split.json")
        full = load_aux(pipeline / "labels.txt")
        assert np.array_equal(sliced.data, full.data[:, split.query])

    def test_manifest_records_the_labels_source(self, pipeline, tmp_path):
        self.encode(pipeline, tmp_path, "query",
                    extra=["--labels", str(pipeline / "labels.txt"),
                           "--labels-out", str(tmp_path / "qlabels.txt")])
        man = json.loads((tmp_path / "query.codes.manifest.json").read_text())
        labels = str(pipeline / "labels.txt")
        assert man["inputs"][labels] == manifest.file_digest(labels)
        assert str(tmp_path / "qlabels.txt") in man["outputs"]

    def test_r_mismatch(self, pipeline, tmp_path, capsys):
        args = [
            "encode", "--checkpoint", str(pipeline / "checkpoint.bin"),
            "--features", str(pipeline / "features.txt"), "--aux", str(pipeline / "aux.txt"),
            "--split", str(pipeline / "split.json"), "--subset", "train",
            "--out", str(tmp_path / "x.codes"), "--r", "64",
        ]
        assert cli.main(args) == 1
        assert "r=64" in capsys.readouterr().err

    @pytest.mark.parametrize("line, code", [("r = 8", 0), ("r = 64", 1), ("r = eight", 1)])
    def test_config_r_is_an_integer(self, pipeline, tmp_path, capsys, line, code):
        cfg = tmp_path / "enc.cfg"
        cfg.write_text(line + "\n")
        args = [
            "encode", "--checkpoint", str(pipeline / "checkpoint.bin"),
            "--features", str(pipeline / "features.txt"), "--aux", str(pipeline / "aux.txt"),
            "--split", str(pipeline / "split.json"), "--subset", "train",
            "--out", str(tmp_path / "x.codes"), "--config", str(cfg),
        ]
        assert run(args, capsys)[0] == code


class TestEvaluate:
    def test_end_to_end(self, pipeline, tmp_path, capsys):
        enc = TestEncode()
        q = enc.encode(pipeline, tmp_path, "query",
                       extra=["--labels", str(pipeline / "labels.txt"),
                              "--labels-out", str(tmp_path / "ql.txt")])
        db = enc.encode(pipeline, tmp_path, "retrieval",
                        extra=["--labels", str(pipeline / "labels.txt"),
                               "--labels-out", str(tmp_path / "dbl.txt")])
        args = [
            "evaluate", "--query-codes", str(q), "--db-codes", str(db),
            "--query-labels", str(tmp_path / "ql.txt"), "--db-labels", str(tmp_path / "dbl.txt"),
            "--k", "50", "--curve", "1,5,10", "--out-prefix", str(tmp_path / "report"),
        ]
        code = cli.main(args)
        captured = capsys.readouterr()
        assert code == 0
        assert "MAP@50" in captured.out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert 0.0 <= payload["map_at_k"] <= 1.0
        curve = (tmp_path / "report_curve.csv").read_text().splitlines()
        assert curve[0] == "K,precision"
        assert len(curve) == 4
        assert json.loads((tmp_path / "report.manifest.json").read_text())["seed"] is None

    @pytest.mark.filterwarnings("always::UserWarning")
    def test_clamped_k_is_the_k_reported(self, pipeline, tmp_path, capsys):
        # a K beyond the 50-item database is scored, printed and saved as 50, with one warning line
        q = TestEncode().encode(pipeline, tmp_path, "query",
                                extra=["--labels", str(pipeline / "labels.txt"),
                                       "--labels-out", str(tmp_path / "ql.txt")])
        db = TestEncode().encode(pipeline, tmp_path, "retrieval",
                                 extra=["--labels", str(pipeline / "labels.txt"),
                                        "--labels-out", str(tmp_path / "dbl.txt")])
        code, captured = run([
            "evaluate", "--query-codes", str(q), "--db-codes", str(db),
            "--query-labels", str(tmp_path / "ql.txt"), "--db-labels", str(tmp_path / "dbl.txt"),
            "--k", "100000", "--out-prefix", str(tmp_path / "report"),
        ], capsys)
        assert captured.err == "warning: K=100000 exceeds database size 50; clamping\n"
        assert code == 0 and captured.out.splitlines()[-1].startswith("evaluate: MAP@50 = ")
        assert json.loads((tmp_path / "report.json").read_text())["k"] == 50

    def test_two_runs_write_the_same_report(self, pipeline, tmp_path, capsys):
        # the report holds what the inputs decide; the run's time is in its manifest
        q = TestEncode().encode(pipeline, tmp_path, "query",
                                extra=["--labels", str(pipeline / "labels.txt"),
                                       "--labels-out", str(tmp_path / "ql.txt")])
        reports = []
        for prefix in ("a", "b"):
            assert run(["evaluate", "--query-codes", str(q), "--db-codes", str(q),
                        "--query-labels", str(tmp_path / "ql.txt"),
                        "--db-labels", str(tmp_path / "ql.txt"), "--k", "5",
                        "--out-prefix", str(tmp_path / prefix)], capsys)[0] == 0
            reports.append((tmp_path / f"{prefix}.json").read_bytes())
            timing = json.loads((tmp_path / f"{prefix}.manifest.json").read_text())["timing"]
            assert list(timing) == ["evaluate_seconds"] and timing["evaluate_seconds"] >= 0.0
        assert reports[0] == reports[1]


class TestSweep:
    def sweep(self, pipeline, out, *extra):
        args = [
            "sweep", "--features", str(pipeline / "features.txt"),
            "--aux", str(pipeline / "aux.txt"), "--split", str(pipeline / "split.json"),
            "--labels", str(pipeline / "labels.txt"), "--axis", "epochs",
            "--values", "1,2", "--k-eval", "10", "--out", str(out),
            "--r", "4", "--d-prime", "8", "--hidden", "8", "--lr", "1e-3", "--seed", "3", *extra,
        ]
        assert cli.main(args) == 0
        return out.read_bytes()

    def test_epochs_axis(self, pipeline, tmp_path):
        lines = self.sweep(pipeline, tmp_path / "sweep.csv").decode().splitlines()
        assert lines[0] == "value,MAP"
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[2].startswith("2,")

    def test_parallel_matches_serial(self, pipeline, tmp_path, monkeypatch):
        for var in cli._THREAD_VARS:  # --threads sets them; monkeypatch restores them
            monkeypatch.setenv(var, "1")
        serial = self.sweep(pipeline, tmp_path / "serial.csv", "--threads", "1")
        parallel = self.sweep(pipeline, tmp_path / "parallel.csv", "--threads", "1", "--parallel", "2")
        assert parallel == serial


def _checkpoint(meta=b"{}", version=network.CHECKPOINT_VERSION):
    """Bytes of a checkpoint with the given raw meta and version, and one float of payload."""
    return b"AGCK" + struct.pack("<II", version, len(meta)) + meta + bytes(8)


def _edited(p, tmp, edit):
    """The pipeline's checkpoint after edit(arrays, meta) changed its contents."""
    arrays, meta = read_checkpoint(p / "checkpoint.bin")
    edit(arrays, meta)
    path = tmp / "edited.bin"
    network.save_arrays(path, list(arrays.values()), meta)
    return str(path)


def _short_degrees(p, tmp):
    """The pipeline's checkpoint with one training degree dropped."""
    return _edited(p, tmp, lambda arrays, meta: arrays.update(degrees=arrays["degrees"][:-1]))


_HUGE_DIMS = json.dumps({"use_attention": True, "graph": {"mu": 1.0, "bandwidth": None, "variant": "augmented"},
                         "dims": {"c": 2, "d": 8, "h": 2**31, "k": 2**31, "n": 3, "r": 8}}).encode()


def _train(p, tmp, *extra, split=None):
    return ["train", "--features", str(p / "features.txt"), "--aux", str(p / "aux.txt"),
            "--split", split or str(p / "split.json"), "--out", str(tmp),
            "--r", "4", "--d-prime", "8", "--hidden", "8", "--epochs", "1", *extra]


def _encode(p, tmp, subset="query", checkpoint=None, split=None):
    return ["encode", "--checkpoint", checkpoint or str(p / "checkpoint.bin"),
            "--features", str(p / "features.txt"), "--aux", str(p / "aux.txt"),
            "--split", split or str(p / "split.json"), "--subset", subset,
            "--out", str(tmp / "out.codes")]


def _encode_with(p, tmp, *extra, aux=None):
    argv = _encode(p, tmp)
    if aux is not None:
        argv[argv.index("--aux") + 1] = aux
    return argv + list(extra)


def _sweep(p, *extra, labels=None):
    return ["sweep", "--features", str(p / "features.txt"), "--aux", str(p / "aux.txt"),
            "--split", str(p / "split.json"), "--labels", labels or str(p / "labels.txt"),
            "--k-eval", "10", "--out", str(p / "never.csv"), "--r", "4", "--d-prime", "8",
            "--hidden", "8", *extra]


def _narrow(tmp, cols=30):
    """An aux file with `cols` items, fewer than the pipeline's 60."""
    return _file(tmp, "narrow.txt", "2 %d\n%s\n%s\n" % (cols, ",".join("1" * cols),
                                                          ",".join("0" * cols)))


def _evaluate(p, tmp, query_codes="1 8\n00000000000000ff\n", curve="1,5"):
    files = {"q.codes": query_codes, "db.codes": "2 8\n00000000000000ff\n0000000000000001\n",
             "q.txt": "2 1\n1\n0\n", "db.txt": "2 2\n1,0\n0,1\n"}
    for name, text in files.items():
        (tmp / name).write_text(text)
    return ["evaluate", "--query-codes", str(tmp / "q.codes"), "--db-codes", str(tmp / "db.codes"),
            "--query-labels", str(tmp / "q.txt"), "--db-labels", str(tmp / "db.txt"),
            "--k", "2", "--curve", curve, "--out-prefix", str(tmp / "report")]


def _file(tmp, name, content):
    path = tmp / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return str(path)


_SPLIT = '{"train": %s, "query": %s, "retrieval": []}'
# case -> (argv built from the pipeline directory and a scratch directory, message fragment)
MALFORMED = {
    "meta-not-json": (lambda p, t: _encode(p, t, checkpoint=_file(t, "c", _checkpoint(meta=b"{oops"))),
                      "meta is not utf-8 JSON"),
    "meta-not-utf8": (lambda p, t: _encode(p, t, checkpoint=_file(t, "c", _checkpoint(meta=b"\xff\xfe"))),
                      "not utf-8"),
    "dims-beyond-file": (lambda p, t: _encode(p, t, checkpoint=_file(t, "c", _checkpoint(meta=_HUGE_DIMS))),
                         "checkpoint payload has 8 bytes, its shapes need "),
    "checkpoint-version-2": (lambda p, t: _encode(p, t, checkpoint=_file(t, "c", _checkpoint(version=2))),
                             "unsupported checkpoint version 2"),
    "checkpoint-array-shapes": (lambda p, t: _encode(p, t, checkpoint=_short_degrees(p, t)),
                                "checkpoint payload has 12376 bytes, its shapes need 12384"),
    "checkpoint-version-3": (lambda p, t: _encode(p, t, checkpoint=_file(t, "c", _checkpoint(version=3))),
                             "unsupported checkpoint version 3"),
    "checkpoint-version-4": (lambda p, t: _encode(p, t, checkpoint=_file(t, "c", _checkpoint(version=4))),
                             "c: unsupported checkpoint version 4"),
    "checkpoint-version-5": (lambda p, t: _encode(p, t, checkpoint=_file(t, "c", _checkpoint(version=5))),
                             "c: unsupported checkpoint version 5"),
    "checkpoint-not-finite": (lambda p, t: _encode(p, t, checkpoint=_edited(
        p, t, lambda arrays, meta: arrays["W1"].__setitem__((0, 0), np.nan))),
                              "edited.bin: checkpoint array 'W1' is not finite"),
    "checkpoint-degree-negative": (lambda p, t: _encode(p, t, checkpoint=_edited(
        p, t, lambda arrays, meta: arrays["degrees"].__imul__(-1))),
                                   "edited.bin: checkpoint array 'degrees' has a negative entry"),
    "checkpoint-y-train-halved": (lambda p, t: _encode(p, t, checkpoint=_edited(
        p, t, lambda arrays, meta: arrays["y_train"].__imul__(0.5))),
                                  "edited.bin: checkpoint array 'y_train' has an entry that is not 0 or 1"),
    "checkpoint-mu-string": (lambda p, t: _encode(p, t, checkpoint=_edited(
        p, t, lambda arrays, meta: meta["graph"].update(mu="x"))),
                             "edited.bin: mu must be a real number, got 'x'"),
    "checkpoint-mu-true": (lambda p, t: _encode(p, t, checkpoint=_edited(
        p, t, lambda arrays, meta: meta["graph"].update(mu=True))),
                           "edited.bin: mu must be a real number, got True"),
    # the graph uses a visual kernel, whose bandwidth the checkpoint must hold
    "checkpoint-bandwidth-null": (lambda p, t: _encode(p, t, checkpoint=_edited(
        p, t, lambda arrays, meta: meta["graph"].update(bandwidth=None))),
                                  "edited.bin: checkpoint graph has no bandwidth for its visual kernel"),
    "split-not-object": (lambda p, t: _train(p, t, split=_file(t, "s.json", "[1, 2]")),
                         "must be a JSON object"),
    "split-not-integers": (lambda p, t: _train(p, t, split=_file(t, "s.json", _SPLIT % ('["a"]', "[]"))),
                           "'train' must be a list of 64-bit integers"),
    "split-fractional": (lambda p, t: _encode(p, t, split=_file(t, "s.json", _SPLIT % ("[]", "[1.5]"))),
                         "'query' must be a list of 64-bit integers"),
    # a repeated training item would be a duplicate graph node, a repeated query counted twice in MAP
    "split-repeated-index": (lambda p, t: _train(p, t, split=_file(t, "s.json", _SPLIT % (
        "[0, 1, 2, 3, 1, 2, 3]", "[50, 51, 50, 51]"))), "s.json: train index 1 is repeated"),
    "train-index-range": (lambda p, t: _train(p, t, split=_file(t, "s.json", _SPLIT % ("[0, 99]", "[]"))),
                          "train index 99 is out of range for 60 items"),
    "query-index-range": (lambda p, t: _encode(p, t, split=_file(t, "s.json", _SPLIT % ("[]", "[60]"))),
                          "query index 60 is out of range for 60 items"),
    "hex-negative": (lambda p, t: _evaluate(p, t, query_codes="1 8\n-1\n"), "bad hex word in row 0"),
    "hex-too-wide": (lambda p, t: _evaluate(p, t, query_codes="1 8\n" + "f" * 17 + "\n"),
                     "bad hex word in row 0"),
    "curve-not-integers": (lambda p, t: _evaluate(p, t, curve="a,b"), "--curve must be"),
    "encode-aux-items": (lambda p, t: _encode_with(p, t, aux=_narrow(t)),
                         "narrow.txt has 30 items, but %s has 60"),
    "encode-labels-items": (lambda p, t: _encode_with(p, t, "--labels", _narrow(t),
                                                      "--labels-out", str(t / "l.txt")),
                            "narrow.txt has 30 items, but %s has 60"),
    "sweep-labels-items": (lambda p, t: _sweep(p, "--axis", "epochs", "--values", "1",
                                               labels=_narrow(t)),
                           "narrow.txt has 30 items, but %s has 60"),
    "text-matrix-not-ascii": (lambda p, t: _encode_with(p, t, aux=_file(t, "a.txt", b"1 1\n\xff\n")),
                              "a.txt: not ASCII text"),
    "codes-not-ascii": (lambda p, t: _evaluate(p, t, query_codes="1 8\n00000000000000\xff\n"),
                        "q.codes: not ASCII text"),
    "config-not-ascii": (lambda p, t: _train(p, t, "--config", _file(t, "c.cfg", b"r = \xff\n")),
                         "c.cfg: not ASCII text"),
    "sweep-value-not-integer": (lambda p, t: _sweep(p, "--axis", "epochs", "--values", "1,x"),
                                "--values: invalid value 'x' for 'epochs'"),
    "sweep-r-fractional": (lambda p, t: _sweep(p, "--axis", "r", "--values", "4.5"),
                           "--values: invalid value '4.5' for 'r'"),
    "sweep-k-eval-zero": (lambda p, t: _sweep(p, "--axis", "epochs", "--values", "1", "--k-eval", "0"),
                          "--k-eval must be >= 1, got 0"),
    "mu-nan": (lambda p, t: _train(p, t, "--mu", "nan"), "mu must be finite, got nan"),
    "mu-inf": (lambda p, t: _train(p, t, "--mu", "inf"), "mu must be finite, got inf"),
    "bandwidth-nan": (lambda p, t: _train(p, t, "--bandwidth", "nan"), "bandwidth must be finite, got nan"),
    # 2 sigma^2 is 0 in float32: the kernel would be 0/0 on the diagonal and NaN codes would follow
    "bandwidth-vanishing": (lambda p, t: _train(p, t, "--bandwidth", "1e-30"),
                            "bandwidth 1e-30 is too small: 2 sigma^2 is 0 in float32"),
    # 2 sigma^2 is infinite in float64, or only once it is rounded to the float32 graph
    "bandwidth-huge": (lambda p, t: _train(p, t, "--bandwidth", "1e200"),
                       "bandwidth 1e+200 is too large: 2 sigma^2 overflows float32"),
    "bandwidth-overflowing": (lambda p, t: _train(p, t, "--bandwidth", "1e30"),
                              "bandwidth 1e+30 is too large: 2 sigma^2 overflows float32"),
    "synth-sep-nan": (lambda p, t: ["synth", "--out", str(t), "--n", "12", "--sep", "nan"],
                      "need a finite sep >= 0, got nan"),
    "k-nan": (lambda p, t: _train(p, t, "--k", "nan"), "k must be finite, got nan"),
    "k-zero": (lambda p, t: _train(p, t, "--k", "0"), "k must be > 0, got 0.0"),
    "k-negative": (lambda p, t: _train(p, t, "--k", "-1"), "k must be > 0, got -1.0"),
    "lr-nan": (lambda p, t: _train(p, t, "--lr", "nan"), "lr must be finite, got nan"),
    "config-disc-steps": (lambda p, t: _train(p, t, "--config", _file(t, "c.cfg", "disc-steps = 2\n")),
                          "c.cfg:1: unknown option 'disc-steps'"),
    "config-saturating": (lambda p, t: _train(p, t, "--config", _file(t, "c.cfg", "saturating = 1\n")),
                          "c.cfg:1: unknown option 'saturating'"),
    # reconstruction is the whole objective: the loss weights are gone with the other terms
    "config-lambda2": (lambda p, t: _train(p, t, "--config", _file(t, "c.cfg", "lambda2 = 0\n")),
                       "c.cfg:1: unknown option 'lambda2'"),
    # the compute dtype is a constant of the trainer, not a setting
    "config-dtype": (lambda p, t: _train(p, t, "--config", _file(t, "c.cfg", "dtype = float64\n")),
                     "c.cfg:1: unknown option 'dtype'"),
    # the reconstruction targets other than the tags' Gram matrix and the visual kernel are gone
    "config-variant-recons-feat": (lambda p, t: _train(p, t, "--config",
                                                       _file(t, "c.cfg", "variant = recons-feat\n")),
                                   "c.cfg:1: 'variant' must be one of full, no-aux, no-att, only-sv, only-sa"),
    "synth-seed-negative": (lambda p, t: ["synth", "--out", str(t), "--n", "12", "--seed", "-1"],
                            "seed must be an integer >= 0, got -1"),
    "train-seed-negative": (lambda p, t: _train(p, t, "--seed", "-1"), "seed must be an integer >= 0, got -1"),
    "sweep-seed-negative": (lambda p, t: _sweep(p, "--axis", "epochs", "--values", "1", "--seed", "-1"),
                            "seed must be an integer >= 0, got -1"),
    # the attention projections are fixed; the option is gone, not ignored
    "config-train-attention": (lambda p, t: _train(p, t, "--config",
                                                   _file(t, "c.cfg", "train-attention = TRUE\n")),
                               "c.cfg:1: unknown option 'train-attention'"),
    "threads-zero": (lambda p, t: _train(p, t, "--threads", "0"), "threads must be >= 1, got 0"),
    "config-threads-negative": (lambda p, t: _train(p, t, "--config", _file(t, "c.cfg", "threads = -3\n")),
                                "threads must be >= 1, got -3"),
    "d-prime-zero": (lambda p, t: _train(p, t, "--d-prime", "0"), "d_prime must be >= 1, got 0"),
    "hidden-negative": (lambda p, t: _train(p, t, "--hidden", "-1"), "hidden must be >= 1, got -1"),
    "r-zero": (lambda p, t: _train(p, t, "--r", "0"), "r must be >= 1, got 0"),
    "sweep-parallel-negative": (lambda p, t: _sweep(p, "--axis", "epochs", "--values", "1", "--parallel", "-3"),
                                "--parallel must be >= 1, got -3"),
    # every K of the curve is checked as K is: none below 1 is dropped without a word
    "curve-no-positive-k": (lambda p, t: _evaluate(p, t, curve="0,-1"),
                            "curve point must be an integer >= 1, got 0"),
    "curve-point-zero": (lambda p, t: _evaluate(p, t, curve="0,5"), "curve point must be an integer >= 1, got 0"),
    "curve-empty": (lambda p, t: _evaluate(p, t, curve=","), "the curve needs at least one K"),
    "aux-header-too-wide": (lambda p, t: _encode_with(p, t, aux=_file(t, "a.txt", "1 1000000000000000\n1,0\n")),
                            "a.txt: row 0 has 2 values, expected 1000000000000000"),
    "codes-header-too-wide": (lambda p, t: _evaluate(p, t, query_codes="1 1000000000000000\n" + "f" * 16 + "\n"),
                              "q.codes: row 0 has 1 words, expected 15625000000000"),
    "codes-r-zero": (lambda p, t: _evaluate(p, t, query_codes="1 0\n0000000000000000\n"),
                     "q.codes: header '1 0' declares code length 0, expected >= 1"),
    # the checkpoint does not exist: the flag check comes before any input loads
    "labels-out-without-labels": (lambda p, t: _encode(p, t, checkpoint=str(t / "absent.bin"))
                                  + ["--labels-out", str(t / "l.txt")],
                                  "--labels-out needs --labels"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_is_one_error_line(pipeline, tmp_path, capsys, case):
    build, message = MALFORMED[case]
    if "%s" in message:
        message %= pipeline / "features.txt"
    code, captured = run(build(pipeline, tmp_path), capsys)
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], captured.err
    assert not (pipeline / "never.csv").exists() and not (pipeline / "never.csv.manifest.json").exists()


@pytest.mark.parametrize("command, extra", [
    ("train", []), ("train", ["--bandwidth", "3", "--variant", "no-att"]), ("query", []),
], ids=["train", "train-fixed-bandwidth", "encode-query"])
def test_features_beyond_float32_are_one_error_line(pipeline, tmp_path, capsys, command, extra):
    # one value of 1e300 is finite in float64 but not once the attentive features are float32:
    # the error names the item, with no overflow warning before it and no later misdiagnosis
    split = load_split(pipeline / "split.json")
    subset = "train" if command == "train" else "query"
    X = load_features(pipeline / "features.txt").data.copy()
    X[0, getattr(split, subset)[1]] = 1e300
    save_features(tmp_path / "big.txt", FeatureMatrix(X))
    argv = _train(pipeline, tmp_path, *extra) if command == "train" else _encode(pipeline, tmp_path, "query")
    argv[argv.index("--features") + 1] = str(tmp_path / "big.txt")
    item = f"item {split.train[1]}" if command == "train" else "query 1"
    code, captured = run(argv, capsys)
    assert code == 1 and captured.err == f"error: attentive features of {item} are not finite in float32\n"


def test_sweep_checks_every_point_before_training_any(pipeline, capsys, monkeypatch):
    # the r = 0 point is refused before the r = 4 point ahead of it trains or a manifest is written
    calls = []
    monkeypatch.setattr(trainer, "fit", lambda *args, **kwargs: calls.append(kwargs))
    code, captured = run(_sweep(pipeline, "--axis", "r", "--values", "4,0"), capsys)
    assert code == 1 and captured.err == "error: r must be >= 1, got 0\n" and calls == []
    assert not (pipeline / "never.csv.manifest.json").exists()


@pytest.mark.parametrize("case", ["synth-seed-negative", "train-seed-negative"])
def test_negative_seed_leaves_no_manifest(pipeline, tmp_path, capsys, case):
    # the seed is checked before the run records anything in its output directory
    assert run(MALFORMED[case][0](pipeline, tmp_path), capsys)[0] == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["curve-point-zero", "curve-empty"])
def test_bad_curve_leaves_no_manifest(pipeline, tmp_path, capsys, case):
    # the curve is checked before the inputs load and the manifest is written
    assert run(MALFORMED[case][0](pipeline, tmp_path), capsys)[0] == 1
    assert not (tmp_path / "report.manifest.json").exists()


@pytest.mark.parametrize("build, name, message", [
    (lambda p, t: _train(p, t, split=_file(t, "s.json", _SPLIT % ("[0]", "[]"))), "manifest.json",
     "median heuristic needs at least 2 items"),
    (lambda p, t: _encode(p, t, "train", split=_file(t, "s.json", _SPLIT % ("[0, 1]", "[]"))),
     "out.codes.manifest.json", "checkpoint was trained on 40 items, split has 2 training items"),
], ids=["train", "encode"])
def test_failed_run_finalizes_its_manifest(pipeline, tmp_path, capsys, build, name, message):
    code, captured = run(build(pipeline, tmp_path), capsys)
    assert code == 1 and captured.err == f"error: {message}\n"
    man = json.loads((tmp_path / name).read_text())
    assert man["status"] == "failed" and man["error"] == message
    assert "finished_at" in man and "outputs" not in man


# each subcommand with its required flags, given placeholder values
_REQUIRED = {
    "synth": ["--out", "o"],
    "train": ["--features", "f", "--aux", "a", "--split", "s", "--out", "o"],
    "encode": ["--checkpoint", "c", "--features", "f", "--aux", "a", "--split", "s",
               "--subset", "query", "--out", "o"],
    "evaluate": ["--query-codes", "q", "--db-codes", "d", "--query-labels", "ql",
                 "--db-labels", "dl", "--out-prefix", "o"],
    "sweep": ["--features", "f", "--aux", "a", "--split", "s", "--labels", "l",
              "--axis", "r", "--values", "4", "--out", "o"],
}


def _train_flags():
    """The actions `cli._add_train_flags` defines."""
    parser = argparse.ArgumentParser(add_help=False)
    cli._add_train_flags(parser)
    return parser._actions


def _readme_commands():
    """The `aghash` commands of the README's "Command line" block, continuation lines joined."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [line.split()[1:] for line in block.splitlines() if line.startswith("aghash ")]


class TestParsing:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    @pytest.mark.parametrize("command, extra", [
        ("train", ["--format", "binary"]), ("encode", ["--format", "binary"]),
        ("sweep", ["--format", "binary"]), ("encode", ["--seed", "1"]), ("evaluate", ["--seed", "1"]),
        ("train", ["--variant", "recons-sa"]), ("train", ["--disc-steps", "2"]),
        ("train", ["--saturating"]), ("sweep", ["--disc-steps", "2"]), ("sweep", ["--saturating"]),
        ("train", ["--dtype", "float64"]), ("sweep", ["--dtype", "float64"]),
        ("train", ["--lambda1", "100"]), ("sweep", ["--lambda3", "0"]), ("sweep", ["--axis", "lambda1"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_option_that_changes_no_result_is_rejected(self, capsys, command, extra):
        cli.build_parser().parse_args([command, *_REQUIRED[command]])
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, *_REQUIRED[command], *extra])
        assert extra[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("variant", ["recons-sv", "recons-s", "recons-ztz", "recons-feat"])
    def test_removed_variant_is_an_invalid_choice(self, capsys, command, variant):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, *_REQUIRED[command], "--variant", variant])
        assert f"invalid choice: '{variant}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", _REQUIRED)
    def test_threads_and_config_on_every_subcommand(self, command):
        args = cli.build_parser().parse_args([command, *_REQUIRED[command], "--threads", "1",
                                              "--config", "c.cfg"])
        assert args.threads == 1 and args.config == "c.cfg"

    def test_seed_and_format_where_they_change_a_result(self):
        parse = cli.build_parser().parse_args
        assert parse(["synth", *_REQUIRED["synth"], "--format", "binary", "--seed", "4"]).seed == 4
        assert parse(["train", *_REQUIRED["train"], "--seed", "5"]).seed == 5
        assert parse(["sweep", *_REQUIRED["sweep"], "--seed", "6"]).seed == 6

    @pytest.mark.parametrize("command", _REQUIRED)
    def test_config_options_take_a_value(self, command):
        # a --config value is converted as its flag converts it, so an on/off
        # flag (nargs 0) would take any string, "no" included, as true
        args = cli.build_parser().parse_args([command, *_REQUIRED[command]])
        settable = [a for a in cli._actions(command).values() if hasattr(args, a.dest)]
        assert settable and [a.dest for a in settable if a.nargs == 0] == []

    @pytest.mark.parametrize("action", _train_flags(), ids=lambda a: a.option_strings[0])
    def test_every_training_flag_reaches_fit(self, action):
        # a flag that is parsed and recorded but that fit never sees would change no result
        flag = [action.option_strings[0],
                next(c for c in action.choices if c != action.default) if action.choices
                else str(2 * (action.default or 1))]
        parse = cli.build_parser().parse_args
        for command in ("train", "sweep"):
            default = cli._fit_kwargs(parse([command, *_REQUIRED[command]]))
            assert cli._fit_kwargs(parse([command, *_REQUIRED[command], *flag])) != default, flag

    def test_readme_commands_parse(self):
        commands = _readme_commands()
        assert {argv[0] for argv in commands} == set(_REQUIRED)
        for argv in commands:
            cli.build_parser().parse_args(argv)

    def pinned(self, monkeypatch, tmp_path, *argv):
        """(exit code, BLAS thread variables a stub synth command sees) for one run of main."""
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "synth",
                            lambda args: seen.append({v: os.environ.get(v) for v in cli._THREAD_VARS}) or 0)
        code = cli.main(["synth", "--out", str(tmp_path), *argv])
        return code, seen

    def test_threads_env(self, monkeypatch, tmp_path):
        for argv, value in ((["--threads", "1"], "1"), (["--threads=2"], "2"), (["--thread", "1"], "1")):
            code, seen = self.pinned(monkeypatch, tmp_path, *argv)
            assert code == 0 and seen == [dict.fromkeys(cli._THREAD_VARS, value)], argv

    @pytest.mark.parametrize("lines, pinned", [
        ("threads = 3\n", "3"), ("threads = 1  # exact\nthreads=3\n", "3"),
        ("threads = two\n", None), ("n = 5\n", "2"),
    ], ids=["config-wins", "last-entry-wins", "not-an-integer", "no-entry"])
    def test_threads_from_config(self, monkeypatch, tmp_path, capsys, lines, pinned):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        code, seen = self.pinned(monkeypatch, tmp_path, "--threads", "2", "--config", str(cfg))
        if pinned is None:
            assert code == 1 and not seen
            assert "invalid value 'two'" in capsys.readouterr().err
        else:
            assert code == 0 and seen == [dict.fromkeys(cli._THREAD_VARS, pinned)]

    def test_threads_pinned_before_numpy_loads(self, tmp_path):
        script = (
            "import os, sys\n"
            "from aghash import cli\n"
            "def stub(args):\n"
            "    print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n"
            "    return 0\n"
            "cli._COMMANDS['synth'] = stub\n"
            "sys.exit(cli.main(['synth', '--out', '.', '--thread', '1']))\n"
        )
        env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "False"]
