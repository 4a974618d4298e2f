"""Command-line pipeline: synth, train, encode, evaluate, sweep.

Heavy imports are deferred until after --threads is applied so BLAS pools can
be pinned before numpy loads (single-threaded mode gives bit-identical runs).
"""

import argparse
import os
import sys
import time
import warnings

from . import __version__, manifest
from .errors import AghashError, ConfigError, ParameterError, ShapeError, require_sizes

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# --variant -> (graph variant, attention denoising); `trainer.fit` derives the
# reconstruction target from the two
_VARIANTS = {
    "full": ("augmented", True),
    "no-aux": ("visual-only", False),
    "no-att": ("augmented", False),
    "only-sv": ("visual-only", True),
    "only-sa": ("aux-only", True),
}


def _common_parser():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--threads", type=int, default=None,
                   help="BLAS thread cap (1 gives bit-reproducible runs)")
    p.add_argument("--config", default=None,
                   help="key=value file whose entries override the flags")
    return p


def _add_train_flags(p):
    p.add_argument("--seed", type=int, default=0, help="master random seed")
    p.add_argument("--r", type=int, default=32, help="hash code length")
    p.add_argument("--d-prime", type=int, default=512, help="shared attention dimension")
    p.add_argument("--hidden", type=int, default=1024, help="GCN hidden width")
    p.add_argument("--k", type=float, default=1.0, help="reconstruction target scale")
    p.add_argument("--mu", type=float, default=1.0, help="graph fusion weight")
    p.add_argument("--bandwidth", type=float, default=None,
                   help="fixed visual-kernel bandwidth (default: median heuristic)")
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--variant", choices=_VARIANTS, default="full",
                   help="ablation variant expressed as a configuration transform")


def build_parser():
    common = _common_parser()
    parser = argparse.ArgumentParser(prog="aghash", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic clustered dataset")
    p.add_argument("--out", required=True, help="existing output directory")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--d", type=int, default=128)
    p.add_argument("--c", type=int, default=4)
    p.add_argument("--sep", type=float, default=10.0)
    p.add_argument("--noise", type=float, default=0.0, help="aux label flip probability")
    p.add_argument("--train-size", type=int, default=1000)
    p.add_argument("--query-size", type=int, default=500)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--seed", type=int, default=0, help="master random seed")

    p = sub.add_parser("train", parents=[common], help="train a hashing model")
    p.add_argument("--features", required=True)
    p.add_argument("--aux", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True, help="existing output directory")
    _add_train_flags(p)

    p = sub.add_parser("encode", parents=[common], help="encode a split into packed codes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--aux", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--subset", choices=("train", "query", "retrieval"), required=True)
    p.add_argument("--out", required=True, help="codes file to write")
    p.add_argument("--r", type=int, default=None, help="expected code length (checked)")
    p.add_argument("--labels", default=None, help="full ground-truth label file to slice")
    p.add_argument("--labels-out", default=None, help="where to write the sliced labels")

    p = sub.add_parser("evaluate", parents=[common], help="MAP@K and topK-precision")
    p.add_argument("--query-codes", required=True)
    p.add_argument("--db-codes", required=True)
    p.add_argument("--query-labels", required=True)
    p.add_argument("--db-labels", required=True)
    p.add_argument("--k", type=int, default=1000)
    p.add_argument("--curve", default="1,5,10,50,100,500,1000",
                   help="comma-separated K values for the precision curve")
    p.add_argument("--denominator", choices=("min", "full"), default="min",
                   help="AP@K denominator convention")
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("sweep", parents=[common],
                       help="train+encode+evaluate over one axis, emitting value,MAP rows")
    p.add_argument("--features", required=True)
    p.add_argument("--aux", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--labels", required=True, help="full ground-truth label file")
    p.add_argument("--axis", choices=("epochs", "r"), required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--k-eval", type=int, default=100, help="K for MAP@K")
    p.add_argument("--out", required=True, help="CSV file to write")
    p.add_argument("--parallel", type=int, default=1, help="worker processes for sweep points")
    _add_train_flags(p)
    return parser


def _actions(command):
    """The flags of `command`, by destination."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def _convert(action, key, value, where):
    """`value` converted as the flag of `key` converts it; `where` names the value's source."""
    try:
        converted = (action.type or str)(value)
    except ValueError:
        raise ConfigError(f"{where}: invalid value {value!r} for {key!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise ConfigError(f"{where}: {key!r} must be one of {', '.join(action.choices)}")
    return converted


def _apply_config(args):
    """Override args from the --config file, converting each value as its flag would."""
    actions = _actions(args.command)
    try:
        with open(args.config, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ConfigError(f"{args.config}: not ASCII text") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{args.config}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        action = actions.get(key.replace("-", "_"))
        if action is None or not hasattr(args, action.dest):
            raise ConfigError(f"{where}: unknown option {key!r}")
        setattr(args, action.dest, _convert(action, key, value, where))


# run plumbing and outputs; the seed has its own manifest entry
_NOT_CONFIG = ("command", "seed", "threads", "config", "out", "out_prefix")


def _config(args):
    """The options a manifest records, keyed by flag name."""
    return {k.replace("_", "-"): v for k, v in vars(args).items() if k not in _NOT_CONFIG}


def _recorded(args, path, inputs):
    """manifest.recorded for this run of `args.command`, written to `path`."""
    return manifest.recorded(path, args.command, _config(args), inputs,
                             getattr(args, "seed", None), __version__)


def _load_inputs(args):
    """The features, aux, labels (None unless given) and split a command reads.

    Aux and labels must describe as many items as the features.
    """
    from .data import load_aux, load_features, load_split

    features = load_features(args.features)
    semantics = []
    for path in (args.aux, getattr(args, "labels", None)):
        sem = load_aux(path) if path else None
        if sem is not None and sem.n != features.n:
            raise ShapeError(f"{path} has {sem.n} items, but {args.features} has {features.n}")
        semantics.append(sem)
    return (features, *semantics, load_split(args.split))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args):
    from .data import make_split, save_aux, save_features, save_split, synth_dataset

    out = args.out
    features, aux, truth = synth_dataset(args.n, args.d, args.c, args.sep, args.noise, args.seed)
    split = make_split(args.n, (args.train_size, args.query_size), args.seed)
    ext = "bin" if args.format == "binary" else "txt"
    paths = {
        "features": os.path.join(out, f"features.{ext}"),
        "aux": os.path.join(out, "aux.txt"),
        "labels": os.path.join(out, "labels.txt"),
        "split": os.path.join(out, "split.json"),
    }
    with _recorded(args, os.path.join(out, "manifest.json"), []) as man:
        save_features(paths["features"], features, format=args.format)
        save_aux(paths["aux"], aux)
        save_aux(paths["labels"], truth)
        save_split(paths["split"], split)
        man["outputs"] = paths.values()
    print(f"synth: wrote {len(paths)} files to {out} "
          f"(n={args.n}, d={args.d}, c={args.c})")
    return 0


def _fit_kwargs(args):
    """The keyword arguments of `trainer.fit` that the flags and the ablation variant resolve to.

    Every setting is checked here, the sizes as `fit` checks them, so a sweep
    can check all its points before it trains any.
    """
    from .graph import GraphConfig
    from .trainer import TrainConfig

    require_sizes(d_prime=args.d_prime, hidden=args.hidden, r=args.r)
    graph_variant, use_attention = _VARIANTS[args.variant]
    return dict(
        r=args.r, d_prime=args.d_prime, hidden=args.hidden, use_attention=use_attention,
        graph_cfg=GraphConfig(mu=args.mu, bandwidth=args.bandwidth, variant=graph_variant),
        cfg=TrainConfig(lr=args.lr, epochs=args.epochs, seed=args.seed, k=args.k),
    )


def cmd_train(args):
    from .trainer import fit, save_model, write_train_log

    features, aux, _, split = _load_inputs(args)
    train_idx = split.subset("train", features.n)
    kwargs = _fit_kwargs(args)

    with _recorded(args, os.path.join(args.out, "manifest.json"),
                   [args.features, args.aux, args.split]) as man:
        start = time.perf_counter()
        model, history = fit(features, aux, train_idx, **kwargs)
        train_time = time.perf_counter() - start
        ckpt = os.path.join(args.out, "checkpoint.bin")
        log = os.path.join(args.out, "trainlog.csv")
        save_model(ckpt, model)
        write_train_log(log, history)
        man["timing"] = {"train_seconds": train_time}
        man["outputs"] = [ckpt, log]
    print(f"train: {args.epochs} epochs in {train_time:.2f}s, final recons={history[-1]:.6g}")
    return 0


def cmd_encode(args):
    from .data import save_aux, AuxSemantics
    from .retrieval import pack, save_codes
    from .trainer import encode_queries, encode_train, load_model

    if args.labels_out and not args.labels:
        raise ConfigError("--labels-out needs --labels, the full label file to slice")
    model = load_model(args.checkpoint)
    if args.r is not None and args.r != model.r:
        raise ConfigError(f"checkpoint has r={model.r}, requested r={args.r}")
    features, aux, truth, split = _load_inputs(args)
    idx = split.subset(args.subset, features.n)

    inputs = [args.checkpoint, args.features, args.aux, args.split]
    if args.labels:  # read, and sliced into --labels-out when given
        inputs.append(args.labels)
    with _recorded(args, args.out + ".manifest.json", inputs) as man:
        start = time.perf_counter()
        if args.subset == "train":  # the checkpoint's cached codes, once the items are its own
            codes = encode_train(model, features.data[:, idx], aux.data[:, idx])
        else:
            codes = pack(encode_queries(model, features.data[:, idx], aux.data[:, idx]))
        encode_time = time.perf_counter() - start
        save_codes(args.out, codes)
        man["outputs"] = [args.out]
        if args.labels_out:
            save_aux(args.labels_out, AuxSemantics(truth.data[:, idx]))
            man["outputs"].append(args.labels_out)
        man["timing"] = {"encode_seconds": encode_time}
    print(f"encode: {codes.n} items at r={codes.r} in {encode_time:.3f}s -> {args.out}")
    return 0


def cmd_evaluate(args):
    from .data import load_aux
    from .retrieval import check_curve, evaluate, load_codes, save_report

    try:
        curve = [int(tok) for tok in args.curve.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--curve must be comma-separated integers, got {args.curve!r}") from None
    check_curve(curve)  # before any input loads or the manifest is written
    query_codes = load_codes(args.query_codes)
    db_codes = load_codes(args.db_codes)
    query_labels = load_aux(args.query_labels)
    db_labels = load_aux(args.db_labels)

    with _recorded(args, args.out_prefix + ".manifest.json",
                   [args.query_codes, args.db_codes, args.query_labels, args.db_labels]) as man:
        start = time.perf_counter()
        report = evaluate(query_codes, db_codes, query_labels.data, db_labels.data,
                          K=args.k, curve_points=curve, denominator=args.denominator)
        evaluate_time = time.perf_counter() - start
        json_path = args.out_prefix + ".json"
        curve_path = args.out_prefix + "_curve.csv"
        save_report(json_path, curve_path, report)
        man["outputs"] = [json_path, curve_path]
        man["timing"] = {"evaluate_seconds": evaluate_time}
    print(f"evaluate: MAP@{report.k} = {report.map_at_k:.6f} over {query_codes.n} queries")
    return 0


def _sweep_point(args, inputs):
    """Train, encode, and evaluate one sweep point; MAP@k_eval. Runs in a worker process."""
    from .retrieval import evaluate, pack
    from .trainer import encode_queries, fit

    features, aux, truth, split = inputs
    model, _ = fit(features, aux, split.subset("train", features.n), **_fit_kwargs(args))
    q_idx, db_idx = split.subset("query", features.n), split.subset("retrieval", features.n)
    q_codes = pack(encode_queries(model, features.data[:, q_idx], aux.data[:, q_idx]))
    db_codes = pack(encode_queries(model, features.data[:, db_idx], aux.data[:, db_idx]))
    report = evaluate(q_codes, db_codes, truth.data[:, q_idx], truth.data[:, db_idx],
                      K=args.k_eval, curve_points=(args.k_eval,))
    return report.map_at_k


def cmd_sweep(args):
    values = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not values:
        raise ParameterError("sweep needs at least one value")
    if args.k_eval < 1:
        raise ParameterError(f"--k-eval must be >= 1, got {args.k_eval}")
    if args.parallel < 1:
        raise ParameterError(f"--parallel must be >= 1, got {args.parallel}")
    action = _actions(args.command)[args.axis]
    points = [argparse.Namespace(**vars(args)) for _ in values]
    for point, value in zip(points, values):
        setattr(point, args.axis, _convert(action, args.axis, value, "--values"))
        _fit_kwargs(point)  # every point's settings are checked before any is trained
    inputs = _load_inputs(args)
    with _recorded(args, args.out + ".manifest.json",
                   [args.features, args.aux, args.split, args.labels]) as man:
        if args.parallel > 1:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=args.parallel) as pool:
                results = list(pool.map(_sweep_point, points, [inputs] * len(points)))
        else:
            results = [_sweep_point(p, inputs) for p in points]
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("value,MAP\n")
            for value, map_k in zip(values, results):
                fh.write(f"{value},{map_k:.10g}\n")
        man["outputs"] = [args.out]
    for value, map_k in zip(values, results):
        print(f"sweep {args.axis}={value}: MAP@{args.k_eval} = {map_k:.6f}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "encode": cmd_encode,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():  # one `warning:` line each; the caller's display returns after
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            if args.config:
                _apply_config(args)
            if args.threads is not None:  # before a command imports numpy
                if args.threads < 1:  # OpenBLAS reads a count below 1 as "use every core"
                    raise ConfigError(f"threads must be >= 1, got {args.threads}")
                for var in _THREAD_VARS:
                    os.environ[var] = str(args.threads)
            return _COMMANDS[args.command](args)
        except (AghashError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
