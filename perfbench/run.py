"""Benchmark for aghash: one workload per fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one process each

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json, measured untraced; with `--trace 1`
they are its per-layer metrics, taken from a traced pass. The line before it
records the machine and the run's details. A traced run also writes its spans
to `.bench_build/perfbench/`.

The BLAS thread count of each workload is pinned before numpy loads.
"""

import argparse
import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# BLAS threads per workload: train-n1000, search-100k and cli-files run at one
# thread (bit-reproducible); graph-n3000 at two, the default on a 2-core host.
THREADS = {"train-n1000": 1, "graph-n3000": 2, "search-100k": 1, "cli-files": 1}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Seed reserved for confirming a claimed gain on inputs not used while the
# change was written.
CONFIRM_SEED = 7919


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*THREADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_library():
    """Import aghash from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import aghash
    except ImportError:
        return None
    if Path(aghash.__file__).resolve().parent.parent != src.resolve():
        return None
    return aghash


def commit_hash():
    """HEAD of the checkout's git metadata, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine(workload, threads):
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": threads,
        "blas_threads_reported": blas_threads(),
        "hardware_counters": "not used; timings are wall clock",
        "commit": commit_hash(),
        "workload": workload,
        "confirm_seed": CONFIRM_SEED,
    }


def result_line(correct, attempted, failed, values, names):
    """The result object; every metric named in `names` must have been measured."""
    units = {m["name"]: m["unit"] for m in names}
    missing = [n for n in units if n not in values]
    if missing and correct:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items() if n in values}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_one(args, spec):
    threads = min(THREADS[args.workload], len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    if import_library() is None:
        print(f"error: cannot import aghash from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    correct, attempted, failed, values, detail, spans = workloads.run(
        args.workload, args.seed, args.seconds, args.trace, str(OUT_DIR))
    info = machine(args.workload, threads)
    info.update(seed=args.seed, seconds=args.seconds, trace=args.trace, detail=detail)
    if args.trace:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"machine": info, "metrics": values,
                       "columns": ["name", "layer", "start", "end", "parent", "attrs"],
                       "spans": spans}, fh)
        info["trace_file"] = str(path.relative_to(ROOT))
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps(info))
    print(json.dumps(result_line(correct, attempted, failed, values, names)))
    return 0


def run_all(args, spec):
    """Each workload in its own process; prints every metric, then one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in THREADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:42s} {v['value']:>14.6g} {v['unit']}")
            summary["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(summary))
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "aghash").is_dir():
        print(f"error: no aghash sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
