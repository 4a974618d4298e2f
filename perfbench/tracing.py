"""In-memory span tracer that wraps aghash's public functions from outside.

`Tracer.install` replaces every public function of each layer module, on every
module or dispatch table that holds it, with a wrapper that records a span:
name, layer, start, end and parent span. No source file of the library
changes, and `uninstall` puts the originals back. Spans stay in memory until
the run writes them out.
"""

import functools
import importlib
import inspect
import os
import resource
import statistics
import time

LAYERS = ("data", "attention", "graph", "network", "objective", "trainer",
          "retrieval", "manifest", "cli")

# spans that also record the growth of the process's peak resident set
_RSS_SPANS = ("trainer.fit", "trainer.encode_queries")


def maxrss_mb():
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "attrs")

    def __init__(self, name, layer, start, end, parent=None, attrs=None):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent  # index into the span list, or None at top level
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._patches = []

    def wrap(self, name, layer, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        track_rss = name in _RSS_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, 0.0, 0.0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            if track_rss:
                rss_before = maxrss_mb()
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if track_rss:
                    span.attrs["rss_growth_mb"] = maxrss_mb() - rss_before
                if name == "trainer.encode_queries" and len(args) > 1:
                    span.attrs["items"] = int(args[1].shape[1])
                if name == "retrieval.evaluate" and args:
                    span.attrs["queries"] = args[0].n
                if args and isinstance(args[0], str) and os.path.isfile(args[0]):
                    span.attrs["bytes"] = os.path.getsize(args[0])

        return traced

    def install(self, package="aghash"):
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        traced = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    traced[value] = self.wrap(f"{layer}.{attr}", layer, value)
        for mod in modules:
            namespace = vars(mod)
            tables = [namespace] + [v for k, v in namespace.items()
                                    if isinstance(v, dict) and not k.startswith("__")]
            for table in tables:
                for key, value in list(table.items()):
                    if inspect.isfunction(value) and value in traced:
                        self._patches.append((table, key, value))
                        table[key] = traced[value]

    def uninstall(self):
        while self._patches:
            table, key, original = self._patches.pop()
            table[key] = original


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    return [
        span.duration - _covered(((spans[c].start, spans[c].end) for c in kids),
                                 span.start, span.end)
        for span, kids in zip(spans, children)
    ]


def outer_total(spans, match):
    """Summed duration of matching spans that have no matching ancestor."""
    total = 0.0
    for span in spans:
        if not match(span):
            continue
        p = span.parent
        while p is not None and not match(spans[p]):
            p = spans[p].parent
        if p is None:
            total += span.duration
    return total


def per_layer_metrics(spans, wall_s, overhead_s, epoch_marks, distinct_codes, items_coded):
    """Per-layer metrics of one traced window; absent work reads as 0.

    `wall_s` is the traced window; the layers' self times plus
    `trace.unaccounted_s` (benchmark code outside any span) add up to it.
    """
    selfs = self_times(spans)
    by_name = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span.name, []).append((span, own))

    def total(*names):
        wanted = set(names)
        return outer_total(spans, lambda s: s.name in wanted)

    def self_sum(name):
        return sum(own for _, own in by_name.get(name, ()))

    def attr_sum(names, key):
        return sum(s.attrs.get(key, 0) for n in names for s, _ in by_name.get(n, ()))

    def median_ms(values):
        return statistics.median(values) * 1e3 if values else 0.0

    def p99_ms(values):
        return statistics.quantiles(values, n=100)[98] * 1e3 if len(values) > 1 else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    epochs = len(by_name.get("objective.backprop_all", ()))
    if len(epoch_marks) < 2:  # the CLI passes no epoch callback: use epoch starts
        epoch_marks = [s.start for s, _ in by_name.get("objective.backprop_all", ())]
    load_names = ("data.load_features", "data.load_aux")
    load_s = total(*load_names)
    encode_s = total("trainer.encode_queries")
    encoded = attr_sum(["trainer.encode_queries"], "items")
    rank_s = [s.duration for s, _ in by_name.get("retrieval.rank", ())]
    def rss(name):
        return max((s.attrs.get("rss_growth_mb", 0.0) for s, _ in by_name.get(name, ())), default=0.0)

    m = {
        "data.load_text_s": load_s,
        "data.load_text_mb_per_s": ratio(attr_sum(load_names, "bytes") / 1e6, load_s),
        "data.save_text_s": total("data.save_features", "data.save_aux"),
        "data.synth_s": total("data.synth_dataset"),
        "attention.denoise_s": total("attention.denoise"),
        "attention.scores_s": total("attention.attention_scores"),
        "graph.median_bandwidth_s": total("graph.median_bandwidth"),
        "graph.visual_similarity_s": total("graph.visual_similarity"),
        "graph.normalize_s": total("graph.normalize"),
        "graph.build_s": outer_total(spans, lambda s: s.layer == "graph"),
        "network.gcn_forward_s": total("network.gcn_forward"),
        "network.save_arrays_s": total("network.save_arrays"),
        "network.load_arrays_s": total("network.load_arrays"),
        "network.checkpoint_bytes": max((s.attrs.get("bytes", 0) for s, _ in
                                         by_name.get("network.save_arrays", ())), default=0),
        "objective.backprop_all_ms_per_epoch": ratio(self_sum("objective.backprop_all") * 1e3, epochs),
        "objective.reconstruction_loss_ms_per_epoch":
            ratio(total("objective.reconstruction_loss") * 1e3, epochs),
        "objective.gan_losses_ms_per_epoch": ratio(total("objective.gan_losses") * 1e3, epochs),
        "trainer.fit_s": total("trainer.fit"),
        "trainer.fit_self_ms_per_epoch": ratio(self_sum("trainer.fit") * 1e3, epochs),
        "trainer.adam_ms_per_epoch": ratio(total("trainer.adam_step") * 1e3, epochs),
        "trainer.adam_calls_per_epoch": ratio(len(by_name.get("trainer.adam_step", ())), epochs),
        "trainer.epoch_ms_p50": median_ms([b - a for a, b in zip(epoch_marks, epoch_marks[1:])]),
        "trainer.fit_rss_growth_mb": rss("trainer.fit"),
        "trainer.encode_queries_s": encode_s,
        "trainer.encode_items_per_s": ratio(encoded, encode_s),
        "trainer.encode_rss_growth_mb": rss("trainer.encode_queries"),
        "trainer.items_coded": items_coded,
        "trainer.distinct_codes_ratio": ratio(distinct_codes, items_coded),
        "retrieval.hamming_ms_p50": median_ms([s.duration for s, _ in
                                               by_name.get("retrieval.hamming_to_all", ())]),
        "retrieval.sort_ms_p50": median_ms([own for _, own in by_name.get("retrieval.rank", ())]),
        "retrieval.rank_ms_p50": median_ms(rank_s),
        "retrieval.rank_ms_p99": p99_ms(rank_s),
        "retrieval.rank_samples": len(rank_s),
        "retrieval.evaluate_queries_per_s": ratio(attr_sum(["retrieval.evaluate"], "queries"),
                                                  total("retrieval.evaluate")),
        "retrieval.evaluate_self_s": self_sum("retrieval.evaluate"),
        "retrieval.average_precision_s": total("retrieval.average_precision"),
        "retrieval.pack_s": total("retrieval.pack"),
        "retrieval.save_codes_s": total("retrieval.save_codes"),
        "retrieval.load_codes_s": total("retrieval.load_codes"),
        "manifest.file_digest_s": total("manifest.file_digest"),
        "manifest.bytes_hashed": attr_sum(["manifest.file_digest"], "bytes"),
        "cli.train_s": self_sum("cli.cmd_train"),
        "cli.encode_s": self_sum("cli.cmd_encode"),
        "cli.evaluate_s": self_sum("cli.cmd_evaluate"),
    }
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(1 for s in spans if s.layer == layer)
        m[f"{layer}.self_s"] = sum(own for s, own in zip(spans, selfs) if s.layer == layer)
    m["trace.wall_s"] = wall_s
    m["trace.unaccounted_s"] = wall_s - sum(selfs)
    m["trace.overhead_s"] = overhead_s
    m["trace.spans"] = len(spans)
    return m


def dump(spans):
    """Spans as JSON-ready rows: name, layer, start, end, parent, attrs."""
    return [[s.name, s.layer, s.start, s.end, s.parent, s.attrs] for s in spans]
