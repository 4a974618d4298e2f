"""Tests of the benchmark's own checks and tracer: each check must be able to fail.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aghash import retrieval  # noqa: E402
from aghash.errors import ShapeError  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _codes(rng, n, r=16):
    return np.where(rng.random((r, n)) < 0.5, 1.0, -1.0)


def _case(seed=0, n_query=8, n_db=60, r=16, c=3):
    rng = np.random.default_rng(seed)
    query, db = retrieval.pack(_codes(rng, n_query, r)), retrieval.pack(_codes(rng, n_db, r))
    ql = np.eye(c)[:, rng.integers(0, c, n_query)]
    dl = np.eye(c)[:, rng.integers(0, c, n_db)]
    return query, db, ql, dl


def test_library_rank_matches_brute_force():
    query, db, _, _ = _case()
    q_signs = checks.signs_from_packed(query.packed, query.r)
    db_signs = checks.signs_from_packed(db.packed, db.r)
    for i in range(query.n):
        assert checks.rank_matches(retrieval.rank(query.packed[i], db), q_signs[i], db_signs)


def test_swapped_ranking_fails():
    query, db, _, _ = _case()
    q = checks.signs_from_packed(query.packed, query.r)[0]
    db_signs = checks.signs_from_packed(db.packed, db.r)
    order = retrieval.rank(query.packed[0], db)
    dist = np.rint((db.r - db_signs @ q) / 2.0)[order]

    farther = order.copy()
    j = int(np.flatnonzero(dist != dist[0])[0])
    farther[[0, j]] = farther[[j, 0]]
    assert not checks.rank_matches(farther, q, db_signs)

    tie = order.copy()
    k = int(np.flatnonzero(dist[1:] == dist[:-1])[0])  # equal distance: index order decides
    tie[[k, k + 1]] = tie[[k + 1, k]]
    assert not checks.rank_matches(tie, q, db_signs)


def test_perturbed_map_fails():
    query, db, ql, dl = _case(seed=1)
    report = retrieval.evaluate(query, db, ql, dl, K=10)
    q_signs = checks.signs_from_packed(query.packed, query.r)
    db_signs = checks.signs_from_packed(db.packed, db.r)
    assert checks.map_matches(report.map_at_k, q_signs, db_signs, ql, dl, 10)[0]
    assert not checks.map_matches(report.map_at_k + 1e-6, q_signs, db_signs, ql, dl, 10)[0]
    assert not checks.map_matches(report.map_at_k * 0.9, q_signs, db_signs, ql, dl, 10)[0]


def test_map_oracle_matches_per_query_ap():
    query, db, ql, dl = _case(seed=2)
    report = retrieval.evaluate(query, db, ql, dl, K=7)
    aps = checks.average_precisions(checks.signs_from_packed(query.packed, query.r),
                                    checks.signs_from_packed(db.packed, db.r), ql, dl, 7)
    np.testing.assert_allclose(aps, report.per_query_ap, rtol=0, atol=1e-12)


def test_codes_outside_signs_fail():
    B = np.ones((4, 5))
    assert checks.all_signs(B)
    B[2, 3] = 0.0
    assert not checks.all_signs(B)
    assert not checks.all_signs(np.zeros((0, 3)))


def test_hand_built_span_tree_self_times():
    S = tracing.Span
    spans = [
        S("cli.main", "cli", 0.0, 10.0),
        S("data.load_features", "data", 1.0, 4.0, parent=0),
        S("trainer.fit", "trainer", 5.0, 9.0, parent=0),
        S("graph.normalize", "graph", 6.0, 7.0, parent=2),
        S("graph.fuse", "graph", 6.5, 8.0, parent=2),  # overlaps its sibling
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 2.0, 1.0, 1.5])
    assert tracing.outer_total(spans, lambda s: s.layer == "graph") == pytest.approx(2.5)

    # nested calls on one thread never overlap: drop the overlapping sibling
    m = tracing.per_layer_metrics(spans[:4], 12.0, 0.5, [], 0, 0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["trainer.self_s"] == pytest.approx(3.0)
    assert m["graph.self_s"] == pytest.approx(1.0)
    assert m["trace.unaccounted_s"] == pytest.approx(2.0)
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layer_self + m["trace.unaccounted_s"] == pytest.approx(m["trace.wall_s"])


def test_tracer_wraps_from_outside_and_restores():
    query, db, _, _ = _case()
    original = retrieval.rank
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert retrieval.rank is not original
        retrieval.rank(query.packed[0], db)
    finally:
        tracer.uninstall()
    assert retrieval.rank is original
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("retrieval.rank", None), ("retrieval.hamming_to_all", 0)]


def test_library_error_fails_the_operation():
    ops = workloads.Ops()
    with pytest.raises(workloads.Aborted):
        ops.call("hamming", retrieval.hamming, np.zeros(1, np.uint64), np.zeros(2, np.uint64))
    ops.check(ops.attempted, False, "a failed check on the same operation")
    assert (ops.attempted, len(ops.failed), len(ops.errors)) == (1, 1, 2)
    assert ShapeError.__name__ in ops.errors[0]
