import json
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aghash import retrieval as rt
from aghash.errors import DataError, FormatError, ParameterError, ShapeError


def random_codes(rng, n, r):
    B = np.where(rng.random((r, n)) < 0.5, 1.0, -1.0)
    return B, rt.pack(B)


# brute-force oracles operating on unpacked {-1,+1} vectors


def oracle_hamming(u, v):
    return sum(1 for a, b in zip(u, v) if a != b)


def oracle_order(Bq, Bd):
    """Db indices by (distance, index), distances from sign dot products."""
    r, n = Bd.shape
    dist = np.rint((r - Bd.T @ Bq) / 2.0).astype(np.int64)
    return np.lexsort((np.arange(n), dist))


def tied_codes(rng, n, r, patterns):
    """n codes, each one of a few random patterns with a bit or two flipped: many ties."""
    base = np.where(rng.random((r, patterns)) < 0.5, 1.0, -1.0)
    B = base[:, rng.integers(0, patterns, size=n)]
    flips = rng.integers(0, r, size=(2, n))
    keep = rng.random((2, n)) < 0.5
    for row, k in zip(flips, keep):
        B[row[k], np.flatnonzero(k)] *= -1.0
    return B


def oracle_ap(dists, relevance, K, denominator="min"):
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
    R = sum(relevance)
    if R == 0:
        return 0.0
    hits = 0
    total = 0.0
    for pos, idx in enumerate(order[:K], start=1):
        if relevance[idx]:
            hits += 1
            total += hits / pos
    denom = min(R, K) if denominator == "min" else R
    return total / denom


class TestPackUnpack:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for r in (1, 7, 16, 63, 64, 65, 128):
            B, codes = random_codes(rng, 5, r)
            assert codes.r == r
            assert np.array_equal(rt.unpack(codes), B)

    def test_word_layout(self):
        # single item, bit 0 set only: little-endian packing puts it in word 0 bit 0
        B = -np.ones((64, 1))
        B[0, 0] = 1.0
        codes = rt.pack(B)
        assert codes.packed[0, 0] == 1

    def test_rejects_non_pm_one(self):
        with pytest.raises(DataError):
            rt.pack(np.array([[0.5], [1.0]]))

    def test_unused_bits_validated(self):
        with pytest.raises(DataError):
            rt.HashCodes(packed=np.array([[1 << 10]], dtype=np.uint64), r=4)

    def test_item_ids_length_checked_when_given(self):
        packed = np.zeros((2, 1), dtype=np.uint64)
        assert rt.HashCodes(packed, 8, ["a", "b"]).n == 2
        with pytest.raises(ShapeError, match="1 item ids for 2 codes"):
            rt.HashCodes(packed, 8, ["a"])


class TestHamming:
    def test_examples(self):
        B = np.array([[1.0, -1.0], [1.0, 1.0], [1.0, -1.0]])
        codes = rt.pack(B)
        assert rt.hamming(codes.packed[0], codes.packed[1]) == 2
        assert rt.hamming(codes.packed[0], codes.packed[0]) == 0

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            r = int(rng.integers(1, 130))
            B, codes = random_codes(rng, 2, r)
            assert rt.hamming(codes.packed[0], codes.packed[1]) == oracle_hamming(B[:, 0], B[:, 1])

    @given(st.integers(1, 128), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, r, seed):
        rng = np.random.default_rng(seed)
        B, codes = random_codes(rng, 3, r)
        a, b, c = codes.packed
        dab, dba = rt.hamming(a, b), rt.hamming(b, a)
        assert dab == dba
        assert 0 <= dab <= r
        assert rt.hamming(a, a) == 0
        assert rt.hamming(a, c) <= dab + rt.hamming(b, c)

    def test_hamming_to_all(self):
        rng = np.random.default_rng(2)
        B, codes = random_codes(rng, 10, 33)
        dists = rt.hamming_to_all(codes.packed[0], codes)
        expect = [oracle_hamming(B[:, 0], B[:, j]) for j in range(10)]
        assert np.array_equal(dists, expect)

    @pytest.mark.parametrize("r, dtype", [(1, np.uint8), (255, np.uint8), (256, np.uint16),
                                          (300, np.uint16)])
    def test_hamming_to_all_dtype_holds_r(self, r, dtype):
        # item 1 is the complement of item 0, so its distance is r itself
        B = np.ones((r, 3))
        B[:, 1] = -1.0
        B[: r // 2, 2] = -1.0
        codes = rt.pack(B)
        dists = rt.hamming_to_all(codes.packed[0], codes)
        assert dists.dtype == dtype
        assert dists.tolist() == [0, r, r // 2]

    def test_hamming_to_all_rejects_word_count_mismatch(self):
        rng = np.random.default_rng(5)
        _, db = random_codes(rng, 5, 100)  # two words per code
        _, one_word = random_codes(rng, 1, 60)
        with pytest.raises(ShapeError, match="code word counts differ: 1 vs 2"):
            rt.hamming_to_all(one_word.packed[0], db)
        with pytest.raises(ShapeError, match="code word counts differ"):
            rt.rank(one_word.packed[0], db)


class TestRank:
    def test_ties_broken_by_index(self):
        B = np.array([[1.0, -1.0, -1.0, 1.0]])  # items 1 and 2 tie at distance 1
        codes = rt.pack(B)
        order = rt.rank(codes.packed[0], codes)
        assert list(order) == [0, 3, 1, 2]

    def test_all_identical(self):
        codes = rt.pack(np.ones((8, 5)))
        assert list(rt.rank(codes.packed[0], codes)) == [0, 1, 2, 3, 4]

    @given(st.sampled_from([1, 8, 63, 64, 255, 256, 300]), st.integers(1, 300),
           st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_lexsort_oracle(self, r, n, patterns, seed):
        rng = np.random.default_rng(seed)
        Bd = tied_codes(rng, n, r, patterns)
        Bq = tied_codes(rng, 2, r, patterns)
        db = rt.pack(Bd)
        for q in range(2):
            order = rt.rank(rt.pack(Bq[:, q:q + 1]).packed[0], db)
            assert np.array_equal(order, oracle_order(Bq[:, q], Bd))


class TestRankedPrefix:
    """evaluate sorts only the ranks it reads: the prefix must be rank's, byte for byte."""

    @staticmethod
    def check(dist, depth):
        prefix = rt._ranked_prefix(dist, depth)
        want = np.argsort(dist, kind="stable")[:depth]
        assert prefix.dtype == want.dtype and prefix.tobytes() == want.tobytes()

    def test_ties_straddle_the_cutoff(self):
        # distance 1 holds items 1, 3, 4, 6; a depth of 3 cuts inside that tie,
        # in a database long enough that only the prefix is sorted
        dist = np.full(rt._PREFIX_RATIO * 3 + 1, 9, dtype=np.uint8)
        dist[:8] = [0, 1, 2, 1, 1, 0, 1, 2]
        for depth in range(1, dist.size + 1):
            self.check(dist, depth)
        assert list(rt._ranked_prefix(dist, 3)) == [0, 5, 1]

    @given(st.sampled_from([1, 8, 64, 255, 256, 300]), st.integers(1, 300),
           st.integers(1, 6), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_stable_argsort(self, r, n, patterns, seed, data):
        rng = np.random.default_rng(seed)
        db = rt.pack(tied_codes(rng, n, r, patterns))
        dist = rt.hamming_to_all(rt.pack(tied_codes(rng, 1, r, patterns)).packed[0], db)
        depth = data.draw(st.sampled_from([1, n, data.draw(st.integers(1, n), label="depth")]),
                          label="which depth")
        self.check(dist, depth)

    @pytest.mark.parametrize("r", [1, 64])
    def test_full_depth_and_one_bit_codes(self, r):
        rng = np.random.default_rng(r)
        db = rt.pack(np.where(rng.random((r, 40)) < 0.5, 1.0, -1.0))
        dist = rt.hamming_to_all(db.packed[0], db)
        for depth in (1, 7, 39, 40):
            self.check(dist, depth)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        rel = np.array([1, 1, 0, 0])
        assert rt.average_precision(np.arange(4), rel, K=4) == 1.0

    def test_hand_case(self):
        # relevant at ranks 1 and 3 of 4, R=2: (1/1 + 2/3)/2
        rel = np.array([1, 0, 1, 0])
        ap = rt.average_precision(np.arange(4), rel, K=4)
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)

    def test_no_relevant(self):
        assert rt.average_precision(np.arange(3), np.zeros(3), K=3) == 0.0

    def test_denominator_modes(self):
        # three relevant items but K=2: min(R,K) forgives truncation, full does not
        rel = np.array([1, 1, 1])
        ap_min = rt.average_precision(np.arange(3), rel, K=2, denominator="min")
        ap_full = rt.average_precision(np.arange(3), rel, K=2, denominator="full")
        assert ap_min == 1.0
        assert ap_full == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_relevant_item_outside_top_K(self):
        rel = np.array([0, 0, 1])
        assert rt.average_precision(np.arange(3), rel, K=2) == 0.0

    def test_bad_K(self):
        with pytest.raises(ParameterError):
            rt.average_precision(np.arange(3), np.ones(3), K=0)

    def test_unknown_denominator(self):
        with pytest.raises(ParameterError, match="'bogus'"):
            rt.average_precision(np.arange(3), np.ones(3), K=2, denominator="bogus")

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            dists = rng.integers(0, 5, size=n)
            rel = rng.random(n) < 0.4
            K = int(rng.integers(1, n + 1))
            order = np.argsort(dists, kind="stable")
            mode = "min" if rng.random() < 0.5 else "full"
            got = rt.average_precision(order, rel, K, denominator=mode)
            want = oracle_ap(list(dists), list(rel.astype(int)), K, denominator=mode)
            assert got == pytest.approx(want, abs=1e-12)


class TestEvaluate:
    def test_perfect_separation(self):
        # queries identical to same-class db items
        Bq = np.array([[1.0, -1.0], [1.0, -1.0]])
        Bd = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
        Lq = np.array([[1.0, 0.0], [0.0, 1.0]])
        Ld = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        rep = rt.evaluate(rt.pack(Bq), rt.pack(Bd), Lq, Ld, K=4, curve_points=(1, 2, 4))
        assert rep.map_at_k == 1.0
        assert rep.precision_curve[0] == (1, 1.0)
        assert rep.precision_curve[-1] == (4, 0.5)
        assert rep.per_query_ap == [1.0, 1.0]

    def test_K_clamped_with_warning(self):
        B = np.ones((4, 3))
        L = np.ones((1, 3))
        with pytest.warns(UserWarning, match="clamping"):
            rep = rt.evaluate(rt.pack(B[:, :1]), rt.pack(B), L[:, :1], L, K=100)
        assert rep.map_at_k == 1.0

    def test_multilabel_relevance_rule(self):
        # relevance iff label vectors share at least one category
        Bq = np.ones((2, 1))
        Bd = np.ones((2, 2))
        Lq = np.array([[1.0], [1.0]])
        Ld = np.array([[1.0, 0.0], [0.0, 0.0]])
        rep = rt.evaluate(rt.pack(Bq), rt.pack(Bd), Lq, Ld, K=2, curve_points=(2,))
        assert rep.precision_curve == [(2, 0.5)]

    def test_errors(self):
        B = rt.pack(np.ones((4, 2)))
        with pytest.raises(ShapeError):
            rt.evaluate(B, rt.pack(np.ones((8, 2))), np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ShapeError):
            rt.evaluate(B, B, np.ones((1, 2)), np.ones((2, 2)))
        with pytest.raises(ShapeError):
            rt.evaluate(B, B, np.ones((1, 3)), np.ones((1, 2)))
        with pytest.raises(ParameterError, match="'bogus'"):
            rt.evaluate(B, B, np.ones((1, 2)), np.ones((1, 2)), denominator="bogus")
        with pytest.raises(ParameterError, match="K must be >= 1"):
            rt.evaluate(B, B, np.ones((1, 2)), np.ones((1, 2)), K=0)
        with pytest.raises(ParameterError, match="database is empty"):
            rt.evaluate(B, rt.pack(np.ones((4, 0))), np.ones((1, 2)), np.ones((1, 0)))

    @pytest.mark.parametrize("n_query", [3, 4, 5, 9])
    @pytest.mark.parametrize("denominator", ["min", "full"])
    @pytest.mark.parametrize("K, curve", [(7, (1, 3, 7, 20, 45)), (60, (1, 10, 50))])
    def test_matches_per_query_reference(self, monkeypatch, n_query, denominator, K, curve):
        # blocks of 4 queries: n_query is below, at and above one block, and spans three
        n_db, r, c = 50, 12, 3
        monkeypatch.setattr(rt, "_EVAL_BLOCK_BYTES", 8 * n_db * 4)
        rng = np.random.default_rng(n_query)
        Bq, Bd = tied_codes(rng, n_query, r, 3), tied_codes(rng, n_db, r, 3)
        Lq = (rng.random((c, n_query)) < 0.4).astype(float)
        Ld = (rng.random((c, n_db)) < 0.3).astype(float)
        query, db = rt.pack(Bq), rt.pack(Bd)
        clamped = pytest.warns(UserWarning, match="clamping") if K > n_db else nullcontext()
        with clamped:
            rep = rt.evaluate(query, db, Lq, Ld, K=K, curve_points=curve, denominator=denominator)
        K = min(K, n_db)
        points = sorted({min(k, n_db) for k in curve})
        aps, precs = [], np.zeros(len(points))
        for q in range(n_query):
            order = rt.rank(query.packed[q], db)
            rel = (Lq[:, q] @ Ld) >= 1.0
            aps.append(rt.average_precision(order, rel, K, denominator=denominator))
            precs += [rel[order][:k].mean() for k in points]
        assert rep.per_query_ap == aps
        assert rep.map_at_k == float(np.mean(aps))
        assert rep.precision_curve == [(k, float(p / n_query)) for k, p in zip(points, precs)]


class TestFiles:
    def test_codes_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        _, codes = random_codes(rng, 6, 70)
        p = tmp_path / "codes.txt"
        rt.save_codes(p, codes)
        back = rt.load_codes(p)
        assert back.r == 70
        assert np.array_equal(back.packed, codes.packed)

    def test_codes_bad_files(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("")
        with pytest.raises(FormatError):
            rt.load_codes(p)
        p.write_text("2 64\n00000000000000ff\n")
        with pytest.raises(ShapeError):
            rt.load_codes(p)
        p.write_text("1 64\nzzzz\n")
        with pytest.raises(FormatError):
            rt.load_codes(p)

    @given(st.integers(1, 4), st.integers(1, 130), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_truncated_codes_file_is_an_error(self, tmp_path_factory, n, r, seed, data):
        _, codes = random_codes(np.random.default_rng(seed), n, r)
        p = tmp_path_factory.getbasetemp() / "codes.txt"
        rt.save_codes(p, codes)
        saved = p.read_bytes()
        size = data.draw(st.integers(0, len(saved) - 1), label="size")
        p.write_bytes(saved[:size])
        try:
            back = rt.load_codes(p)
        except (FormatError, ShapeError):
            return
        # only a cut that drops nothing but the final newline leaves every code whole
        assert size == len(saved) - 1
        assert np.array_equal(back.packed, codes.packed)

    def test_report_files(self, tmp_path):
        rep = rt.EvalReport(
            map_at_k=0.75, precision_curve=[(1, 1.0), (5, 0.6)],
            per_query_ap=[1.0, 0.5],
        )
        jp, cp = tmp_path / "r.json", tmp_path / "r.csv"
        rt.save_report(jp, cp, rep)
        payload = json.loads(jp.read_text())
        assert set(payload) == {"map_at_k", "precision_curve", "per_query_ap"}  # no timing
        assert payload["map_at_k"] == 0.75
        assert payload["precision_curve"] == [[1, 1.0], [5, 0.6]]
        lines = cp.read_text().splitlines()
        assert lines[0] == "K,precision"
        assert lines[1] == "1,1"
