"""Packed binary codes: Hamming scans, ranking, and scoring.

    python3 demos/demo_retrieval.py
"""

import time

import numpy as np

from aghash.retrieval import evaluate, hamming_to_all, pack, rank, unpack

rng = np.random.default_rng(0)

# Codes are stored as little-endian uint64 words, one row per item, so a
# 64-bit code is a single word and distances reduce to xor + popcount.
B = np.where(rng.random((64, 8)) < 0.5, 1.0, -1.0)
codes = pack(B)
print(f"{codes.n} codes at r={codes.r} -> packed shape {codes.packed.shape}")
assert np.array_equal(unpack(codes), B)

d0 = hamming_to_all(codes.packed[0], codes)
print(f"hamming(item0, item1) = {d0[1]} bits; item0 to all: {d0.tolist()}")
print(f"ranking for item0 (ties broken by index): {rank(codes.packed[0], codes).tolist()}")

# Throughput check: a full linear scan of 100k database codes for one query.
db = pack(np.where(rng.random((64, 100_000)) < 0.5, 1.0, -1.0))
q = db.packed[0]
start = time.perf_counter()
order = rank(q, db)
print(f"scanned {db.n} codes in {1e3 * (time.perf_counter() - start):.1f} ms; "
      f"nearest is item {order[0]} at distance 0")

# Scoring: queries are relevant to database items sharing a category. Build a
# toy case where codes encode the category exactly, so MAP is 1.
cat = rng.integers(0, 4, size=300)
proto = np.where(rng.random((32, 4)) < 0.5, 1.0, -1.0)
Bd = proto[:, cat]
labels = np.eye(4)[:, cat]
report = evaluate(pack(Bd[:, :20]), pack(Bd[:, 20:]), labels[:, :20], labels[:, 20:], K=100)
print(f"category-coded toy MAP@100 = {report.map_at_k:.3f}")
print(f"precision curve: {report.precision_curve}")
