"""Output checks that share no code with the library they check.

Codes are unpacked with numpy's own bit routines, Hamming distances come from
a dot product of sign vectors, and AP@K is recomputed from a brute-force
top-K with ties broken by database index.
"""

import numpy as np

# MAP values are sums of a few hundred fractions; the library and this oracle
# may add them in a different order.
MAP_TOLERANCE = 1e-9


def all_signs(B):
    """True when every entry is -1 or +1."""
    B = np.asarray(B)
    return B.size > 0 and bool(np.all((B == 1) | (B == -1)))


def signs_from_packed(packed, r):
    """n x r sign matrix from n x words little-endian uint64 rows (bit 1 is +1)."""
    packed = np.ascontiguousarray(packed, dtype="<u8")
    bits = np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little")[:, :r]
    return bits.astype(np.float64) * 2.0 - 1.0


def hamming_order(q_signs, db_signs):
    """Db indices by ascending Hamming distance, ties by index."""
    r = db_signs.shape[1]
    dist = np.rint((r - db_signs @ q_signs) / 2.0).astype(np.int64)
    return np.lexsort((np.arange(db_signs.shape[0]), dist))


def rank_matches(order, q_signs, db_signs):
    return np.array_equal(np.asarray(order), hamming_order(q_signs, db_signs))


def average_precisions(q_signs, db_signs, q_labels, db_labels, K, block=32):
    """Per-query AP@K with denominator min(R, K); items sharing a label are relevant."""
    n, r = db_signs.shape
    K = min(K, n)
    index = np.arange(n, dtype=np.int64)
    out = np.empty(q_signs.shape[0])
    for lo in range(0, q_signs.shape[0], block):
        hi = min(lo + block, q_signs.shape[0])
        dist = np.rint((r - q_signs[lo:hi] @ db_signs.T) / 2.0).astype(np.int64)
        key = dist * n + index
        top = np.argpartition(key, K - 1, axis=1)[:, :K]
        top = np.take_along_axis(top, np.argsort(np.take_along_axis(key, top, 1), axis=1), 1)
        rel = (np.asarray(q_labels)[:, lo:hi].T @ np.asarray(db_labels)) >= 1.0
        hits = np.take_along_axis(rel, top, 1).astype(np.float64)
        prec = np.cumsum(hits, axis=1) / np.arange(1, K + 1)
        R = rel.sum(axis=1)
        ap = (prec * hits).sum(axis=1) / np.maximum(np.minimum(R, K), 1)
        out[lo:hi] = np.where(R > 0, ap, 0.0)
    return out


def map_matches(reported_map, q_signs, db_signs, q_labels, db_labels, K):
    """(ok, oracle MAP): the reported MAP@K equals the brute-force one."""
    oracle = float(np.mean(average_precisions(q_signs, db_signs, q_labels, db_labels, K)))
    return abs(reported_map - oracle) <= MAP_TOLERANCE, oracle


def read_codes_file(path):
    """(packed, r) from a codes file: 'n r' header, then hex words per item."""
    with open(path, "r", encoding="ascii") as fh:
        n, r = (int(tok) for tok in fh.readline().split())
        rows = [[int(word, 16) for word in line.split()] for line in fh if line.strip()]
    packed = np.array(rows, dtype=np.uint64).reshape(n, -1)
    return packed, r


def read_label_file(path):
    """c x n matrix from a text label file: 'c n' header, then comma-separated rows."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
