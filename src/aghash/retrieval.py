"""Packed binary codes, Hamming ranking, and MAP / topK-precision evaluation."""

import json
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .data import read_lines, reject_entries
from .errors import DataError, FormatError, ParameterError, ShapeError, require_integer

_WORD_BITS = 64
# the bytes of one n-wide temporary: evaluate's query blocks (the relevance
# product, the XORed words, the sort keys over n_db items) and encode_queries'
# query panels (the graph columns over n training items) are sized to it
BLOCK_BYTES = 4 << 20
# a row of 64-bit words as save_codes writes them: 16 hex digits each, separated by whitespace
_HEX_ROW = re.compile(r"[0-9a-fA-F]{16}(?:\s+[0-9a-fA-F]{16})*")


@dataclass(frozen=True)
class HashCodes:
    """n x ceil(r/64) packed codes; bit 1 encodes +1."""

    packed: np.ndarray
    r: int
    item_ids: list | None = None  # optional; no library code or file format sets it

    def __post_init__(self):
        require_integer("r", self.r, 1)
        packed = np.ascontiguousarray(self.packed, dtype=np.uint64)
        words = (self.r + _WORD_BITS - 1) // _WORD_BITS
        if packed.ndim != 2 or packed.shape[1] != words:
            raise ShapeError(f"packed array is {packed.shape}, expected (n, {words})")
        spare = words * _WORD_BITS - self.r
        if spare and packed.size:
            if np.any(packed[:, -1] >> np.uint64(_WORD_BITS - spare)):
                raise DataError("unused high bits of the last word must be zero")
        if self.item_ids is not None and len(self.item_ids) != packed.shape[0]:
            raise ShapeError(f"{len(self.item_ids)} item ids for {packed.shape[0]} codes")
        packed.setflags(write=False)
        object.__setattr__(self, "packed", packed)

    @property
    def n(self):
        return self.packed.shape[0]


@dataclass(frozen=True)
class EvalReport:
    k: int  # the K scored at: the one asked for, clamped to the database size
    map_at_k: float
    precision_curve: list  # [(K, precision), ...] with strictly increasing K
    per_query_ap: list


def pack(B):
    """Pack an r x n matrix over {-1,+1} (columns are items).

    Every temporary holds one byte per entry or less: the masks B == 1 and
    B == -1, and the sign bits packed eight to a byte.
    """
    B = np.asarray(B)
    if B.ndim != 2:
        raise ShapeError(f"expected an r x n matrix, got shape {B.shape}")
    pos = B == 1
    valid = B == -1
    valid |= pos
    if not valid.all():
        raise DataError("code entries must be -1 or +1")
    del valid
    r, n = B.shape
    words = (r + _WORD_BITS - 1) // _WORD_BITS
    packed = np.zeros((n, 8 * words), dtype=np.uint8)
    packed[:, :(r + 7) // 8] = np.packbits(pos, axis=0, bitorder="little").T
    return HashCodes(packed=packed.view(np.uint64), r=r)


def unpack(codes):
    """Inverse of pack: r x n matrix over {-1,+1}."""
    bits = np.unpackbits(codes.packed.view(np.uint8), axis=1, bitorder="little")
    return np.where(bits[:, :codes.r].T > 0, 1.0, -1.0)


def hamming(a, b):
    """Number of differing bits between two packed code rows."""
    a = np.asarray(a, dtype=np.uint64).ravel()
    b = np.asarray(b, dtype=np.uint64).ravel()
    if a.shape != b.shape:
        raise ShapeError(f"code word counts differ: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(a ^ b).sum())


def hamming_to_all(query_words, db):
    """Hamming distances from one packed code, or from each row of a block of them, to every row of db.

    One code's words give n_db distances, a b x words block b x n_db. The
    distances come back in the smallest unsigned dtype that holds db.r
    (uint8 up to r = 255, uint16 up to 65535), which numpy's stable argsort
    radix-sorts.
    """
    q = np.atleast_1d(np.asarray(query_words, dtype=np.uint64))
    if q.shape[-1] != db.packed.shape[1]:
        raise ShapeError(f"code word counts differ: {q.shape[-1]} vs {db.packed.shape[1]}")
    return np.bitwise_count(db.packed ^ q[..., None, :]).sum(axis=-1, dtype=np.min_scalar_type(db.r))


def rank(query_words, db):
    """Db indices by ascending Hamming distance, ties broken by item index."""
    dist = hamming_to_all(query_words, db)
    return np.argsort(dist, kind="stable")


def _ranked_prefix(dist, depth):
    """rank's first `depth` indices from the distances: argsort(dist, kind="stable")[:depth].

    `dist` is one query's distances, or a row of them per query, ranked row
    by row. Each item's key packs its distance above its index,
    (dist << bits(n)) | i, in the smallest unsigned dtype that holds the
    largest key. The keys are unique and order as (distance, index) pairs
    do, so partitioning them at depth - 1 and sorting the `depth` smallest
    gives the stable order.
    """
    n = dist.shape[-1]
    shift = (n - 1).bit_length()
    dtype = np.min_scalar_type((int(dist.max()) << shift) | (n - 1))
    keys = np.left_shift(dist, shift, dtype=dtype)
    keys |= np.arange(n, dtype=dtype)
    if depth < n:
        keys = np.partition(keys, depth - 1, axis=-1)[..., :depth]
    keys.sort(axis=-1)
    return np.bitwise_and(keys, (1 << shift) - 1, dtype=np.intp)


def _check_denominator(denominator):
    if denominator not in ("min", "full"):
        raise ParameterError(f"unknown denominator {denominator!r}: expected 'min' or 'full'")


def _ap(hits, R, K, denominator):
    """AP@K from the 0/1 relevance of the ranked items, top first, and the relevant count R.

    2-D hits hold one query per row, with R one count per row; AP is 0 where R is 0.
    """
    top = hits[..., :K].astype(np.float64)
    prec = np.cumsum(top, axis=-1) / np.arange(1, top.shape[-1] + 1)
    denom = np.minimum(R, K) if denominator == "min" else R
    return np.divide((prec * top).sum(axis=-1), denom, out=np.zeros(np.shape(R)), where=R > 0)


def average_precision(ranking, relevance, K, denominator="min"):
    """AP@K with denominator min(R, K) ('min') or the full relevant count R ('full')."""
    relevance = np.asarray(relevance)
    ranking = np.asarray(ranking)
    if relevance.shape[0] != ranking.shape[0]:
        raise ShapeError(f"relevance length {relevance.shape[0]} != db size {ranking.shape[0]}")
    require_integer("K", K)
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    _check_denominator(denominator)
    return float(_ap(relevance[ranking[:K]], int(relevance.sum()), K, denominator))


def check_curve(curve_points):
    """Raise unless the topK-precision curve has a K, and each is an integer >= 1."""
    if not len(curve_points):
        raise ParameterError("the curve needs at least one K")
    for k in curve_points:
        require_integer("curve point", k, 1)


def evaluate(query_codes, db_codes, query_labels, db_labels, K=1000,
             curve_points=(1, 5, 10, 50, 100, 500, 1000), denominator="min"):
    """MAP@K and topK-precision. Items are relevant iff their labels share a category.

    Labels are c x n matrices of 0/1 entries. K beyond the db size is clamped
    to it with a warning. Curve points beyond it are clamped without one,
    since the default curve reaches K = 1000, and points that clamp to the
    same K merge into one.
    """
    if query_codes.n == 0:
        raise ParameterError("query set is empty")
    if db_codes.n == 0:
        raise ParameterError("database is empty")
    if query_codes.r != db_codes.r:
        raise ShapeError(f"code lengths differ: {query_codes.r} vs {db_codes.r}")
    query_labels = np.asarray(query_labels)
    db_labels = np.asarray(db_labels)
    if query_labels.ndim != 2 or db_labels.ndim != 2:
        raise ShapeError(f"labels must be c x n matrices, got shapes {query_labels.shape} and {db_labels.shape}")
    if query_labels.shape[0] != db_labels.shape[0]:
        raise ShapeError("query and db label matrices must share the category count")
    if query_labels.shape[1] != query_codes.n or db_labels.shape[1] != db_codes.n:
        raise ShapeError("label column counts must match code counts")
    for what, labels in (("query", query_labels), ("database", db_labels)):  # before any cast
        reject_entries((labels != 0) & (labels != 1), what + " label at row {}, column {} is not 0/1")
    query_labels = query_labels.astype(np.float64, copy=False)
    db_labels = db_labels.astype(np.float64, copy=False)
    require_integer("K", K)
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    check_curve(curve_points)
    _check_denominator(denominator)

    n_db = db_codes.n
    if K > n_db:
        warnings.warn(f"K={K} exceeds database size {n_db}; clamping", stacklevel=2)
        K = n_db
    points = sorted({min(int(k), n_db) for k in curve_points})
    pts = np.array(points)
    depth = max(K, points[-1])  # ranks past this one change no score
    block = max(1, BLOCK_BYTES // (8 * n_db * db_codes.packed.shape[1]))

    aps = []
    prec_sums = np.zeros(len(points))
    for lo in range(0, query_codes.n, block):
        rel = (query_labels[:, lo:lo + block].T @ db_labels) >= 1.0
        R = rel.sum(axis=1)
        dist = hamming_to_all(query_codes.packed[lo:lo + block], db_codes)
        hits = np.take_along_axis(rel, _ranked_prefix(dist, depth), axis=1)
        aps.extend(_ap(hits, R, K, denominator).tolist())
        for prec in np.cumsum(hits, axis=1)[:, pts - 1] / pts:  # summed in query order
            prec_sums += prec

    curve = [(kk, float(prec_sums[pi] / query_codes.n)) for pi, kk in enumerate(points)]
    return EvalReport(
        k=int(K),
        map_at_k=float(np.mean(aps)),
        precision_curve=curve,
        per_query_ap=aps,
    )


# ---------------------------------------------------------------------------
# file formats: codes as "n r" header + hex words per item; reports as JSON
# plus a "K,precision" CSV for the curve.
# ---------------------------------------------------------------------------


def save_codes(path, codes):
    line = " ".join(["{:016x}"] * codes.packed.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{codes.n} {codes.r}\n")
        for row in codes.packed:
            fh.write(line.format(*row.tolist()))


def load_codes(path):
    lines = read_lines(path)
    if not lines:
        raise FormatError(f"{path}: file is empty")
    parts = lines[0].split()
    if len(parts) != 2:
        raise FormatError(f"{path}: header must be 'n r'")
    try:
        n, r = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer header") from exc
    if r < 1:
        raise FormatError(f"{path}: header {lines[0]!r} declares code length {r}, expected >= 1")
    if len(lines) - 1 != n:
        raise ShapeError(f"{path}: header declares {n} codes, found {len(lines) - 1}")
    words = (r + _WORD_BITS - 1) // _WORD_BITS
    for i, line in enumerate(lines[1:]):  # every width checked before any word is read
        if len(line.split()) != words:
            raise ShapeError(f"{path}: row {i} has {len(line.split())} words, expected {words}")
    for i, line in enumerate(lines[1:]):  # a fixed width also catches a file cut inside its last word
        if not _HEX_ROW.fullmatch(line):
            raise FormatError(f"{path}: bad hex word in row {i}: words are 16 hex digits")
    # the words as big-endian bytes, whitespace dropped
    payload = bytes.fromhex("".join("".join(lines[1:]).split()))
    return HashCodes(packed=np.frombuffer(payload, dtype=">u8").reshape(n, words), r=r)


def save_report(json_path, curve_path, report):
    payload = {
        "k": report.k,
        "map_at_k": report.map_at_k,
        "precision_curve": [[k, p] for k, p in report.precision_curve],
        "per_query_ap": report.per_query_ap,
    }
    with open(json_path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    with open(curve_path, "w", encoding="ascii") as fh:
        fh.write("K,precision\n")
        for k, p in report.precision_curve:
            fh.write(f"{k},{p:.10g}\n")
