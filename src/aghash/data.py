"""Feature/label file IO, synthetic clustered data, and train/query/retrieval splits."""

import json
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AghashError, DataError, FormatError, ParameterError, ShapeError, require_integer

BINARY_MAGIC = b"AGFM"
BINARY_VERSION = 1
_HEADER = struct.Struct("<4sIII")  # magic, version, d, n
# whitespace to numpy's text reader, but not to float()
_READER_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


@dataclass(frozen=True)
class FeatureMatrix:
    """Real-valued d x n matrix, one column per item."""

    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ShapeError(f"feature matrix must be 2-D and non-empty, got shape {np.shape(self.data)}")
        bad = np.argwhere(~np.isfinite(data))
        if bad.size:
            i, j = bad[0]
            raise DataError(f"non-finite feature value at row {i}, column {j}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def d(self):
        return self.data.shape[0]

    @property
    def n(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class AuxSemantics:
    """Binary c x n category-indicator matrix, one column per item."""

    data: np.ndarray

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ShapeError(f"aux matrix must be 2-D and non-empty, got shape {np.shape(self.data)}")
        bad = np.argwhere((data != 0.0) & (data != 1.0))
        if bad.size:
            i, j = bad[0]
            raise DataError(f"aux entry at row {i}, column {j} is not 0/1")
        empty = np.flatnonzero(data.sum(axis=0) == 0)
        if empty.size:
            warnings.warn(
                f"{empty.size} item(s) have no auxiliary semantics (first: column {empty[0]})",
                stacklevel=3,  # past the dataclass __init__ to the constructing call
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def c(self):
        return self.data.shape[0]

    @property
    def n(self):
        return self.data.shape[1]


@dataclass(frozen=True)
class DatasetSplit:
    """Index sets over [0, n): train/query disjoint, query/retrieval disjoint."""

    train: np.ndarray
    query: np.ndarray
    retrieval: np.ndarray

    def __post_init__(self):
        for name in ("train", "query", "retrieval"):
            idx = np.asarray(getattr(self, name), dtype=np.int64)
            if idx.ndim != 1:
                raise ShapeError(f"{name} indices must be 1-D")
            if idx.size and idx.min() < 0:
                raise ParameterError(f"negative index in {name}")
            values, counts = np.unique(idx, return_counts=True)
            if counts.max(initial=1) > 1:
                raise ParameterError(f"{name} index {values[counts > 1][0]} is repeated")
            idx.setflags(write=False)
            object.__setattr__(self, name, idx)
        if np.intersect1d(self.train, self.query).size:
            raise ParameterError("train and query sets overlap")
        if np.intersect1d(self.query, self.retrieval).size:
            raise ParameterError("query and retrieval sets overlap")

    def subset(self, name, n):
        """The `name` ('train', 'query' or 'retrieval') indices, checked against n items."""
        idx = getattr(self, name)
        bad = idx[idx >= n]
        if bad.size:
            raise ParameterError(f"{name} index {bad[0]} is out of range for {n} items")
        return idx


# ---------------------------------------------------------------------------
# file IO
#
# Text features: first line "d n", then d comma-separated rows of n values.
# Binary features: 16-byte header (magic, version, d, n), then d*n
# little-endian float32 values in row-major order. A reader tells the two
# apart by the magic, which no valid text file starts with (a header line is digits).
# Aux / label files use the text feature layout with 0/1 entries.
# Every file identifies an item by its column position: no format stores
# item ids or category names.
# ---------------------------------------------------------------------------


def _parse_header_line(line, path):
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"{path}: header must be 'rows cols', got {line!r}")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer header {line!r}") from exc
    if rows < 1 or cols < 1:
        raise FormatError(f"{path}: header declares empty matrix {rows}x{cols}")
    return rows, cols


def read_lines(path):
    """The stripped, non-blank lines of an ASCII text file."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not ASCII text") from None


def _load_text_matrix(path):
    """The rows x cols text matrix: each row parsed in C, or line by line where that fails."""
    try:
        out = _parse_rows(path)
    except (AghashError, ValueError):  # a UnicodeDecodeError is a ValueError
        out = None
    return _parse_lines(path) if out is None else out


def _parse_rows(path):
    """The matrix from numpy's C reader, one streamed row at a time; None if a row does not fit.

    The reader's grammar is float()'s without digit underscores, which it
    rejects, and with the separators \\x1c-\\x1f as whitespace, which a row
    holding one leaves to the line-by-line parse. The rows x cols array is
    allocated only once the file can hold it: a value and its separator take
    at least 2 bytes.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = filter(None, map(str.strip, fh))
        header = next(lines, None)
        if header is None:
            return None
        rows, cols = _parse_header_line(header, path)
        if 2 * rows * cols > os.fstat(fh.fileno()).st_size:
            return None
        out = np.empty((rows, cols), dtype=np.float64)
        read = 0
        for line in lines:
            if read == rows or any(sep in line for sep in _READER_ONLY_SPACE):
                return None
            row = np.loadtxt((line,), delimiter=",", dtype=np.float64, comments=None, quotechar=None, ndmin=1)
            if row.shape != (cols,):
                return None
            out[read] = row
            read += 1
    return out if read == rows else None


def _parse_lines(path):
    """The matrix parsed with float()'s grammar; raises the error that names what is wrong."""
    lines = read_lines(path)
    if not lines:
        raise FormatError(f"{path}: file is empty")
    rows, cols = _parse_header_line(lines[0], path)
    if len(lines) - 1 != rows:
        raise ShapeError(f"{path}: header declares {rows} rows, found {len(lines) - 1}")
    for i, line in enumerate(lines[1:]):  # every width checked before the header sizes an array
        if line.count(",") + 1 != cols:
            raise ShapeError(f"{path}: row {i} has {line.count(',') + 1} values, expected {cols}")
    out = np.empty((rows, cols), dtype=np.float64)
    for i, line in enumerate(lines[1:]):
        tokens = line.split(",")
        try:
            out[i] = np.array(tokens, dtype=np.float64)
        except ValueError:
            # the same parse one token at a time, to name the bad value
            for j, tok in enumerate(tokens):
                try:
                    out[i, j] = float(tok)
                except ValueError as exc:
                    raise FormatError(f"{path}: unparseable value {tok!r} at row {i}, column {j}") from exc
    return out


def _from_file(path, kind, data):
    """`kind(data)`, its value-contract error and warnings prefixed with the file it came from."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = kind(data)
        except AghashError as exc:
            raise type(exc)(f"{path}: {exc}") from None
    for w in caught:
        warnings.warn(f"{path}: {w.message}", w.category, stacklevel=3)  # at the loader's caller
    return value


def load_features(path):
    """Load a FeatureMatrix: binary if the file starts with the binary magic, else text-csv."""
    with open(path, "rb") as fh:
        binary = fh.read(len(BINARY_MAGIC)) == BINARY_MAGIC
        fh.seek(0)
        raw = fh.read() if binary else None
    if not binary:
        data = _load_text_matrix(path)
    else:
        if len(raw) < _HEADER.size:
            raise FormatError(f"{path}: file too short for binary header")
        _, version, d, n = _HEADER.unpack_from(raw)
        if version != BINARY_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if d < 1 or n < 1:
            raise FormatError(f"{path}: header declares empty matrix {d}x{n}")
        payload = raw[_HEADER.size:]
        if len(payload) != d * n * 4:
            raise ShapeError(f"{path}: payload is {len(payload)} bytes, expected {d * n * 4}")
        data = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(d, n)
    return _from_file(path, FeatureMatrix, data)


def save_features(path, features, format="text"):
    """Write a FeatureMatrix. Binary round-trips bit-exactly (float32 payload)."""
    data = features.data
    if format == "text":
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{features.d} {features.n}\n")
            line = ",".join(["{:.9g}"] * features.n) + "\n"
            for row in data:  # Python floats format faster than numpy scalars, to the same text
                fh.write(line.format(*row.tolist()))
    elif format == "binary":
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, features.d, features.n))
            fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())
    else:
        raise ParameterError(f"unknown feature format {format!r}")


def load_aux(path):
    """Load an AuxSemantics matrix (text layout, 0/1 entries)."""
    data = _load_text_matrix(path)
    return _from_file(path, AuxSemantics, data)


def save_aux(path, aux):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{aux.c} {aux.n}\n")
        for row in aux.data:
            fh.write(",".join(map(str, row.astype(np.int64).tolist())) + "\n")


def save_split(path, split):
    payload = {
        "train": split.train.tolist(),
        "query": split.query.tolist(),
        "retrieval": split.retrieval.tolist(),
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_split(path):
    with open(path, "r", encoding="ascii") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # not JSON, or not ASCII
            raise FormatError(f"{path}: not valid JSON") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: split must be a JSON object")
    subsets = {}
    for name in ("train", "query", "retrieval"):
        if name not in payload:
            raise FormatError(f"{path}: missing split key {name!r}")
        values = payload[name]
        if not isinstance(values, list) or not all(type(v) is int and abs(v) < 2**63 for v in values):
            raise FormatError(f"{path}: split {name!r} must be a list of 64-bit integers")
        subsets[name] = np.asarray(values, dtype=np.int64)
    return _from_file(path, lambda subsets: DatasetSplit(**subsets), subsets)


# ---------------------------------------------------------------------------
# synthetic data and splits
# ---------------------------------------------------------------------------


def _cluster_means(c, d, sep, rng):
    if c == 1:
        return np.zeros((1, d))
    if c <= d:
        # scaled basis vectors: all pairwise distances exactly sep
        means = np.zeros((c, d))
        means[np.arange(c), np.arange(c)] = sep / np.sqrt(2.0)
        return means
    # more clusters than dimensions: random means rescaled to mean distance sep
    means = rng.standard_normal((c, d))
    diffs = means[:, None, :] - means[None, :, :]
    dist = np.sqrt((diffs**2).sum(-1))
    mean_dist = dist[np.triu_indices(c, 1)].mean()
    if mean_dist > 0:
        means *= sep / mean_dist
    return means


def synth_dataset(n, d, c, sep, label_noise, seed):
    """Generate c isotropic Gaussian clusters with one-hot (optionally noisy) aux labels.

    Returns (features, aux, truth) where truth holds the clean cluster one-hots.
    """
    if c < 1 or n < c:
        raise ParameterError(f"need n >= c >= 1, got n={n}, c={c}")
    if d < 1:
        raise ParameterError(f"need d >= 1, got d={d}")
    if not (np.isfinite(sep) and sep >= 0):
        raise ParameterError(f"need a finite sep >= 0, got {sep}")
    if not 0.0 <= label_noise <= 1.0:
        raise ParameterError(f"label_noise must be in [0,1], got {label_noise}")
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    means = _cluster_means(c, d, sep, rng)
    assign = rng.integers(0, c, size=n)
    X = means[assign].T + rng.standard_normal((d, n))
    truth = np.zeros((c, n))
    truth[assign, np.arange(n)] = 1.0
    flips = rng.random((c, n)) < label_noise
    aux = np.abs(truth - flips.astype(np.float64))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # noisy flips may zero out a column
        aux_sem = AuxSemantics(aux)
    return FeatureMatrix(X), aux_sem, AuxSemantics(truth)


def make_split(n, sizes, seed, include_train_in_retrieval=True):
    """Random disjoint train/query split; retrieval is the complement of query.

    By default training items stay in the retrieval set; pass
    include_train_in_retrieval=False to exclude them.
    """
    train_sz, query_sz = sizes
    if train_sz < 0 or query_sz < 0:
        raise ParameterError(f"split sizes must be nonnegative, got {sizes}")
    if train_sz + query_sz > n:
        raise ParameterError(f"train+query = {train_sz + query_sz} exceeds n = {n}")
    require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    train = np.sort(perm[:train_sz])
    query = np.sort(perm[train_sz:train_sz + query_sz])
    drop = query if include_train_in_retrieval else np.concatenate([query, train])
    retrieval = np.setdiff1d(np.arange(n), drop)
    return DatasetSplit(train, query, retrieval)
