"""Two-layer GCN encoder and the checkpoint container.

Forward passes only; gradients live in `objective`.
"""

import json
import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import FormatError, require_sizes

CHECKPOINT_MAGIC = b"AGCK"
CHECKPOINT_VERSION = 6


@dataclass
class GcnParams:
    W1: np.ndarray  # h x k
    W2: np.ndarray  # r x h

    @property
    def r(self):
        return self.W2.shape[0]


def init_params(d_prime, h, r, seed):
    """He-style init: Gaussian entries with std sqrt(2/fan_in); W1 is drawn h x d'."""
    require_sizes(d_prime=d_prime, hidden=h, r=r)
    rng = np.random.default_rng(seed)

    def mat(rows, cols):
        return rng.standard_normal((rows, cols)) * np.sqrt(2.0 / cols)

    return GcnParams(mat(h, d_prime), mat(r, h))


def parameters(*groups):
    """Ordered name -> array registry over parameter groups.

    A group is any dataclass whose fields are arrays (GcnParams,
    attention.AttentionParams); field names are unique across groups.
    """
    return {f.name: getattr(g, f.name) for g in groups for f in fields(g)}


def relu(x, out=None):
    """max(x, 0), written into `out` when given (x itself for an in-place ReLU)."""
    return np.maximum(x, 0.0, out=out)


def gcn_layers(H, S_tilde, params, out=None):
    """Both GCN layers on H = Xatt S~: (Z1, Z) = (ReLU(W1 H), (W2 Z1) S~); Z has no activation.

    Layer 2 is W2 (Z1 S~) reassociated: W2 Z1 has r << h rows, so the n x n
    product costs r n^2 multiply-adds instead of h n^2. S~ is a
    `graph.SymGraph` or an n x n array: either serves `M @ S~`. Z1 is
    written into `out` when given, an h x n buffer of the product's dtype,
    so a training loop reuses one buffer for Z1 in every epoch.
    """
    Z1 = np.matmul(params.W1, H, out=out)
    relu(Z1, out=Z1)  # the ReLU in the product's buffer
    return Z1, (params.W2 @ Z1) @ S_tilde


# ---------------------------------------------------------------------------
# checkpoint container: deterministic versioned binary format
#
# magic, version, meta length (uint32 each after the magic), meta JSON (utf-8),
# then every array as raw little-endian float64 in C order. The file holds no
# array names or shapes: the reader derives them from the meta.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sII")  # magic, version, meta length


def save_arrays(path, arrays, meta):
    """Write the JSON meta, then the arrays in the order given; byte-deterministic."""
    raw = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(raw)) + raw)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_arrays(path, shapes):
    """Inverse of save_arrays: (arrays shaped as `shapes(meta)` lists, meta).

    The payload's length is checked against those shapes before any array is formed.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    _, version, length = _HEADER.unpack_from(raw)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    start = _HEADER.size + length
    if start > len(raw):
        raise FormatError(f"{path}: truncated checkpoint meta")
    try:
        meta = json.loads(raw[_HEADER.size:start].decode("utf-8"))
    except (ValueError, RecursionError):  # bad utf-8 or JSON, or nesting too deep to parse
        raise FormatError(f"{path}: checkpoint meta is not utf-8 JSON") from None
    layout = shapes(meta)
    sizes = [math.prod(shape) for shape in layout]
    if len(raw) - start != 8 * sum(sizes):
        raise FormatError(f"{path}: checkpoint payload has {len(raw) - start} bytes, "
                          f"its shapes need {8 * sum(sizes)}")
    flat = np.frombuffer(raw, dtype="<f8", offset=start).astype(np.float64)
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return [part.reshape(shape) for part, shape in zip(parts, layout)], meta
