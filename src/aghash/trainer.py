"""Adam training loop: each epoch steps the GCN's two weights once.

The encoder is linear, Z = W2 W1 (Xatt S~^2), after Wu et al., Simplifying
Graph Convolutional Networks (ICML 2019): with no ReLU between the layers the
two hops of propagation, H1 = Xatt S~ and H2 = H1 S~, are formed once per fit
with the whole n x n normalized graph, held once as its upper triangle
(`graph.SymGraph`). An epoch then multiplies the r x k matrix W = W2 W1 by
H2: it forms no h x n array and no graph product.
"""

from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import attention as att
from . import graph as sg
from . import network as net
from . import objective as obj
from . import retrieval
from .data import DatasetSplit, _from_file, reject_entries
from .errors import (ConfigError, DataError, FormatError, NumericError, ParameterError, ShapeError,
                     require_finite, require_integer)

# the dtype of the attentive features, the graph, both propagations, the GCN
# weights, their gradients and Adam states, in fit and in encode_queries alike;
# the attention and the loss's sum stay float64
COMPUTE_DTYPE = np.float32


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 300
    seed: int = 0
    k: float = 1.0  # the reconstruction target's scale (`objective.reconstruction_loss`)

    def __post_init__(self):
        require_finite(self, "lr", "k")
        if self.lr <= 0:
            raise ParameterError(f"learning rate must be > 0, got {self.lr}")
        if self.k <= 0:
            raise ParameterError(f"k must be > 0, got {self.k}")
        require_integer("epochs", self.epochs, 1)
        require_integer("seed", self.seed, 0)


# Adam's moment decays and the denominator's guard (Kingma & Ba, ICLR 2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def like(cls, param):
        return cls(m=np.zeros_like(param), v=np.zeros_like(param))


def adam_step(param, grad, state, t, lr):
    """Step t (from 1) of bias-corrected Adam: updates param, state.m and state.v in place.

    The operations and their order are those of m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) g^2, param -= lr m_hat / (sqrt(v_hat) + eps).
    """
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ShapeError(f"shape mismatch: param {param.shape}, grad {grad.shape}, state {state.m.shape}")
    state.m *= BETA1
    state.m += (1.0 - BETA1) * grad
    g2 = grad**2
    g2 *= 1.0 - BETA2
    state.v *= BETA2
    state.v += g2
    step = state.m / (1.0 - BETA1**t)
    step *= lr
    denom = np.divide(state.v, 1.0 - BETA2**t, out=g2)
    np.sqrt(denom, out=denom)
    denom += EPS
    step /= denom
    param -= step


def sign_pm(Z):
    """Elementwise sign into {-1, +1} with sgn(0) := +1."""
    return np.where(Z >= 0, 1.0, -1.0)


@dataclass
class TrainedModel:
    """What encoding reads, which is what a checkpoint holds."""
    attention: att.AttentionParams
    gcn: net.GcnParams
    graph_cfg: sg.GraphConfig  # bandwidth is the resolved one when the graph has a visual kernel
    use_attention: bool
    xatt_train: np.ndarray  # k x n, in the coordinates of the projections' span
    wh1_train: np.ndarray  # r x n: W2 W1 H1, the codes before their last graph product
    z_train: np.ndarray  # r x n
    degrees: np.ndarray  # length n
    y_train: np.ndarray  # c x n

    @property
    def r(self):
        return self.gcn.r


def _attentive(X, Y, params, use_attention, item):
    """The denoised features, or the bare projection without attention.

    The attention runs in float64; only Xatt is cast to COMPUTE_DTYPE. A
    column that overflows on the way is a DataError naming `item(column)`.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by item
        Xatt = att.denoise(X, Y, params) if use_attention else att.project(X, Y, params)[0]
        Xatt = Xatt.astype(COMPUTE_DTYPE)
    bad = np.flatnonzero(~np.all(np.isfinite(Xatt), axis=0))
    if bad.size:
        raise DataError(f"attentive features of {item(bad[0])} are not finite in {np.dtype(COMPUTE_DTYPE)}")
    return Xatt


def fit(
    features,
    aux,
    train_idx,
    *,
    r=32,
    d_prime=512,
    hidden=1024,
    graph_cfg=sg.GraphConfig(),
    cfg=TrainConfig(),
    use_attention=True,
    epoch_callback=None,
):
    """Train the full model on the given split. Returns (TrainedModel, history).

    history holds each epoch's reconstruction loss, one float per epoch, and
    epoch_callback(epoch, loss) is invoked after each epoch when given. The
    attentive features, the graph, both propagations, the GCN weights and
    their gradients are in COMPUTE_DTYPE. `hidden` is the inner width h of
    W = W2 W1 (h x k, then r x h): it sets the draw and Adam's path, but no
    array an epoch forms is h wide over the n items.
    The projections and W1 are drawn d' wide, then re-expressed once in the
    k = min(d', d + c) coordinates of the projections' span (`attention.basis`):
    the same model at step 0, since norms and cosines there do not change.
    Training and the returned model see only the k coordinates.
    Codes that read no tags (no attention, no tag part in the graph) reconstruct
    the visual kernel; the others the tags' Gram matrix.
    """
    train_idx = np.asarray(train_idx)
    if train_idx.size == 0:
        raise ParameterError("training split is empty")
    if train_idx.dtype.kind not in "iu":  # a float or bool index would be truncated or read as 0/1
        raise ParameterError(f"train indices must be integers, got dtype {train_idx.dtype}")
    bad = train_idx[(train_idx < 0) | (train_idx >= features.n)]
    if bad.size:
        raise ParameterError(f"train index {bad[0]} is out of range for {features.n} items")
    DatasetSplit(train_idx, (), ())  # a split's checks: 1-D, and no repeated item to be a duplicate node
    if features.n != aux.n:
        raise ShapeError(f"features have {features.n} items, aux has {aux.n}")
    X = features.data[:, train_idx]
    Yt = np.ascontiguousarray(aux.data[:, train_idx])

    # the network first: it checks the dimensions before any n x n work
    gcn = net.init_params(d_prime, hidden, r, cfg.seed + 1)
    apar = att.init_attention(features.d, aux.c, d_prime, cfg.seed)
    Q = att.basis(apar)
    if Q is not None:  # P_x, P_y and W1 in the k coordinates, before the cast
        apar = att.AttentionParams(Q.T @ apar.P_x, Q.T @ apar.P_y)
        gcn.W1 = gcn.W1 @ Q
    gcn = net.GcnParams(*(W.astype(COMPUTE_DTYPE) for W in (gcn.W1, gcn.W2)))
    Xatt = _attentive(X, Yt, apar, use_attention, lambda j: f"item {train_idx[j]}")
    del X  # the d x n float64 features: Xatt is all that training reads

    St, degrees, sigma = sg.build_graph(Xatt, Yt, graph_cfg)
    if sigma is not None:  # queries extend the graph with the training kernel
        graph_cfg = replace(graph_cfg, bandwidth=sigma)
    if use_attention or sg.PARTS[graph_cfg.variant][1]:  # the codes read the tags
        target = obj.TagGram(Yt.astype(COMPUTE_DTYPE))
    else:  # no tags: the kernel SymGraph under the graph's bandwidth
        target = sg.visual_similarity(Xatt, graph_cfg.bandwidth)[0]

    params = net.parameters(gcn)
    states = {name: AdamState.like(param) for name, param in params.items()}

    H1 = Xatt @ St  # the only two graph products of the fit
    H2 = H1 @ St
    Z = np.empty((gcn.r, H2.shape[1]), dtype=COMPUTE_DTYPE)  # every epoch's codes, in one buffer
    history = []
    for epoch in range(1, cfg.epochs + 1):
        np.matmul(gcn.W2 @ gcn.W1, H2, out=Z)
        if not np.all(np.isfinite(Z)):
            raise NumericError(f"non-finite encoder output at epoch {epoch}")
        loss, grads = obj.backprop_all(H2, Z, target, gcn, cfg.k)
        if not np.isfinite(loss):
            raise NumericError(f"non-finite loss at epoch {epoch}")

        for name, grad in grads.items():
            adam_step(params[name], grad, states[name], epoch, cfg.lr)
        history.append(loss)
        if epoch_callback is not None:
            epoch_callback(epoch, loss)

    W = gcn.W2 @ gcn.W1  # the trained weights' product
    model = TrainedModel(
        attention=apar, gcn=gcn, graph_cfg=graph_cfg, use_attention=use_attention,
        xatt_train=Xatt, wh1_train=W @ H1, z_train=np.matmul(W, H2, out=Z), degrees=degrees, y_train=Yt,
    )
    return model, history


def encode_train(model, X, Y):
    """Packed codes for the training items, given their d x n features and c x n aux.

    The codes are the signs of the cached GCN outputs, so the items must be the
    ones the model was fit on, in its order: a ConfigError when their number,
    their tags or their attentive features (formed as fit forms them, to a
    tolerance that admits only rounding) differ.
    """
    n = model.z_train.shape[1]
    if X.shape[1] != n:
        raise ConfigError(f"checkpoint was trained on {n} items, split has {X.shape[1]} training items")
    if not np.array_equal(Y, model.y_train):
        raise ConfigError("the split's training items are not the checkpoint's: their aux tags differ")
    xatt = _attentive(X, model.y_train, model.attention, model.use_attention, "training item {}".format)
    if not np.allclose(xatt, model.xatt_train, rtol=1e-5, atol=1e-5 * np.abs(model.xatt_train).max()):
        raise ConfigError("the split's training items are not the checkpoint's: their features differ")
    return retrieval.pack(sign_pm(model.z_train))


def encode_queries(model, Xq, Yq):
    """Inductive codes for out-of-sample items, given d x m features and c x m aux.

    Each query gets a one-column extension of the training graph (with an
    explicit self term), is normalized against the cached training degrees,
    and is propagated over both hops: h1_q = Xatt st_col^T + xatt_q st_self,
    then z_q = (W H1) st_col^T + (W h1_q) st_self with W = W2 W1, from the
    cached r x n W H1, so no h x m product is formed.
    The attention runs once for all m queries; the graph columns and both
    hops run a panel of queries at a time, as many as fit one n-wide
    COMPUTE_DTYPE array in `retrieval.BLOCK_BYTES`, so the panel's buffers
    are that size whatever m is. The columns and hops are in
    COMPUTE_DTYPE, as in fit.
    """
    Xq = np.asarray(Xq, dtype=np.float64)
    Yq = np.asarray(Yq, dtype=np.float64)
    if Xq.ndim != 2 or Xq.shape[0] != model.attention.P_x.shape[1]:
        raise ShapeError(f"queries must be d x m with d = {model.attention.P_x.shape[1]}")
    if Yq.shape != (model.y_train.shape[0], Xq.shape[1]):
        raise ShapeError(f"query aux must be {model.y_train.shape[0]} x {Xq.shape[1]}, got {Yq.shape}")
    reject_entries(~np.isfinite(Xq), "non-finite query features value at row {}, column {}")
    reject_entries(~np.isfinite(Yq), "non-finite query aux value at row {}, column {}")
    reject_entries((Yq != 0.0) & (Yq != 1.0), "query aux entry at row {}, column {} is not 0/1")

    xatt_q = _attentive(Xq, model.y_train, model.attention, model.use_attention, "query {}".format)
    z_q = np.empty((model.r, Xq.shape[1]), dtype=COMPUTE_DTYPE)
    W = model.gcn.W2 @ model.gcn.W1
    panel = max(1, retrieval.BLOCK_BYTES // (model.degrees.size * np.dtype(COMPUTE_DTYPE).itemsize))
    for lo in range(0, Xq.shape[1], panel):
        cols = slice(lo, lo + panel)
        z_q[:, cols] = _propagate(model, W, xatt_q[:, cols], Yq[:, cols])
    bad = np.flatnonzero(~np.all(np.isfinite(z_q), axis=0))
    if bad.size:  # sign_pm would read NaN as -1 bits
        raise NumericError(f"non-finite encoder output for query {bad[0]}")
    return sign_pm(z_q)


def _propagate(model, W, xatt_q, Yq):
    """The r x m outputs of m queries from their attentive features; W = W2 W1.

    The queries' graph columns are freed on return.
    """
    st_col, st_self = sg.query_columns(xatt_q, Yq, model.xatt_train, model.y_train, model.degrees,
                                       model.graph_cfg)
    h1_q = model.xatt_train @ st_col.T + xatt_q * st_self
    return model.wh1_train @ st_col.T + (W @ h1_q) * st_self


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def write_train_log(path, history):
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epoch,l_recons\n")
        for i, loss in enumerate(history, start=1):
            fh.write(f"{i},{loss:.10g}\n")


# parameter groups of a TrainedModel by field
_GROUPS = {"attention": att.AttentionParams, "gcn": net.GcnParams}
_CACHED = [f.name for f in fields(TrainedModel) if f.type is np.ndarray]
# every saved array, in file order, with its dimensions: a checkpoint's meta holds their sizes
_SHAPES = {"P_x": ("k", "d"), "P_y": ("k", "c"), "W1": ("h", "k"), "W2": ("r", "h"),
           "xatt_train": ("k", "n"), "wh1_train": ("r", "n"), "z_train": ("r", "n"),
           "degrees": ("n",), "y_train": ("c", "n")}
_DIMS = sorted({symbol for symbols in _SHAPES.values() for symbol in symbols})
# the arrays fit returns in COMPUTE_DTYPE; the file holds them as float64, which is exact
_COMPUTED = ("W1", "W2", "xatt_train", "wh1_train", "z_train", "degrees")


def save_model(path, model):
    arrays = net.parameters(*(getattr(model, name) for name in _GROUPS))
    arrays.update((name, getattr(model, name)) for name in _CACHED)
    dims = {symbol: size for name, symbols in _SHAPES.items()
            for symbol, size in zip(symbols, arrays[name].shape)}
    meta = {"use_attention": model.use_attention, "graph": asdict(model.graph_cfg), "dims": dims}
    net.save_arrays(path, [arrays[name] for name in _SHAPES], meta)


def _check_names(path, what, found, expected):
    """FormatError naming the first expected entry missing from `found`, or the first unknown one."""
    if not isinstance(found, dict):
        raise FormatError(f"{path}: malformed checkpoint meta")
    missing = [name for name in expected if name not in found]
    if missing:
        raise FormatError(f"{path}: checkpoint has no {what} {missing[0]!r}")
    unknown = sorted(set(found) - set(expected))
    if unknown:
        raise FormatError(f"{path}: unknown checkpoint {what} {unknown[0]!r}")


def load_model(path):
    def shapes(meta):
        _check_names(path, "meta key", meta, ["use_attention", "graph", "dims"])
        dims = meta["dims"]
        _check_names(path, "dimension", dims, _DIMS)
        for symbol in _DIMS:
            if type(dims[symbol]) is not int or dims[symbol] < 1:  # rejects JSON true/false too
                raise FormatError(f"{path}: checkpoint dimension {symbol!r} must be an integer >= 1, "
                                  f"got {dims[symbol]!r}")
        return [tuple(dims[symbol] for symbol in symbols) for symbols in _SHAPES.values()]

    arrays, meta = net.load_arrays(path, shapes)
    # a value beyond float32 becomes inf, and a NaN stays NaN: both fail the check below
    with np.errstate(over="ignore", invalid="ignore"):
        arrays = {name: arr.astype(COMPUTE_DTYPE) if name in _COMPUTED else arr
                  for name, arr in zip(_SHAPES, arrays)}
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: checkpoint array {name!r} is not finite")
    # what fit guarantees and encoding relies on: a negative degree would read as an isolated item
    if np.any(arrays["degrees"] < 0):
        raise FormatError(f"{path}: checkpoint array 'degrees' has a negative entry")
    if np.any((arrays["y_train"] != 0) & (arrays["y_train"] != 1)):
        raise FormatError(f"{path}: checkpoint array 'y_train' has an entry that is not 0 or 1")
    if not isinstance(meta["use_attention"], bool):
        raise FormatError(f"{path}: checkpoint use_attention must be true or false, "
                          f"got {meta['use_attention']!r}")
    _check_names(path, "graph setting", meta["graph"], [f.name for f in fields(sg.GraphConfig)])
    graph_cfg = _from_file(path, lambda graph: sg.GraphConfig(**graph), meta["graph"])
    if sg.PARTS[graph_cfg.variant][0] and graph_cfg.bandwidth is None:  # fit saves the one it used
        raise FormatError(f"{path}: checkpoint graph has no bandwidth for its visual kernel")
    values = {name: cls(**{f.name: arrays[f.name] for f in fields(cls)}) for name, cls in _GROUPS.items()}
    values.update((name, arrays[name]) for name in _CACHED)
    return TrainedModel(**values, graph_cfg=graph_cfg, use_attention=meta["use_attention"])
