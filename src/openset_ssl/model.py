"""Model parameters, their forward nodes, and checkpoints.

The model is a shared feature extractor with a closed-set head and
one-vs-all heads. The extractor is a plain MLP: ReLU between
consecutive layers, no activation after the last one. Two linear heads
sit on the features: a K-way classifier and a bank of K one-vs-all
sub-classifiers, each with two logits (index 0 = inlier, index 1 =
outlier). Sub-classifier j owns columns [2j, 2j+1] of the one-vs-all
weight matrix. The open-set decision built on these heads lives in
evaluation.predict_open.

The extractor's forward arithmetic (extractor_activations) is apart from
its graph node (feature_extract), so a training step computes each
distinct batch once, the wide ones on two cores, before it records any
node. In train() the activations go into a Workspace: one set of
buffers per batch slot, written again every step once the previous
step's graph is consumed, and emptied before selection and evaluation.
Other callers get fresh arrays.

_layout is the one table of the parameters' names and shapes, in
parameters() order: init_params draws from it, and checkpoints name and
check their arrays by it. ModelParams.flat holds all parameters in one
float64 vector, and each tensor's .data is a view into it.
"""

from __future__ import annotations

import json
import math
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigError, DimensionError, ParseError

CHECKPOINT_FORMAT = "openset-ssl-checkpoint-1"


@dataclass
class ModelParams:
    extractor: list[tuple[Tensor, Tensor]]
    closed_w: Tensor
    closed_b: Tensor
    ova_w: Tensor
    ova_b: Tensor
    k_classes: int
    flat: np.ndarray  # every tensor's .data is a view into it

    @property
    def d_in(self) -> int:
        return (self.extractor[0][0] if self.extractor else self.closed_w).shape[0]

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w, _ in self.extractor)

    def parameters(self) -> list[Tensor]:
        return [t for layer in self.extractor for t in layer] + [self.closed_w, self.closed_b, self.ova_w, self.ova_b]


def _layout(d_in: int, hidden: Sequence[int], k_classes: int) -> dict[str, tuple[int, ...]]:
    """Array name -> shape of every parameter, in parameters() order."""
    widths = [d_in, *hidden]
    shapes = {}
    for i, h in enumerate(hidden):
        shapes[f"ext{i}_w"], shapes[f"ext{i}_b"] = (widths[i], h), (h,)
    k = k_classes
    return shapes | {"closed_w": (widths[-1], k), "closed_b": (k,), "ova_w": (widths[-1], 2 * k), "ova_b": (2 * k,)}


def _from_list(arrays: list[np.ndarray], k_classes: int) -> ModelParams:
    """ModelParams over one flat copy of arrays, given in parameters() order."""
    flat = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])
    *extractor, closed_w, closed_b, ova_w, ova_b = (
        Tensor(flat[end - a.size:end].reshape(a.shape), requires_grad=True) for a, end in zip(arrays, ends))
    return ModelParams(list(zip(extractor[::2], extractor[1::2])), closed_w, closed_b, ova_w, ova_b, k_classes, flat)


def init_params(d_in: int, hidden: Sequence[int], k_classes: int, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases. ConfigError naming hidden when
    numpy refuses to allocate the parameters."""
    if d_in < 1 or k_classes < 2:
        raise ConfigError(f"need d_in >= 1 and k_classes >= 2, got {d_in}, {k_classes}")
    arrays = []
    try:
        for shape in _layout(d_in, hidden, k_classes).values():
            limit = np.sqrt(6.0 / sum(shape))
            arrays.append(rng.uniform(-limit, limit, size=shape) if len(shape) == 2 else np.zeros(shape))
        return _from_list(arrays, k_classes)
    except (MemoryError, ValueError) as e:  # numpy's refusal of an array too large for memory or for its shape
        raise ConfigError(f"hidden {tuple(hidden)} asks for parameters numpy cannot allocate: {e}") from e


# The size, in elements, of an extractor array from which part of the
# extractor's work goes to autodiff's helper thread: a layer's output
# gradient g in the backward, and a batch's rows times the widest hidden
# layer in extractor_activations. It sits at the crossover of both, with
# one BLAS thread. Four extractor forward-and-backward passes took 0.41
# ms on one thread and 0.50 ms on two at 128 x 64 (the default model's
# largest g, 8,192 elements), and 20.5 ms against 9.75 ms at 512 x 256.
# Four forwards (one batch of b rows and three of 2b, hidden h, h) took
# 0.16 against 0.29 ms at 128 x 64, 0.53 against 0.59 ms at 256 x 64,
# 1.58 against 1.39 ms at 256 x 128, and 9.9 against 6.7 ms at 512 x 256.
OFFLOAD_MIN_SIZE = 1 << 15


def _layers_forward(outs: list[np.ndarray], h: np.ndarray, layers) -> None:
    """The extractor's arithmetic on the input h, written into outs, one
    caller-allocated [rows, width] buffer per layer: matmul, bias add and,
    between layers, relu."""
    last = len(layers) - 1
    for i, ((w, b), out) in enumerate(zip(layers, outs)):
        np.matmul(h, w, out=out)
        out += b
        if i < last:
            np.maximum(out, 0.0, out=out)
        h = out


class Workspace:
    """Extractor activation buffers that a training loop reuses from step
    to step: one set per batch slot (a batch's position in
    extractor_activations' batches), kept while the slot's shapes stay
    the same.

    A buffer is written again only once every graph node recorded over it
    has been consumed by backward(): read_by() records those nodes, and
    buffers() raises RuntimeError while one of them is live, so
    extractor_activations raises before it writes anything. release()
    lets one slot's buffers go, clear() all of them. Reused buffers keep
    their pages: freeing and allocating them every step cost 10-15% of a
    wide step, as glibc trims the heap top and the next step faults it
    back in.
    """

    def __init__(self):
        self._slots: dict[int, list[np.ndarray]] = {}
        self._readers: list[Tensor] = []  # graph nodes recorded over the buffers

    def read_by(self, nodes: Iterable[Tensor]) -> None:
        """Record the graph nodes that read the buffers until backward() consumes them."""
        self._readers = list(nodes)

    def buffers(self, slot: int, shapes: list[tuple[int, int]]) -> list[np.ndarray]:
        """The slot's buffers of the given shapes, allocated when it has none of them."""
        if any(node._backward is not None for node in self._readers):
            raise RuntimeError("workspace buffers written again before backward() consumed the graph that reads them")
        self._readers = []
        bufs = self._slots.get(slot)
        if bufs is None or [b.shape for b in bufs] != shapes:
            self._slots.pop(slot, None)  # the old set goes before the new one is allocated
            bufs = self._slots[slot] = [np.empty(shape) for shape in shapes]
        return bufs

    def release(self, slot: int) -> None:
        self._slots.pop(slot, None)

    def clear(self) -> None:
        self._slots.clear()


def extractor_activations(params: ModelParams, batches: Sequence,
                          workspace: Workspace | None = None) -> list[list[np.ndarray]]:
    """Each batch's extractor activations: the input of every layer, then
    the output (for a model without hidden layers, the input alone). This
    is the arithmetic of the forward only; feature_extract records it.

    The outputs are written into the workspace's buffers for each batch's
    slot, those of a new workspace when none is given.

    A batch is gated when its rows times the widest hidden layer reach
    OFFLOAD_MIN_SIZE. Every second gated batch goes to autodiff.offload,
    which inside train() runs it on the helper thread while this thread
    computes the others; its buffers are allocated on this thread first.
    Every matmul still runs whole, on the same operands, so the
    activations are bit-identical to the sequential forward's. Returns
    once every batch is done. DimensionError names a batch of the wrong
    shape before any batch is computed.
    """
    inputs = []
    for x in batches:
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != params.d_in:
            raise DimensionError(f"expected input of shape [B, {params.d_in}], got {h.shape}")
        inputs.append(h)
    workspace = Workspace() if workspace is None else workspace
    layers = [(w.data, b.data) for w, b in params.extractor]
    widest = max(params.hidden, default=0)
    gated = [i for i, h in enumerate(inputs) if len(h) * widest >= OFFLOAD_MIN_SIZE]
    on_helper = gated[1::2]  # a lone gated batch stays here: handing it off would only add a wait
    acts = [[h] for h in inputs]

    def buffers(i: int) -> list[np.ndarray]:
        # Batch i's outputs, allocated here just before its arithmetic
        # starts: allocating every batch's at once raised train_wide's peak
        # RSS by about 1.4 MB.
        acts[i] += workspace.buffers(i, [(len(inputs[i]), w.shape[1]) for w, _ in layers])
        return acts[i][1:]

    waits = [ad.offload(_layers_forward, buffers(i), inputs[i], layers) for i in on_helper]
    for i, h in enumerate(inputs):
        if i not in on_helper:
            _layers_forward(buffers(i), h, layers)
    for wait in waits:
        wait()
    return acts


def feature_extract(params: ModelParams, x, activations: list[np.ndarray] | None = None) -> Tensor:
    """The extractor MLP on the array x as one autodiff node.

    activations, when given, are extractor_activations' entry for x, and
    the node records them instead of computing them again; two nodes may
    share them, and each keeps its own backward. The node's forward and
    backward repeat the generic ops' chain of matmul, bias add and relu,
    layer by layer. x is data, not a graph node: the node's parents are
    the parameter tensors only, and the backward stops at the first
    layer's weights.

    Every layer after the first makes two independent matmuls in the
    backward: its weight gradient a.T @ g, for the layer input a, and the
    input gradient g @ w.T.
    When g has at least OFFLOAD_MIN_SIZE elements, the first goes to
    autodiff.offload, which inside train() runs it on the helper thread
    while this thread sums the bias gradient and computes the input
    gradient and the ReLU mask. Each matmul still runs whole, on the same
    operands, and the bias and weight gradients are accumulated in the
    same order, so gradients and trained parameters are bit-identical to
    the sequential backward's. Graph recording stays on the calling
    thread.
    """
    if activations is None:
        activations, = extractor_activations(params, [x])
    *inputs, h = activations  # the input of each layer; after the first, a relu output
    layers = list(params.extractor)
    last = len(layers) - 1

    def backward(g):
        for i in range(last, -1, -1):
            w, b = layers[i]
            a = inputs[i]  # the layer input
            if i and g.size >= OFFLOAD_MIN_SIZE:
                # a.T @ g on the helper, into a buffer allocated here: one the
                # helper allocated would come from its own malloc arena
                w_grad = np.empty(w.shape)
                w_grad_done = ad.offload(np.matmul, a.T, g, w_grad)
                # This thread's matmul is called first, so it takes the
                # OpenBLAS work buffer that the forward already touched and
                # the helper's smaller one takes a second: train_wide's peak
                # RSS was about 1 MB lower than with the bias sum first.
                g_in = g @ w.data.T
                ad.accumulate(b, g.sum(axis=0))
                g_in *= a > 0.0
                g = g_in
                w_grad_done()
                ad.accumulate(w, w_grad, own=True)
            else:
                ad.accumulate(b, g.sum(axis=0))
                ad.accumulate(w, a.T @ g)
                if i:  # relu(z) > 0 exactly where z > 0
                    g = (g @ w.data.T) * (a > 0.0)

    return ad.make_node(h, [t for layer in layers for t in layer], backward)


def _head(features: Tensor, w: Tensor, b: Tensor, pairs: int | None = None) -> Tensor:
    """softmax(features @ w + b) as one autodiff node repeating the
    generic ops. With pairs=K, the logits are reshaped to [B, K, 2] first
    and the pair softmax runs over each pair."""
    if features.data.ndim != 2 or features.shape[1] != w.shape[0]:
        raise DimensionError(f"head expects features of shape [B, {w.shape[0]}], got {features.shape}")
    z = features.data @ w.data
    z += b.data
    s = ad.softmax_data(z) if pairs is None else ad.pair_softmax_data(z.reshape((len(z), pairs, 2)))
    softmax_grad = ad.softmax_grad if pairs is None else ad.pair_softmax_grad

    def backward(g):
        g = softmax_grad(s, g).reshape(z.shape)
        ad.accumulate(b, g.sum(axis=0))
        ad.accumulate(w, features.data.T @ g)
        if features.requires_grad:
            ad.accumulate(features, g @ w.data.T)

    return ad.make_node(s, (features, w, b), backward)


def classify_closed(params: ModelParams, features: Tensor) -> Tensor:
    """Closed-set class probabilities, shape [B, K]."""
    return _head(features, params.closed_w, params.closed_b)


def ova_probs(params: ModelParams, features: Tensor) -> Tensor:
    """One-vs-all probabilities, shape [B, K, 2]; [:, j, 0] is inlier-for-class-j."""
    return _head(features, params.ova_w, params.ova_b, pairs=params.k_classes)


def save_checkpoint(path, params: ModelParams, config: dict | None = None) -> None:
    """Write params (and an optional config dict) to an .npz container.

    Layout: a JSON 'meta' entry carrying format id, k_classes, d_in,
    hidden widths and the config; float64 arrays ext{i}_w / ext{i}_b
    per extractor layer plus closed_w/closed_b/ova_w/ova_b.
    """
    meta = {
        "format": CHECKPOINT_FORMAT,
        "k_classes": params.k_classes,
        "d_in": params.d_in,
        "hidden": list(params.hidden),
        "config": config if config is not None else {},
    }
    arrays = {"meta": np.array(json.dumps(meta, sort_keys=True))}
    arrays.update(zip(_layout(params.d_in, params.hidden, params.k_classes), (t.data for t in params.parameters())))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint written by save_checkpoint.

    Raises ParseError naming the file when it is not a readable .npz
    archive, its meta entry is malformed, or an array is missing or is
    not float64 of the shape that meta's d_in, hidden and k_classes give.
    Each array's .npy header is checked before its data is read, so a
    header that declares a huge shape allocates nothing.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            meta = _checkpoint_meta(path, archive)
            arrays = []
            for name, shape in _layout(meta["d_in"], meta["hidden"], meta["k_classes"]).items():
                if f"{name}.npy" not in archive.namelist():
                    raise ParseError(f"{path}: checkpoint has no array {name!r}")
                arrays.append(_read_npy(path, archive, name, shape))
    # zipfile raises NotImplementedError for an unknown compression or
    # version and RuntimeError for a member flagged as encrypted; numpy lets
    # tokenize's TokenError out of a header whose brackets do not close
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error, NotImplementedError, RuntimeError,
            tokenize.TokenError) as e:
        raise ParseError(f"{path}: unreadable checkpoint: {e}") from e
    return _from_list(arrays, meta["k_classes"]), meta["config"]


_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0, (2, 0): np.lib.format.read_array_header_2_0}


def _read_npy(path, archive: zipfile.ZipFile, name: str, shape: tuple[int, ...] | None) -> np.ndarray:
    """The array in archive member name.npy, read only once its header
    declares float64 of the given shape or, for shape None, no more data
    than the member holds. The data is the prod(shape) * itemsize bytes
    that follow the header, in the order its fortran_order flag gives."""
    info = archive.getinfo(f"{name}.npy")
    with archive.open(info) as fh:
        version = np.lib.format.read_magic(fh)
        if version not in _NPY_HEADER_READERS:
            raise ParseError(f"{path}: array {name!r} has unsupported .npy version {version}")
        found_shape, fortran_order, dtype = _NPY_HEADER_READERS[version](fh)
        size = math.prod(found_shape) * dtype.itemsize
        if shape is None:
            if min(found_shape, default=0) < 0 or size > info.file_size:
                raise ParseError(f"{path}: array {name!r} declares {dtype} {found_shape}, "
                                 f"more than its {info.file_size} bytes hold")
        elif dtype != np.float64 or found_shape != shape:
            raise ParseError(f"{path}: array {name!r} is {dtype} {found_shape}, but its meta implies float64 {shape}")
        data = fh.read(size)
    if len(data) != size:
        raise ParseError(f"{path}: array {name!r} holds {len(data)} of its {size} data bytes")
    if fortran_order:
        return np.frombuffer(data, dtype=dtype).reshape(found_shape[::-1]).T
    return np.frombuffer(data, dtype=dtype).reshape(found_shape)


def _checkpoint_meta(path, archive: zipfile.ZipFile) -> dict:
    try:
        meta = json.loads(str(_read_npy(path, archive, "meta", None)))
    except (KeyError, json.JSONDecodeError) as e:
        raise ParseError(f"{path}: not a checkpoint produced by this package") from e
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        found = meta.get("format") if isinstance(meta, dict) else None
        raise ParseError(f"{path}: unsupported checkpoint format {found!r}")

    def int_at_least(v, low=1) -> bool:
        return type(v) is int and v >= low

    hidden = meta.get("hidden")
    if not (
        int_at_least(meta.get("k_classes"), 2)  # the closed head's softmax needs two classes
        and int_at_least(meta.get("d_in"))
        and isinstance(hidden, list)
        and all(int_at_least(h) for h in hidden)
        and isinstance(meta.get("config"), dict)
    ):
        raise ParseError(f"{path}: malformed checkpoint meta")
    return meta

