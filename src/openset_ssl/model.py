"""Model parameters, their forward nodes, and checkpoints.

The model is a shared feature extractor with a closed-set head and
one-vs-all heads. The extractor is a plain MLP: ReLU between
consecutive layers, no activation after the last one. Two linear heads
sit on the features: a K-way classifier and a bank of K one-vs-all
sub-classifiers, each with two logits (index 0 = inlier, index 1 =
outlier). Sub-classifier j owns columns [2j, 2j+1] of the one-vs-all
weight matrix. The open-set decision built on these heads lives in
evaluation.predict_open.

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
from typing import Sequence

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

    def copy(self) -> "ModelParams":
        return _from_list([t.data for t in self.parameters()], self.k_classes)


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
    if d_in < 1 or k_classes < 1:
        raise ConfigError(f"need d_in >= 1 and k_classes >= 1, got {d_in}, {k_classes}")
    if any(h < 1 for h in hidden):
        raise ConfigError(f"hidden widths must be positive, got {tuple(hidden)}")
    arrays = []
    for shape in _layout(d_in, hidden, k_classes).values():  # Glorot-uniform weights, zero biases
        limit = np.sqrt(6.0 / sum(shape))
        arrays.append(rng.uniform(-limit, limit, size=shape) if len(shape) == 2 else np.zeros(shape))
    return _from_list(arrays, k_classes)


def feature_extract(params: ModelParams, x) -> Tensor:
    """The extractor MLP on the array x as one autodiff node.

    Its forward and backward repeat the generic ops' chain of matmul,
    bias add and relu, layer by layer. x is data, not a graph node: the
    node's parents are the parameter tensors only, and the backward
    stops at the first layer's weights.
    """
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.d_in:
        raise DimensionError(f"expected input of shape [B, {params.d_in}], got {h.shape}")
    layers = list(params.extractor)
    last = len(layers) - 1
    inputs = []  # the input of each layer; after the first, a relu output
    for i, (w, b) in enumerate(layers):
        inputs.append(h)
        h = h @ w.data
        h += b.data
        if i < last:
            np.maximum(h, 0.0, out=h)

    def backward(g):
        for i in range(last, -1, -1):
            w, b = layers[i]
            ad.accumulate(b, g.sum(axis=0))
            ad.accumulate(w, inputs[i].T @ g)
            if i:  # relu(z) > 0 exactly where z > 0
                g = (g @ w.data.T) * (inputs[i] > 0.0)

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

    def positive_int(v) -> bool:
        return type(v) is int and v >= 1

    hidden = meta.get("hidden")
    if not (
        positive_int(meta.get("k_classes"))
        and positive_int(meta.get("d_in"))
        and isinstance(hidden, list)
        and all(positive_int(h) for h in hidden)
        and isinstance(meta.get("config"), dict)
    ):
        raise ParseError(f"{path}: malformed checkpoint meta")
    return meta

