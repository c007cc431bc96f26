"""Model parameters, their forward nodes, and checkpoints.

The model is a shared feature extractor with a closed-set head and
one-vs-all heads. The extractor is a plain MLP: ReLU between
consecutive layers, no activation after the last one. Two linear heads
sit on the features: a K-way classifier and a bank of K one-vs-all
sub-classifiers, each with two logits (index 0 = inlier, index 1 =
outlier). Sub-classifier j owns columns [2j, 2j+1] of the one-vs-all
weight matrix. The open-set decision built on these heads lives in
evaluation.predict_open.
"""

from __future__ import annotations

import json
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

    @property
    def d_in(self) -> int:
        if self.extractor:
            return self.extractor[0][0].shape[0]
        return self.closed_w.shape[0]

    @property
    def d_feat(self) -> int:
        return self.closed_w.shape[0]

    @property
    def hidden(self) -> tuple[int, ...]:
        return tuple(w.shape[1] for w, _ in self.extractor)

    def parameters(self) -> list[Tensor]:
        out: list[Tensor] = []
        for w, b in self.extractor:
            out.extend((w, b))
        out.extend((self.closed_w, self.closed_b, self.ova_w, self.ova_b))
        return out

    def copy(self) -> "ModelParams":
        def dup(t: Tensor) -> Tensor:
            return Tensor(t.data.copy(), requires_grad=True)

        return ModelParams(
            extractor=[(dup(w), dup(b)) for w, b in self.extractor],
            closed_w=dup(self.closed_w),
            closed_b=dup(self.closed_b),
            ova_w=dup(self.ova_w),
            ova_b=dup(self.ova_b),
            k_classes=self.k_classes,
        )


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=(fan_in, fan_out)), requires_grad=True)


def _zero_bias(n: int) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


def init_params(d_in: int, hidden: Sequence[int], k_classes: int, rng: np.random.Generator) -> ModelParams:
    if d_in < 1 or k_classes < 1:
        raise ConfigError(f"need d_in >= 1 and k_classes >= 1, got {d_in}, {k_classes}")
    if any(h < 1 for h in hidden):
        raise ConfigError(f"hidden widths must be positive, got {tuple(hidden)}")
    extractor = []
    width = d_in
    for h in hidden:
        extractor.append((_glorot(rng, width, h), _zero_bias(h)))
        width = h
    return ModelParams(
        extractor=extractor,
        closed_w=_glorot(rng, width, k_classes),
        closed_b=_zero_bias(k_classes),
        ova_w=_glorot(rng, width, 2 * k_classes),
        ova_b=_zero_bias(2 * k_classes),
        k_classes=k_classes,
    )


def feature_extract(params: ModelParams, x) -> Tensor:
    """The extractor MLP on x as one autodiff node.

    Its forward and backward repeat the generic ops' chain of matmul,
    bias add and relu, layer by layer. The backward skips the gradient at
    the raw input unless x itself needs one.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.data.ndim != 2 or x.shape[1] != params.d_in:
        raise DimensionError(f"expected input of shape [B, {params.d_in}], got {x.shape}")
    layers = list(params.extractor)
    if not layers:
        return x
    last = len(layers) - 1
    inputs = []  # the input of each layer; after the first, a relu output
    h = x.data
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
            if i == 0:
                if x.requires_grad:
                    ad.accumulate(x, g @ w.data.T)
                break
            # relu(z) > 0 exactly where z > 0
            g = (g @ w.data.T) * (inputs[i] > 0.0)

    parents = [t for layer in layers for t in layer]
    return ad.make_node(h, parents + [x], backward)


def _head(features: Tensor, w: Tensor, b: Tensor, pairs: int | None = None) -> Tensor:
    """softmax(features @ w + b) as one autodiff node repeating the
    generic ops. With pairs=K, the logits are reshaped to [B, K, 2] first
    and the softmax runs over each pair."""
    if features.data.ndim != 2 or features.shape[1] != w.shape[0]:
        raise DimensionError(f"head expects features of shape [B, {w.shape[0]}], got {features.shape}")
    z = features.data @ w.data
    z += b.data
    s = ad.softmax_data(z if pairs is None else z.reshape((len(z), pairs, 2)))

    def backward(g):
        g = ad.softmax_grad(s, g).reshape(z.shape)
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
    for i, (w, b) in enumerate(params.extractor):
        arrays[f"ext{i}_w"] = w.data
        arrays[f"ext{i}_b"] = b.data
    arrays["closed_w"] = params.closed_w.data
    arrays["closed_b"] = params.closed_b.data
    arrays["ova_w"] = params.ova_w.data
    arrays["ova_b"] = params.ova_b.data
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint written by save_checkpoint.

    Raises ParseError naming the file when it is not a readable .npz
    archive, its meta entry is malformed, or an array is missing or is
    not float64 of the shape that meta's d_in, hidden and k_classes give.
    """
    try:
        archive = np.load(path, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ParseError(f"{path}: not a checkpoint produced by this package")
        with archive:
            meta = _checkpoint_meta(path, archive)
            arrays = {}
            for name, shape in _checkpoint_shapes(meta).items():
                if name not in archive.files:
                    raise ParseError(f"{path}: checkpoint has no array {name!r}")
                arr = archive[name]
                if arr.dtype != np.float64 or arr.shape != shape:
                    raise ParseError(f"{path}: array {name!r} is {arr.dtype} {arr.shape}, "
                                     f"but its meta implies float64 {shape}")
                arrays[name] = arr
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as e:
        raise ParseError(f"{path}: unreadable checkpoint: {e}") from e

    def tensor(name: str) -> Tensor:
        return Tensor(arrays[name].copy(), requires_grad=True)

    params = ModelParams(
        extractor=[(tensor(f"ext{i}_w"), tensor(f"ext{i}_b")) for i in range(len(meta["hidden"]))],
        closed_w=tensor("closed_w"),
        closed_b=tensor("closed_b"),
        ova_w=tensor("ova_w"),
        ova_b=tensor("ova_b"),
        k_classes=meta["k_classes"],
    )
    return params, meta["config"]


def _checkpoint_meta(path, archive) -> dict:
    try:
        meta = json.loads(str(archive["meta"]))
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


def _checkpoint_shapes(meta: dict) -> dict[str, tuple[int, ...]]:
    """Array name -> shape, as save_checkpoint writes them for meta."""
    widths = [meta["d_in"], *meta["hidden"]]
    k = meta["k_classes"]
    shapes = {}
    for i, h in enumerate(meta["hidden"]):
        shapes[f"ext{i}_w"] = (widths[i], h)
        shapes[f"ext{i}_b"] = (h,)
    shapes.update(closed_w=(widths[-1], k), closed_b=(k,), ova_w=(widths[-1], 2 * k), ova_b=(2 * k,))
    return shapes
