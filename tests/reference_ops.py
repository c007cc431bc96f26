"""Generic autodiff ops: the reference graph for the fused nodes.

The package records every node through autodiff.make_node, and the
model and losses use only fused nodes. These are the small per-op nodes
that the fused ones stand for (matmul, bias add, relu, softmax, reshape,
pick, log, sums and products), kept here so that the tests can build the
same objective op by op and require bit-identical gradients from the
fused graph. Each op allocates a fresh output and routes the output
gradient g back to its inputs with accumulate().
"""

from typing import Sequence

import numpy as np

from openset_ssl.autodiff import LOG_EPS, Tensor, accumulate, make_node
from openset_ssl.errors import DimensionError


def softmax_data(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax of a plain array along axis, by numpy reductions."""
    if x.shape[axis] < 2:
        raise DimensionError(f"softmax needs at least 2 entries along axis {axis}, got shape {x.shape}")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_grad(s: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """The softmax backward along axis, given the output s and its gradient g."""
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes {a.shape} and {b.shape} are incompatible")

    def backward(g):
        accumulate(a, g @ b.data.T)
        accumulate(b, a.data.T @ g)

    return make_node(a.data @ b.data, (a, b), backward)


def add(a, b) -> Tensor:
    """a + b for equal shapes, a matrix plus a bias row, or a tensor plus a scalar."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        def backward(g):
            accumulate(a, g)

        return make_node(a.data + float(b), (a,), backward)

    b = _as_tensor(b)
    if a.shape == b.shape:
        def backward(g):
            accumulate(a, g)
            accumulate(b, g)

        return make_node(a.data + b.data, (a, b), backward)

    if a.data.ndim == 1 and b.data.ndim == 2:
        a, b = b, a
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        def backward(g):
            accumulate(a, g)
            accumulate(b, g.sum(axis=0))

        return make_node(a.data + b.data, (a, b), backward)
    raise DimensionError(f"add shapes {a.shape} and {b.shape} are incompatible")


def subtract(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"subtract shapes {a.shape} and {b.shape} differ")

    def backward(g):
        accumulate(a, g)
        accumulate(b, -g)

    return make_node(a.data - b.data, (a, b), backward)


def multiply(a, b) -> Tensor:
    """Elementwise a * b for equal shapes, or a tensor times a scalar."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        c = float(b)

        def backward(g):
            accumulate(a, g * c)

        return make_node(a.data * c, (a,), backward)

    b = _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"multiply shapes {a.shape} and {b.shape} differ")

    def backward(g):
        accumulate(a, g * b.data)
        accumulate(b, g * a.data)

    return make_node(a.data * b.data, (a, b), backward)


def square(t) -> Tensor:
    t = _as_tensor(t)

    def backward(g):
        accumulate(t, g * 2.0 * t.data)

    return make_node(t.data ** 2, (t,), backward)


def relu(t) -> Tensor:
    t = _as_tensor(t)

    def backward(g):
        accumulate(t, g * (t.data > 0.0))

    return make_node(np.maximum(t.data, 0.0), (t,), backward)


def log(t) -> Tensor:
    """log(max(x, LOG_EPS)); gradient is zero on the clamped branch."""
    t = _as_tensor(t)
    clamped = np.maximum(t.data, LOG_EPS)

    def backward(g):
        accumulate(t, g * (t.data > LOG_EPS) / clamped)

    return make_node(np.log(clamped), (t,), backward)


def mean(t) -> Tensor:
    t = _as_tensor(t)
    n = t.data.size

    def backward(g):
        accumulate(t, np.full(t.data.shape, float(g) / n))

    return make_node(t.data.mean(), (t,), backward)


def tensor_sum(t) -> Tensor:
    t = _as_tensor(t)

    def backward(g):
        accumulate(t, np.full(t.data.shape, float(g)))

    return make_node(t.data.sum(), (t,), backward)


def softmax(t, axis: int = -1) -> Tensor:
    t = _as_tensor(t)
    if not -t.data.ndim <= axis < t.data.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {t.shape}")
    s = softmax_data(t.data, axis)

    def backward(g):
        accumulate(t, softmax_grad(s, g, axis))

    return make_node(s, (t,), backward)


def reshape(t, shape: Sequence[int]) -> Tensor:
    t = _as_tensor(t)
    shape = tuple(shape)
    try:
        out_data = t.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"cannot reshape {t.shape} to {shape}") from e

    def backward(g):
        accumulate(t, g.reshape(t.data.shape))

    return make_node(out_data, (t,), backward)


def pick(t, index) -> Tensor:
    """out[b] = t[b, index[b]]; the backward scatters g into the picked
    positions only."""
    t = _as_tensor(t)
    index = np.asarray(index)
    if t.data.ndim != 2 or index.ndim != 1 or index.shape[0] != t.shape[0]:
        raise DimensionError(f"pick needs a matrix and one index per row, got {t.shape} and {index.shape}")
    if index.size and (index.min() < 0 or index.max() >= t.shape[1]):
        raise DimensionError(f"pick index out of range for {t.shape[1]} columns")
    index = index.astype(np.int64)
    rows = np.arange(t.shape[0])

    def backward(g):
        buf = np.zeros_like(t.data)
        buf[rows, index] = g
        accumulate(t, buf)

    return make_node(t.data[rows, index], (t,), backward)
