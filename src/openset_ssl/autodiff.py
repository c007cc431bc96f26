"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation allocates a fresh output tensor and records a closure
that routes the output gradient back to its inputs, so the recorded
graph doubles as the tape. Calling backward() on a scalar tensor
topologically sorts that graph and accumulates gradients into every
reachable tensor with requires_grad set.

Besides these generic ops, the model and the losses record fused nodes
through make_node: the whole extractor MLP is one node, each head
(matmul, bias, optional reshape, softmax) is one node, and each loss
term is one node over the head outputs, so a training step builds a few
dozen nodes instead of about a hundred. A fused node's forward and
backward repeat the numpy arithmetic of the generic-op chain it stands
for, op for op and in the same order, and each pass still adds into
each weight once, in the same graph order. Gradients and trained
parameters are therefore bit-identical to the generic-op graph's;
tests/test_fused_graph.py keeps that graph as the reference.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionError, NumericError

# Probabilities below this are clamped before log() so losses stay finite.
LOG_EPS = 1e-12

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, got shape {self.shape}")
        return self.data.item()

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad for all reachable tensors."""
        if self.data.size != 1:
            raise DimensionError(f"backward() needs a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            return
        order = _topo_order(self)
        accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return subtract(self, other)

    def __rsub__(self, other):
        return add(multiply(self, -1.0), other)

    def __mul__(self, other):
        return multiply(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return multiply(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return tensor_sum(self)

    def mean(self):
        return mean(self)

    def reshape(self, shape):
        return reshape(self, shape)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _topo_order(root: Tensor) -> list[Tensor]:
    """Inputs-before-consumers ordering of the graph that feeds root."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g into t.grad; a no-op for tensors that need no gradient."""
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def make_node(data: np.ndarray, parents: Iterable[Tensor], backward) -> Tensor:
    """Record an op: backward(g) routes the output gradient g into the
    parents with accumulate(). Outside no_grad(), and when a parent
    needs a gradient, the output joins the graph; otherwise backward and
    everything it holds are dropped."""
    out = Tensor(data)
    grad_parents = tuple(p for p in parents if p.requires_grad)
    if _grad_enabled and grad_parents:
        out.requires_grad = True
        out._parents = grad_parents
        out._backward = backward
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes {a.shape} and {b.shape} are incompatible")

    def backward(g):
        accumulate(a, g @ b.data.T)
        accumulate(b, a.data.T @ g)

    return make_node(a.data @ b.data, (a, b), backward)


def add(a: Tensor, b) -> Tensor:
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

    # The only broadcast supported: adding a bias row vector to a matrix.
    if a.data.ndim == 1 and b.data.ndim == 2:
        a, b = b, a
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        def backward(g):
            accumulate(a, g)
            accumulate(b, g.sum(axis=0))

        return make_node(a.data + b.data, (a, b), backward)
    raise DimensionError(f"add shapes {a.shape} and {b.shape} are incompatible")


def subtract(a: Tensor, b) -> Tensor:
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        def backward(g):
            accumulate(a, g)

        return make_node(a.data - float(b), (a,), backward)

    b = _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"subtract shapes {a.shape} and {b.shape} differ")

    def backward(g):
        accumulate(a, g)
        accumulate(b, -g)

    return make_node(a.data - b.data, (a, b), backward)


def multiply(a: Tensor, b) -> Tensor:
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


def square(t: Tensor) -> Tensor:
    t = _as_tensor(t)

    def backward(g):
        accumulate(t, g * 2.0 * t.data)

    return make_node(t.data ** 2, (t,), backward)


def relu(t: Tensor) -> Tensor:
    t = _as_tensor(t)

    def backward(g):
        accumulate(t, g * (t.data > 0.0))

    return make_node(np.maximum(t.data, 0.0), (t,), backward)


def log(t: Tensor) -> Tensor:
    """log(max(x, LOG_EPS)); gradient is zero on the clamped branch."""
    t = _as_tensor(t)
    clamped = np.maximum(t.data, LOG_EPS)

    def backward(g):
        accumulate(t, g * (t.data > LOG_EPS) / clamped)

    return make_node(np.log(clamped), (t,), backward)


def exp(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    out_data = np.exp(t.data)

    def backward(g):
        accumulate(t, g * out_data)

    return make_node(out_data, (t,), backward)


def mean(t: Tensor) -> Tensor:
    t = _as_tensor(t)
    n = t.data.size

    def backward(g):
        accumulate(t, np.full(t.data.shape, float(g) / n))

    return make_node(t.data.mean(), (t,), backward)


def tensor_sum(t: Tensor) -> Tensor:
    t = _as_tensor(t)

    def backward(g):
        accumulate(t, np.full(t.data.shape, float(g)))

    return make_node(t.data.sum(), (t,), backward)


def sum_along_axis(t: Tensor, axis: int) -> Tensor:
    t = _as_tensor(t)
    if not -t.data.ndim <= axis < t.data.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {t.shape}")

    def backward(g):
        accumulate(t, np.broadcast_to(np.expand_dims(g, axis), t.data.shape).copy())

    return make_node(t.data.sum(axis=axis), (t,), backward)


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    t = _as_tensor(t)
    if not -t.data.ndim <= axis < t.data.ndim:
        raise DimensionError(f"axis {axis} out of range for shape {t.shape}")
    s = softmax_data(t.data, axis)

    def backward(g):
        accumulate(t, softmax_grad(s, g, axis))

    return make_node(s, (t,), backward)


def softmax_data(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-shifted softmax of a plain array: the softmax op's forward."""
    if x.shape[axis] < 2:
        raise DimensionError(f"softmax needs at least 2 entries along axis {axis}, got shape {x.shape}")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_grad(s: np.ndarray, g: np.ndarray, axis: int = -1) -> np.ndarray:
    """The softmax op's backward: the gradient at the logits, given the
    softmax output s and its gradient g."""
    return s * (g - (g * s).sum(axis=axis, keepdims=True))


def reshape(t: Tensor, shape: Sequence[int]) -> Tensor:
    t = _as_tensor(t)
    shape = tuple(shape)
    try:
        out_data = t.data.reshape(shape)
    except ValueError as e:
        raise DimensionError(f"cannot reshape {t.shape} to {shape}") from e

    def backward(g):
        accumulate(t, g.reshape(t.data.shape))

    return make_node(out_data, (t,), backward)


def pick(t: Tensor, index: np.ndarray) -> Tensor:
    """Select one column per row: out[b] = t[b, index[b]].

    The backward pass scatters the incoming gradient into the picked
    positions only.
    """
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


def neg_log_pick(probs: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """-log(pick(probs, index)) on plain arrays, for fused loss nodes.

    Returns the per-row values and a function from their gradient to the
    gradient at probs. Both repeat the arithmetic of the generic chain
    multiply(log(pick(probs, index)), -1.0), LOG_EPS clamp included: a
    picked probability at or below LOG_EPS gives -log(LOG_EPS) and a zero
    gradient. index must already lie in range.
    """
    rows = np.arange(probs.shape[0])
    picked = probs[rows, index]
    clamped = np.maximum(picked, LOG_EPS)

    def backward(g: np.ndarray) -> np.ndarray:
        buf = np.zeros_like(probs)
        buf[rows, index] = g * -1.0 * (picked > LOG_EPS) / clamped
        return buf

    return np.log(clamped) * -1.0, backward


def grad_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of loss_fn against central differences.

    Returns max over parameter entries of |analytic - numeric| / max(1, |numeric|).
    loss_fn must be deterministic: any stochastic augmentation inside it
    has to be re-seeded on every call.
    """
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if loss.data.size != 1 or not np.isfinite(loss.data):
        raise NumericError("grad_check needs a finite scalar loss")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn().data.item()
            flat[i] = orig - eps
            down = loss_fn().data.item()
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError("non-finite loss during finite differencing")
            numeric = (up - down) / (2.0 * eps)
            rel = abs(a_flat[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, rel)
    return worst
