"""Reverse-mode automatic differentiation over dense float64 arrays.

make_node is the one way to record a graph node: it allocates a fresh
output tensor and keeps a closure that routes the output gradient back
to its parents with accumulate(), so the recorded graph doubles as the
tape. Calling backward() on a scalar tensor topologically sorts that
graph and accumulates gradients into every reachable leaf with
requires_grad set. It consumes the graph as it goes: each node drops its
gradient and closure once its backward has run, so what a closure saved
is let go as soon as the pass is done with it, and a consumed graph
cannot be backpropagated twice. The extractor activations of a training
step are the exception: they live in trainer.train's workspace
(model.Workspace), which writes them again only once the graph that
reads them is consumed.

The model and the losses record fused nodes: the whole extractor MLP is
one node, each head (matmul, bias, optional reshape, softmax) is one
node, each loss term is one node over the head outputs, and the
objective's weighted sum of the terms is one node. A fused node's
forward and backward repeat the numpy arithmetic of the generic-op
chain it stands for, op for op and in the same order, and each pass
still adds into each weight once, in the same graph order; the pair
softmax only writes its length-2 reductions out elementwise. Gradients
and trained parameters are therefore bit-identical to the generic-op
graph's; the tests keep that graph (tests/reference_ops.py) as the
reference.

Inside helper_thread(), one helper thread runs the jobs that offload()
hands it, one at a time, so a caller can run arithmetic there while it
runs independent arithmetic itself: the extractor forward computes
every second wide batch there (model.extractor_activations), and its
backward one weight gradient per wide layer (model.feature_extract).
The thread lives only as long as the block: trainer.train opens it
around its epoch loop, so no thread of the package is alive outside
train(), when data._two_processes forks or when the process exits.
Outside the block offload() runs the job at once on the calling thread.
A job is plain numpy on arrays its caller already holds: it records no
graph node. Graph recording stays on the main thread, because it reads
the process-global no_grad() state, which the main thread changes
around the weak view's head. A job's exception, MemoryError included,
is raised again on the thread that waits for the job.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np

from .errors import DimensionError

# Probabilities below this are clamped before log() so losses stay finite.
LOG_EPS = 1e-12

_grad_enabled = True

_helper_jobs: queue.SimpleQueue | None = None  # the open helper thread's job queue


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


@contextmanager
def helper_thread():
    """Run offload()'s jobs on one helper thread inside the block; the
    thread is joined when the block ends, on an error too."""
    global _helper_jobs
    prev = _helper_jobs
    jobs = queue.SimpleQueue()
    thread = threading.Thread(target=_serve, args=(jobs,), name="openset_ssl.helper")
    thread.start()
    _helper_jobs = jobs
    try:
        yield
    finally:
        _helper_jobs = prev
        jobs.put(None)  # the jobs already queued run first
        thread.join()


def _serve(jobs: queue.SimpleQueue) -> None:
    while (job := jobs.get()) is not None:
        fn, args, done = job
        try:
            fn(*args)
            error = None
        except BaseException as e:  # raised again by the waiting thread
            error = e
        # Let go of the job's arrays before the waiting thread wakes: they
        # are then freed on that thread's schedule, and the heap's layout
        # does not depend on how the two threads interleave.
        del job, fn, args
        done.put(error)


def offload(fn, *args) -> Callable[[], None]:
    """Start fn(*args) on the helper thread, or run it now when no
    helper_thread() block is open. fn works by side effect: it writes
    into an array that the caller allocated and holds. Returns a function
    that waits for fn to finish and raises its exception, if any. fn must
    not record graph nodes."""
    if _helper_jobs is None:
        fn(*args)
        return lambda: None
    done = queue.SimpleQueue()  # this job's own result slot
    _helper_jobs.put((fn, args, done))

    def wait() -> None:
        error = done.get()
        if error is not None:
            raise error

    return wait


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

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, got shape {self.shape}")
        return self.data.item()

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf.

        The graph is consumed on the way: once a recorded node's backward
        has run, its .grad and its backward closure (with the activations
        it saved) are released, so only leaves keep .grad. A node keeps
        its .data and parents, and a node with parents but no backward is
        consumed: a graph that reaches one cannot be backpropagated again.
        """
        if self.data.size != 1:
            raise DimensionError(f"backward() needs a scalar root, got shape {self.shape}")
        if not self.requires_grad:
            return
        order = _topo_order(self)
        if any(node._parents and node._backward is None for node in order):
            raise RuntimeError("backward() through a graph that an earlier backward() already consumed")
        accumulate(self, np.ones_like(self.data))
        for node in reversed(order):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = None

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


def accumulate(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    """Add g into t.grad; a no-op for tensors that need no gradient. With
    own, g is the caller's own buffer, and the sum t.grad + g is written
    into it instead of a new array."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = np.add(t.grad, g, out=g if own else None)


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


def softmax_data(x: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis: the closed head's forward."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The softmax backward: the logits' gradient, given the output s and its gradient g."""
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def pair_softmax_data(z: np.ndarray) -> np.ndarray:
    """softmax_data over a last axis of length 2, bit for bit, without numpy's slow reductions."""
    shifted = z - np.maximum(z[..., 0], z[..., 1])[..., None]
    e = np.exp(shifted)
    return e / (e[..., 0] + e[..., 1])[..., None]


def pair_softmax_grad(s: np.ndarray, g: np.ndarray) -> np.ndarray:
    """softmax_grad over a last axis of length 2, bit for bit."""
    gs = g * s
    total = gs[..., 0] + gs[..., 1]
    total += 0.0  # numpy's sum starts from +0.0, so two -0.0 entries sum to +0.0
    return s * (g - total[..., None])


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
