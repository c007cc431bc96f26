"""The training workspace: activation buffers reused from step to step.

train() keeps one model.Workspace. Each batch slot's extractor
activations go into the same buffers every step, the spent graph is
dropped after backward(), the weak view's slot is given back once its
no-grad head has read it, and the workspace is emptied before each
epoch's selection and evaluation. These tests check the reuse rule (a
buffer is written only when no live graph node reads it, and a write
that would break it raises before anything is written), that steps in
the workspace give the gradients of steps without one, that train()
follows the protocol, and what a step in the workspace may peak at.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset_ssl import autodiff as ad
from openset_ssl import model, trainer
from openset_ssl.autodiff import Tensor
from openset_ssl.data import GenConfig, gen_synthetic
from openset_ssl.losses import loss_all
from openset_ssl.model import Workspace, init_params
from openset_ssl.trainer import TrainConfig, train
from test_fused_graph import reachable

D_IN, K, B = 8, 4, 8


def small_step_inputs(seed=0, hidden=(16, 16), b=B, d_in=D_IN):
    rng = np.random.default_rng(seed)
    params = init_params(d_in, hidden, K, rng)
    x, y = rng.normal(size=(b, d_in)), np.arange(b) % K
    u, i_batch = rng.normal(size=(2 * b, d_in)), rng.normal(size=(2 * b, d_in))
    return params, x, y, u, i_batch, TrainConfig(b=b, hidden=hidden, e_fix=1, tau=0.3)


def arrays_read_by(node):
    """The arrays a node's backward closure reads: arrays, tensors' data
    and the arrays in lists and tuples it holds."""
    found, stack = [], [cell.cell_contents for cell in node._backward.__closure__ or ()]
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, Tensor):
            found.append(value.data)
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
    return found


def live_nodes(roots):
    """Nodes reachable from the roots whose backward has not run."""
    return [node for root in roots for node in reachable(root) if node._backward is not None]


def reads_any(node, buffers):
    return any(np.shares_memory(a, buf) for a in arrays_read_by(node) for buf in buffers)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["step", "warmup step", "backward", "backward one term", "shorter pseudo batch"]),
                min_size=1, max_size=8))
def test_no_live_node_reads_a_buffer_when_it_is_written(ops):
    """Any order of steps and backward passes on one workspace: each write
    into a buffer finds no live node reading it, and loss_all raises,
    before it writes anything, exactly when a live node reads one of the
    workspace's buffers. A graph consumed in part (the backward of one
    loss term) keeps the rest of it live."""
    params, x, y, u, i_batch, cfg = small_step_inputs()
    workspace = Workspace()
    graphs, terms = [], []
    writes = []
    real_forward = model._layers_forward

    def checking_forward(outs, h, layers):
        assert not any(reads_any(node, outs) for node in live_nodes(graphs + terms))
        writes.append(len(outs))
        real_forward(outs, h, layers)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_layers_forward", checking_forward)
        run_ops(ops, params, x, y, u, i_batch, cfg, workspace, graphs, terms, writes)


def run_ops(ops, params, x, y, u, i_batch, cfg, workspace, graphs, terms, writes):
    for op in ops:
        if op.endswith("step") or op == "shorter pseudo batch":
            pseudo = i_batch[:B] if op == "shorter pseudo batch" else i_batch
            held = [buf for bufs in workspace._slots.values() for buf in bufs]
            blocked = any(reads_any(node, held) for node in live_nodes(graphs + terms))
            before = len(writes)
            epoch = 1 if op == "warmup step" else 2
            if blocked:
                with pytest.raises(RuntimeError, match="before backward"):
                    loss_all(params, x, y, u, pseudo, cfg, np.random.default_rng(5), epoch, workspace=workspace)
                assert len(writes) == before
            else:
                total, _ = loss_all(params, x, y, u, pseudo, cfg, np.random.default_rng(5), epoch,
                                    workspace=workspace)
                graphs.append(total)
                terms.append(total._parents[0])  # the L_cls node
        elif op == "backward one term" and terms and terms[-1]._backward is not None:
            terms[-1].backward()
        elif op == "backward" and graphs and graphs[-1]._backward is not None:
            try:
                graphs[-1].backward()
            except RuntimeError:  # a term of this graph was already consumed
                pass
        for t in params.parameters():
            t.zero_grad()


def test_second_loss_all_before_backward_raises_before_writing(monkeypatch):
    params, x, y, u, i_batch, cfg = small_step_inputs()
    workspace = Workspace()
    loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(5), 2, workspace=workspace)
    forwards = []
    monkeypatch.setattr(model, "_layers_forward", lambda *args: forwards.append(args))
    with pytest.raises(RuntimeError, match="before backward"):
        loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(5), 2, workspace=workspace)
    assert forwards == []


def step_grads(params, x, y, u, i_batch, cfg, epoch, workspace=None):
    for t in params.parameters():
        t.zero_grad()
    total, _ = loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(5), epoch, workspace=workspace)
    total.backward()
    return [t.grad for t in params.parameters()]


def test_steps_in_a_workspace_give_the_gradients_of_fresh_steps():
    """Warmup and self-training steps, with the pseudo-inlier batch's rows
    changing, inside the helper block with every batch at the gate."""
    params, x, y, u, i_batch, cfg = small_step_inputs()
    workspace = Workspace()
    plan = [(1, i_batch), (1, i_batch), (2, i_batch), (2, i_batch[:3]), (2, i_batch[:0]), (2, i_batch), (1, i_batch)]
    with pytest.MonkeyPatch.context() as mp, ad.helper_thread():
        mp.setattr(model, "OFFLOAD_MIN_SIZE", 1)
        for epoch, pseudo in plan:
            fresh = step_grads(params, x, y, u, pseudo, cfg, epoch)
            reused = step_grads(params, x, y, u, pseudo, cfg, epoch, workspace)
            assert all(np.array_equal(a, b) for a, b in zip(fresh, reused))


def test_loss_all_without_a_workspace_allocates_fresh_buffers():
    """A graph built without a workspace keeps its own activations: a
    second loss_all neither raises nor touches them, and the first
    graph's backward still gives its own gradients."""
    params, x, y, u, i_batch, cfg = small_step_inputs()
    want = step_grads(params, x, y, u, i_batch, cfg, 2)
    first, _ = loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(5), 2)
    second, _ = loss_all(params, x * 2.0, y, u * 2.0, i_batch * 2.0, cfg, np.random.default_rng(6), 2)
    second_arrays = [a for node in live_nodes([second]) for a in arrays_read_by(node)
                     if not np.shares_memory(a, params.flat)]
    assert second_arrays and not any(reads_any(node, second_arrays) for node in live_nodes([first]))
    for t in params.parameters():
        t.zero_grad()
    first.backward()
    assert all(np.array_equal(t.grad, g) for t, g in zip(params.parameters(), want))


def test_train_reuses_the_workspace_and_empties_it_before_selection_and_evaluation(monkeypatch):
    """Within an epoch each slot's buffers are allocated once, except the
    weak view's, which is given back every self-training step; when the
    optimizer step runs, the only graph nodes alive are the extractor
    nodes the workspace tracks; selection and evaluation find it empty."""
    workspaces, allocated, nodes_at_update = [], [], []

    class RecordingWorkspace(Workspace):
        def __init__(self):
            super().__init__()
            workspaces.append(self)

        def buffers(self, slot, shapes):
            bufs = super().buffers(slot, shapes)
            if not any(bufs[0] is seen for seen in allocated):
                allocated.append(bufs[0])
            return bufs

    def empty_workspace(fn):
        def wrapped(*args, **kwargs):
            assert all(not ws._slots for ws in workspaces)
            return fn(*args, **kwargs)
        return wrapped

    real_sgd_step = trainer.sgd_step

    def counting_sgd_step(*args):
        graph = [o for o in gc.get_objects() if type(o) is Tensor and o._parents]
        nodes_at_update.append(len(graph))
        assert all(any(node is reader for reader in workspaces[0]._readers) for node in graph)
        return real_sgd_step(*args)

    monkeypatch.setattr(trainer, "Workspace", RecordingWorkspace)
    monkeypatch.setattr(trainer, "select_pseudo_inliers", empty_workspace(trainer.select_pseudo_inliers))
    monkeypatch.setattr(trainer, "evaluate_params", empty_workspace(trainer.evaluate_params))
    monkeypatch.setattr(trainer, "sgd_step", counting_sgd_step)
    i_max = 3
    history = train(gen_synthetic(GenConfig(), 0), TrainConfig(e_fix=1, e_max=2, i_max=i_max, eval_every=1))
    assert history.k_sizes[0] > 0 and len(workspaces) == 1
    # warmup: x, u, v1, v2 once; self-training: those four and the strong view
    # once, the weak view every step (held by `allocated` here, so never reused)
    assert len(allocated) == 4 + 5 + i_max
    assert nodes_at_update == [5] * i_max + [6] * i_max


HIDDEN, WIDE_B, MU = (256, 256), 256, 2


@pytest.mark.parametrize("epoch", [1, 2], ids=["warmup", "selftrain"])
def test_later_step_in_a_workspace_peaks_no_higher_than_a_fresh_step_plus_one_activation(epoch):
    """A step with fresh activations holds one set of activations plus its
    transients, and lets each batch's activations go as its node's
    backward runs. Two steps in a new workspace, its buffers traced, peak
    no higher than that step plus one [b, hidden] activation: the second
    step writes the first one's buffers, the first one's graph is gone,
    and the weak view's slot is given back before the backward; by the
    fresh step's peak, its backward has let go of one [b, hidden]
    activation that the workspace keeps until the next step. 16 KiB
    cover small objects: the workspace, its lists and the node list."""
    params, x, y, u, i_batch, cfg = small_step_inputs(hidden=HIDDEN, b=WIDE_B, d_in=32)
    args = (params, x, y, u, i_batch, cfg, np.random.default_rng(5), epoch)

    def step(workspace=None):
        for t in params.parameters():
            t.zero_grad()
        total, bd = loss_all(*args[:6], np.random.default_rng(5), epoch, workspace=workspace)
        assert epoch == 1 or bd.fm_mask_count > 0
        total.backward()

    def two_steps():
        workspace = Workspace()
        step(workspace)
        step(workspace)

    step()
    fresh = traced_peak_bytes(step)
    assert traced_peak_bytes(two_steps) <= fresh + 8 * WIDE_B * HIDDEN[1] + 16 * 1024


def traced_peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
