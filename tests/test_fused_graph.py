"""The fused autodiff nodes against the generic-op graph they replace.

The extractor, each head, each loss term and the objective's weighted
sum are single autodiff nodes whose backward repeats the generic ops'
numpy arithmetic. This module builds the objective from the generic ops
of reference_ops as the reference and requires the fused
objective to give the same loss and bit-identical gradients, including
where the LOG_EPS clamp zeroes a gradient, and pins the parameters of a
short training run.
"""

import hashlib

import numpy as np
import pytest

import reference_ops as ref
from openset_ssl import autodiff as ad
from openset_ssl.autodiff import Tensor
from openset_ssl.data import AugmentConfig, GenConfig, augment_strong, augment_weak, gen_synthetic
from openset_ssl.losses import loss_all
from openset_ssl.model import classify_closed, feature_extract, init_params
from openset_ssl.trainer import TrainConfig, train

D_IN, K = 8, 4
AUG = AugmentConfig(weak_noise_sigma=0.3, strong_noise_sigma=0.6, strong_mask_prob=0.2)

# sha256 over parameters() after train(gen_synthetic(GenConfig(), 0),
# TrainConfig(e_fix=1, e_max=2, i_max=20)), as the generic-op graph gave it.
SHORT_RUN_SHA256 = "160afe69a530428cf96809f8ffe6d463bbe6ced4d1dc4ef0be07ccd202425136"


# --- the generic-op reference objective ------------------------------------


def ref_features(params, x):
    h = x if isinstance(x, Tensor) else Tensor(x)
    last = len(params.extractor) - 1
    for i, (w, b) in enumerate(params.extractor):
        h = ref.add(ref.matmul(h, w), b)
        if i < last:
            h = ref.relu(h)
    return h


def ref_closed(params, x):
    return ref.softmax(ref.add(ref.matmul(ref_features(params, x), params.closed_w), params.closed_b), axis=1)


def ref_ova(params, x):
    logits = ref.add(ref.matmul(ref_features(params, x), params.ova_w), params.ova_b)
    return ref.softmax(ref.reshape(logits, (logits.shape[0], params.k_classes, 2)), axis=-1)


def ref_neg_log(t):
    return ref.multiply(ref.log(t), -1.0)


def ref_loss_all(params, x, y, u, i_batch, config, rng, epoch):
    """loss_all as a chain of generic ops, drawing the same noise."""
    y = np.asarray(y, dtype=np.int64)
    total = ref.mean(ref_neg_log(ref.pick(ref_closed(params, x), y)))

    k, b = params.k_classes, len(x)
    p = ref_ova(params, x)
    flat = ref.reshape(p, (b, 2 * k))
    neg_logp = np.log(np.maximum(p.data[:, :, 1], ad.LOG_EPS))
    neg_logp[np.arange(b), y] = np.inf
    hardest = neg_logp.argmin(axis=1)
    pos = ref.log(ref.pick(flat, 2 * y))
    neg = ref.log(ref.pick(flat, 2 * hardest + 1))
    total = ref.add(total, ref.mean(ref.subtract(ref.multiply(pos, -1.0), neg)))

    def weighted(term, scale, lam):
        return ref.multiply(ref.multiply(term, scale), lam)

    if config.lam_em > 0.0:
        p = ref_ova(params, u)
        total = ref.add(total, weighted(ref.tensor_sum(ref.multiply(p, ref.log(p))), -1.0 / len(u), config.lam_em))
    if config.lam_oc > 0.0:
        fwd = ref_ova if config.socr_head == "ova" else ref_closed
        v1, v2 = augment_weak(u, config.augment, rng), augment_weak(u, config.augment, rng)
        gap = ref.subtract(fwd(params, v1), fwd(params, v2))
        total = ref.add(total, weighted(ref.tensor_sum(ref.square(gap)), 1.0 / len(u), config.lam_oc))
    if epoch > config.e_fix and config.lam_fm > 0.0:
        weak = augment_weak(i_batch, config.augment, rng)
        strong = augment_strong(i_batch, config.augment, rng)
        with ad.no_grad():
            q = ref_closed(params, weak).data
        confident = q.max(axis=1) >= config.tau
        if confident.any():
            nll = ref_neg_log(ref.pick(ref_closed(params, strong), q.argmax(axis=1)))
            masked = ref.multiply(nll, Tensor(confident.astype(np.float64)))
            total = ref.add(total, weighted(ref.tensor_sum(masked), 1.0 / len(weak), config.lam_fm))
    return total


# --- helpers ---------------------------------------------------------------


def setup(hidden, seed=0, b=16):
    rng = np.random.default_rng(seed)
    params = init_params(D_IN, hidden, K, rng)
    x = rng.normal(size=(b, D_IN))
    y = np.arange(b) % K
    u = rng.normal(size=(2 * b, D_IN))
    i_batch = rng.normal(size=(b, D_IN))
    return params, x, y, u, i_batch


def grads(objective, params, *args):
    for t in params.parameters():
        t.zero_grad()
    total = objective(params, *args)
    if isinstance(total, tuple):
        total = total[0]
    total.backward()
    return total.item(), [t.grad for t in params.parameters()]


def assert_same_as_reference(params, x, y, u, i_batch, config, epoch):
    fused_value, fused = grads(loss_all, params, x, y, u, i_batch, config, np.random.default_rng(5), epoch)
    ref_value, ref = grads(ref_loss_all, params, x, y, u, i_batch, config, np.random.default_rng(5), epoch)
    assert fused_value == ref_value
    for got, want in zip(fused, ref):
        assert np.array_equal(got, want)


def config(params, i_batch, socr_head="ova"):
    """Self-training from epoch 2, with tau at the median confidence on
    i_batch so that the pseudo-label mask keeps some rows and drops others."""
    with ad.no_grad():
        confidence = classify_closed(params, feature_extract(params, i_batch)).data.max(axis=1)
    return TrainConfig(tau=float(np.median(confidence)), e_fix=1, augment=AUG, socr_head=socr_head)


# --- tests -----------------------------------------------------------------


@pytest.mark.parametrize("hidden", [(), (5,), (64, 64)])
@pytest.mark.parametrize("socr_head", ["ova", "closed"])
@pytest.mark.parametrize("epoch", [1, 2], ids=["warmup", "selftrain"])
def test_gradients_bit_identical_to_generic_ops(hidden, socr_head, epoch):
    params, x, y, u, i_batch = setup(hidden, seed=len(hidden))
    cfg = config(params, i_batch, socr_head)
    _, bd = loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(5), epoch)
    if epoch > cfg.e_fix:
        assert 0 < bd.fm_mask_count < len(i_batch)  # the pseudo-label mask is exercised
    assert_same_as_reference(params, x, y, u, i_batch, cfg, epoch)


@pytest.mark.parametrize("epoch", [1, 2], ids=["warmup", "selftrain"])
def test_clamped_probabilities_match_generic_ops(epoch):
    params, x, y, u, i_batch = setup((5,), seed=3)
    params.closed_b.data[0] = -80.0  # p(class 0) ~ 1e-35 for every row
    params.ova_b.data[0] = -80.0     # p(inlier for class 0) likewise
    with ad.no_grad():
        closed = classify_closed(params, feature_extract(params, x)).data
    assert closed[y == 0, 0].max() < ad.LOG_EPS
    assert_same_as_reference(params, x, y, u, i_batch, config(params, i_batch), epoch)


def reachable(root):
    """The tensors reachable from root through _parents, root included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def test_nodes_per_step():
    params, x, y, u, i_batch = setup((64, 64))
    cfg = config(params, i_batch)
    # 8 parameter leaves; an extractor and a head node per recorded pass (5 in
    # warmup, 6 in self-training); one node per loss term; one weighted-sum node
    warmup, _ = loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(5), 1)
    assert len(reachable(warmup)) == 8 + 2 * 5 + 4 + 1 == 23
    selftrain, bd = loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(5), 2)
    assert bd.fm_mask_count > 0 and len(reachable(selftrain)) == 8 + 2 * 6 + 5 + 1 == 26


@pytest.mark.parametrize("epoch", [1, 2], ids=["warmup", "selftrain"])
def test_backward_releases_every_interior_node(epoch):
    """At wide shapes, one backward leaves no interior node holding a
    gradient or its backward closure (and the activations that holds);
    the parameter leaves hold their gradients."""
    params, x, y, u, i_batch = setup((256, 256), b=256)
    cfg = config(params, i_batch)
    total, bd = loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(5), epoch)
    assert epoch == 1 or bd.fm_mask_count > 0
    total.backward()
    nodes = reachable(total)
    interior = [t for t in nodes if t._parents]
    assert len(interior) == len(nodes) - 8 == (15 if epoch == 1 else 18)
    assert all(t.grad is None and t._backward is None for t in interior)
    assert all(t.grad is not None for t in params.parameters())


def test_short_run_parameters_pinned():
    history = train(gen_synthetic(GenConfig(), 0), TrainConfig(e_fix=1, e_max=2, i_max=20))
    digest = hashlib.sha256(b"".join(p.data.tobytes() for p in history.final_params.parameters()))
    assert digest.hexdigest() == SHORT_RUN_SHA256
