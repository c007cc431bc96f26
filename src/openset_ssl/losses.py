"""Training objectives for the open-set semi-supervised engine.

Supervised terms (cross-entropy and the one-vs-all hinge on hard
negatives) run on labeled data as given. The unlabeled terms are
entropy minimization of the one-vs-all heads, a soft consistency
penalty between two jittered views, and, once self-training starts,
a confidence-thresholded pseudo-label loss on pseudo-inliers.

loss_all alone draws augmentation views (two weak views of the
unlabeled batch, then a weak and a strong view of the pseudo-inliers)
and forwards batches. It draws every view first, has
model.extractor_activations compute each distinct batch's activations
once (the wide ones on both cores), and then records the graph: one
feature_extract node over those activations for each head use, and the
head its term reads. Each term takes only head outputs and labels.
Per-sample sums are normalized by the actual batch length. A term whose
weight is zero is skipped and reported as 0, and draws and forwards
nothing.

Each term is one autodiff node over the head outputs, and loss_all
joins the terms in one more node that forms their weighted sum. Each
node's forward and backward repeat the arithmetic of the generic-op
formula in its docstring, so values and gradients match that formula
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import augment
from .errors import ConfigError
from .model import ModelParams, Workspace, classify_closed, extractor_activations, feature_extract, ova_probs


@dataclass
class LossBreakdown:
    l_cls: float
    l_ova: float
    l_em: float
    l_oc: float
    l_fm: float
    l_all: float
    fm_mask_count: int


def _full(shape, g, scale: float) -> np.ndarray:
    """The backward of tensor_sum(t) * scale at output gradient g."""
    return np.full(shape, float(g * scale))


def loss_cls(probs: Tensor, y: np.ndarray) -> Tensor:
    """Mean cross-entropy of closed-set probabilities [B, K] against true
    labels: mean(-log(pick(probs, y)))."""
    nll, nll_backward = ad.neg_log_pick(probs.data, y)

    def backward(g):
        ad.accumulate(probs, nll_backward(np.full(nll.shape, float(g) / nll.size)))

    return ad.make_node(nll.mean(), (probs,), backward)


def loss_ova(p: Tensor, y: np.ndarray) -> Tensor:
    """One-vs-all loss on one-vs-all probabilities p [B, K, 2]: true class
    as inlier, hardest other class as outlier.

    Per sample, only the sub-classifier with the smallest log outlier
    probability among the non-true classes receives gradient (ties go
    to the lowest class index). With flat = p reshaped to [B, 2K]:
    mean(-log(pick(flat, 2y)) - log(pick(flat, 2 hardest + 1))).
    """
    b, k = p.shape[:2]
    flat = p.data.reshape((b, 2 * k))       # column 2j is inlier-for-j, 2j+1 outlier-for-j
    neg_logp = np.log(np.maximum(p.data[:, :, 1], ad.LOG_EPS))
    neg_logp[np.arange(b), y] = np.inf      # exclude the true class from the min
    hardest = neg_logp.argmin(axis=1)
    pos, pos_backward = ad.neg_log_pick(flat, 2 * y)
    neg, neg_backward = ad.neg_log_pick(flat, 2 * hardest + 1)

    def backward(g):
        g_row = np.full(b, float(g) / b)
        ad.accumulate(p, (pos_backward(g_row) + neg_backward(g_row)).reshape(p.shape))

    # a - b equals a + (-b) exactly, so the sum repeats the generic subtraction
    return ad.make_node((pos + neg).mean(), (p,), backward)


def loss_em(p: Tensor) -> Tensor:
    """Mean over the batch of the summed binary entropies of all K
    one-vs-all heads, p [B, K, 2]: tensor_sum(p * log(p)) * (-1 / B)."""
    if len(p.data) == 0:
        return Tensor(0.0)
    clamped = np.maximum(p.data, ad.LOG_EPS)
    log_p = np.log(clamped)
    scale = -1.0 / len(p.data)

    def backward(g):
        g_p = _full(p.shape, g, scale)
        # p feeds the product directly and through log(), which clamps at LOG_EPS
        ad.accumulate(p, g_p * log_p + g_p * p.data * (p.data > ad.LOG_EPS) / clamped)

    return ad.make_node((p.data * log_p).sum() * scale, (p,), backward)


def loss_socr(p1: Tensor, p2: Tensor) -> Tensor:
    """Mean over the batch of the squared gap between one head's
    probabilities on two views: tensor_sum(square(p1 - p2)) * (1 / B).

    Both views stay in the graph: no sharpening, no stopped gradients.
    """
    if p1.shape != p2.shape:
        raise ConfigError(f"consistency views must have equal shapes, got {p1.shape} and {p2.shape}")
    if len(p1.data) == 0:
        return Tensor(0.0)
    gap = p1.data - p2.data
    scale = 1.0 / len(gap)

    def backward(g):
        g_gap = _full(gap.shape, g, scale) * 2.0 * gap
        ad.accumulate(p1, g_gap)
        ad.accumulate(p2, -g_gap)

    return ad.make_node((gap ** 2).sum() * scale, (p1, p2), backward)


def loss_fixmatch(q: np.ndarray, strong_probs: Tensor, tau: float) -> tuple[Tensor, int]:
    """Pseudo-label cross-entropy; returns (loss, mask count).

    q holds the weak view's closed-set probabilities, computed without
    gradients; strong_probs the strong view's. Only rows whose weak
    confidence reaches tau contribute, and the sum is divided by the
    full batch length rather than the mask count:
    tensor_sum(-log(pick(strong_probs, argmax(q))) * mask) * (1 / B).
    """
    if q.shape != strong_probs.shape:
        raise ConfigError(f"weak and strong views must have equal shapes, got {q.shape} and {strong_probs.shape}")
    pseudo = q.argmax(axis=1)
    confident = q[np.arange(len(q)), pseudo] >= tau  # the row max, gathered
    count = int(confident.sum())
    if count == 0:
        return Tensor(0.0), 0
    mask = confident.astype(np.float64)
    nll, nll_backward = ad.neg_log_pick(strong_probs.data, pseudo)
    scale = 1.0 / len(q)

    def backward(g):
        ad.accumulate(strong_probs, nll_backward(_full(nll.shape, g, scale) * mask))

    return ad.make_node((nll * mask).sum() * scale, (strong_probs,), backward), count


def loss_all(
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    u: np.ndarray,
    i_batch: np.ndarray,
    config,
    rng: np.random.Generator,
    epoch: int,
    *,
    workspace: Workspace | None = None,
) -> tuple[Tensor, LossBreakdown]:
    """Full objective for one step: supervised terms plus weighted
    unlabeled terms, summed in one node as
    ((cls + ova) + em * lam_em) + oc * lam_oc + fm * lam_fm, where a term
    whose weight is zero is left out. The pseudo-label term only exists
    after the self-training warmup (epoch > e_fix); before that the total
    is independent of i_batch.

    The activations go into the workspace's buffers (a new workspace's
    when none is given), which the returned graph reads until its
    backward() has run; the weak view's slot is given back as soon as its
    no-grad head has read it.
    """
    workspace = Workspace() if workspace is None else workspace
    views = {"x": x}  # every distinct batch the step forwards, drawn in one fixed RNG order
    if config.lam_em > 0.0:
        views["u"] = u
    if config.lam_oc > 0.0:
        views["v1"] = augment(u, config.weak_noise_sigma, 0.0, rng)
        views["v2"] = augment(u, config.weak_noise_sigma, 0.0, rng)
    if epoch > config.e_fix and config.lam_fm > 0.0:
        views["weak"] = augment(i_batch, config.weak_noise_sigma, 0.0, rng)
        views["strong"] = augment(i_batch, config.strong_noise_sigma, config.strong_mask_prob, rng)
    acts = dict(zip(views, extractor_activations(params, list(views.values()), workspace)))

    def forward(head, name) -> Tensor:
        return head(params, feature_extract(params, views[name], acts[name]))

    cls = loss_cls(forward(classify_closed, "x"), y)
    ova = loss_ova(forward(ova_probs, "x"), y)
    terms = {"l_cls": (cls, 1.0), "l_ova": (ova, 1.0)}
    mask_count = 0
    if "u" in views:
        terms["l_em"] = (loss_em(forward(ova_probs, "u")), float(config.lam_em))
    if "v1" in views:
        head = ova_probs if config.socr_head == "ova" else classify_closed
        terms["l_oc"] = (loss_socr(forward(head, "v1"), forward(head, "v2")), float(config.lam_oc))
    if "weak" in views:
        with ad.no_grad():
            q = forward(classify_closed, "weak").data
        # Its buffers were allocated just before the strong view's, so the
        # hole they leave when this call returns lies below the heap top,
        # where the backward's arrays reuse it.
        workspace.release(list(views).index("weak"))
        fm, mask_count = loss_fixmatch(q, forward(classify_closed, "strong"), config.tau)
        terms["l_fm"] = (fm, float(config.lam_fm))
    weighted = list(terms.values())
    value = cls.data + ova.data
    for term, w in weighted[2:]:
        value = value + term.data * w

    def backward(g):
        for term, w in weighted:
            ad.accumulate(term, g * w)

    total = ad.make_node(value, [term for term, _ in weighted], backward)
    # The extractor nodes in the graph: each term's heads' first parent. A
    # term that came out 0 has no parents, and its nodes are garbage.
    workspace.read_by(head._parents[0] for term, _ in weighted for head in term._parents)
    values = {"l_em": 0.0, "l_oc": 0.0, "l_fm": 0.0} | {name: term.item() for name, (term, _) in terms.items()}
    return total, LossBreakdown(**values, l_all=total.item(), fm_mask_count=mask_count)
