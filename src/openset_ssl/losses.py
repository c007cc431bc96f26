"""Training objectives for the open-set semi-supervised engine.

Supervised terms (cross-entropy and the one-vs-all hinge on hard
negatives) run on labeled data as given. The unlabeled terms are
entropy minimization of the one-vs-all heads, a soft consistency
penalty between two jittered views, and, once self-training starts,
a confidence-thresholded pseudo-label loss on pseudo-inliers.

Per-sample sums are normalized by the actual batch length. Components
whose weight is zero are skipped entirely and reported as 0; a skipped
consistency or pseudo-label term also draws no augmentation noise.

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
from .data import AugmentConfig, augment_strong, augment_weak
from .errors import ConfigError
from .model import ModelParams, classify_closed, feature_extract, ova_probs


@dataclass
class LossBreakdown:
    l_cls: float
    l_ova: float
    l_em: float
    l_oc: float
    l_fm: float
    l_all: float
    fm_mask_count: int


def _closed(params: ModelParams, x) -> Tensor:
    return classify_closed(params, feature_extract(params, x))


def _ova(params: ModelParams, x) -> Tensor:
    return ova_probs(params, feature_extract(params, x))


def _full(shape, g, scale: float) -> np.ndarray:
    """The backward of tensor_sum(t) * scale at output gradient g."""
    return np.full(shape, float(g * scale))


def _check_labels(y: np.ndarray, k: int) -> np.ndarray:
    y = np.asarray(y)
    if y.size and (y.min() < 0 or y.max() >= k):
        raise ConfigError(f"labels must lie in [0, {k})")
    return y.astype(np.int64)


def loss_cls(params: ModelParams, x: np.ndarray, y: np.ndarray) -> Tensor:
    """Mean cross-entropy of the closed-set head against true labels:
    mean(-log(pick(closed_probs, y)))."""
    y = _check_labels(y, params.k_classes)
    probs = _closed(params, x)
    nll, nll_backward = ad.neg_log_pick(probs.data, y)

    def backward(g):
        ad.accumulate(probs, nll_backward(np.full(nll.shape, float(g) / nll.size)))

    return ad.make_node(nll.mean(), (probs,), backward)


def loss_ova(params: ModelParams, x: np.ndarray, y: np.ndarray) -> Tensor:
    """One-vs-all loss: true class as inlier, hardest other class as outlier.

    Per sample, only the sub-classifier with the smallest log outlier
    probability among the non-true classes receives gradient (ties go
    to the lowest class index). With flat = ova_probs reshaped to
    [B, 2K]: mean(-log(pick(flat, 2y)) - log(pick(flat, 2 hardest + 1))).
    """
    k = params.k_classes
    if k < 2:
        raise ConfigError("one-vs-all loss needs at least 2 classes")
    y = _check_labels(y, k)
    p = _ova(params, x)                     # [B, K, 2]
    b = p.shape[0]
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


def loss_em(params: ModelParams, u: np.ndarray) -> Tensor:
    """Mean over the batch of the summed binary entropies of all K heads:
    tensor_sum(p * log(p)) * (-1 / B) with p = ova_probs."""
    u = np.asarray(u, dtype=np.float64)
    if len(u) == 0:
        return Tensor(0.0)
    p = _ova(params, u)
    clamped = np.maximum(p.data, ad.LOG_EPS)
    log_p = np.log(clamped)
    scale = -1.0 / len(u)

    def backward(g):
        g_p = _full(p.shape, g, scale)
        # p feeds the product directly and through log(), which clamps at LOG_EPS
        ad.accumulate(p, g_p * log_p + g_p * p.data * (p.data > ad.LOG_EPS) / clamped)

    return ad.make_node((p.data * log_p).sum() * scale, (p,), backward)


def consistency_from_views(params: ModelParams, v1: np.ndarray, v2: np.ndarray, head: str = "ova") -> Tensor:
    """Mean over the batch of the squared probability gap between two
    views: tensor_sum(square(p1 - p2)) * (1 / B).

    Both views stay in the graph: no sharpening, no stopped gradients.
    head selects which probabilities are compared ("ova" or "closed").
    """
    if head not in ("ova", "closed"):
        raise ConfigError(f"head must be 'ova' or 'closed', got {head!r}")
    if len(v1) != len(v2):
        raise ConfigError("consistency views must have equal batch sizes")
    if len(v1) == 0:
        return Tensor(0.0)
    fwd = _ova if head == "ova" else _closed
    p1, p2 = fwd(params, v1), fwd(params, v2)
    gap = p1.data - p2.data
    scale = 1.0 / len(v1)

    def backward(g):
        g_gap = _full(gap.shape, g, scale) * 2.0 * gap
        ad.accumulate(p1, g_gap)
        ad.accumulate(p2, -g_gap)

    return ad.make_node((gap ** 2).sum() * scale, (p1, p2), backward)


def loss_socr(
    params: ModelParams,
    u: np.ndarray,
    aug: AugmentConfig,
    rng: np.random.Generator,
    head: str = "ova",
) -> Tensor:
    """Soft consistency between two independent weak augmentations of u."""
    u = np.asarray(u, dtype=np.float64)
    if len(u) == 0:
        return Tensor(0.0)
    v1 = augment_weak(u, aug, rng)
    v2 = augment_weak(u, aug, rng)
    return consistency_from_views(params, v1, v2, head=head)


def fixmatch_from_views(params: ModelParams, weak: np.ndarray, strong: np.ndarray, tau: float) -> tuple[Tensor, int]:
    """Pseudo-label cross-entropy given prepared weak and strong views.

    Pseudo-labels come from the weak view with gradients detached; only
    samples whose weak confidence reaches tau contribute, and the sum is
    divided by the full batch length rather than the mask count:
    tensor_sum(-log(pick(closed_probs(strong), pseudo)) * mask) * (1 / B).
    """
    if not 0.0 < tau <= 1.0:
        raise ConfigError(f"tau must lie in (0, 1], got {tau}")
    if len(weak) != len(strong):
        raise ConfigError("weak and strong views must have equal batch sizes")
    if len(weak) == 0:
        return Tensor(0.0), 0
    with ad.no_grad():
        q = _closed(params, weak).data
    pseudo = q.argmax(axis=1)
    confident = q[np.arange(len(q)), pseudo] >= tau  # the row max, gathered
    count = int(confident.sum())
    if count == 0:
        return Tensor(0.0), 0
    mask = confident.astype(np.float64)
    strong_probs = _closed(params, strong)
    nll, nll_backward = ad.neg_log_pick(strong_probs.data, pseudo)
    scale = 1.0 / len(weak)

    def backward(g):
        ad.accumulate(strong_probs, nll_backward(_full(nll.shape, g, scale) * mask))

    return ad.make_node((nll * mask).sum() * scale, (strong_probs,), backward), count


def loss_fixmatch(
    params: ModelParams,
    i_batch: np.ndarray,
    aug: AugmentConfig,
    rng: np.random.Generator,
    tau: float,
) -> tuple[Tensor, int]:
    """Pseudo-label loss on a pseudo-inlier batch; returns (loss, mask count)."""
    i_batch = np.asarray(i_batch, dtype=np.float64)
    if len(i_batch) == 0:
        return Tensor(0.0), 0
    weak = augment_weak(i_batch, aug, rng)
    strong = augment_strong(i_batch, aug, rng)
    return fixmatch_from_views(params, weak, strong, tau)


def loss_all(
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    u: np.ndarray,
    i_batch: np.ndarray,
    config,
    rng: np.random.Generator,
    epoch: int,
) -> tuple[Tensor, LossBreakdown]:
    """Full objective for one step: supervised terms plus weighted
    unlabeled terms, summed in one node as
    ((cls + ova) + em * lam_em) + oc * lam_oc + fm * lam_fm, where a term
    whose weight is zero is left out. The pseudo-label term only exists
    after the self-training warmup (epoch > e_fix); before that the total
    is independent of i_batch.
    """
    cls = loss_cls(params, x, y)
    ova = loss_ova(params, x, y)
    weighted = [(cls, 1.0), (ova, 1.0)]
    em_v = oc_v = fm_v = 0.0
    mask_count = 0
    if config.lam_em > 0.0:
        em = loss_em(params, u)
        weighted.append((em, float(config.lam_em)))
        em_v = em.item()
    if config.lam_oc > 0.0:
        oc = loss_socr(params, u, config.augment, rng, head=config.socr_head)
        weighted.append((oc, float(config.lam_oc)))
        oc_v = oc.item()
    if epoch > config.e_fix and config.lam_fm > 0.0:
        fm, mask_count = loss_fixmatch(params, i_batch, config.augment, rng, config.tau)
        weighted.append((fm, float(config.lam_fm)))
        fm_v = fm.item()
    value = cls.data + ova.data
    for term, w in weighted[2:]:
        value = value + term.data * w

    def backward(g):
        for term, w in weighted:
            ad.accumulate(term, g * w)

    total = ad.make_node(value, [term for term, _ in weighted], backward)
    breakdown = LossBreakdown(
        l_cls=cls.item(),
        l_ova=ova.item(),
        l_em=em_v,
        l_oc=oc_v,
        l_fm=fm_v,
        l_all=total.item(),
        fm_mask_count=mask_count,
    )
    return total, breakdown
