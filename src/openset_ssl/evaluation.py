"""Open-set prediction, anomaly scores, metrics and their text I/O.

predict_open is the package's one no-grad forward: pseudo-inlier
selection, the anomaly scores and every evaluation metric read its
result. It forwards score_block_rows(params) rows at a time: as many as
keep the widest array a block holds (a hidden layer's activations, or
the 2K one-vs-all outputs) within SCORE_BLOCK_ELEMENTS, so its memory
grows neither with the input nor with the layer width. A sample's
verdict is its closed-set label unless the predicted class's inlier
probability falls strictly below 0.5, and its anomaly score is the
outlier probability 1 - p(inlier | predicted class). AUROC is the
Mann-Whitney rank statistic with half credit for ties, which equals the
trapezoidal area under the ROC curve.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .data import Split, TAG_INLIER, TAG_SEEN_OUTLIER, TAG_UNSEEN_OUTLIER
from .errors import ConfigError, MetricError, NumericError
from .model import ModelParams, classify_closed, feature_extract, ova_probs

# Verdict value for samples rejected as outliers; inliers carry their class index.
OUTLIER = -1

# Elements of the widest per-block array in predict_open: 4096 rows of the
# default model's 64-wide layers, so that its calls (a 2000-row selection
# pool, a 700-row test split) are one block each.
SCORE_BLOCK_ELEMENTS = 4096 * 64


@dataclass
class OpenSetPrediction:
    closed_label: np.ndarray  # [B] int, argmax of the closed-set head
    inlier_prob: np.ndarray   # [B] float, p of the predicted class's inlier logit
    verdict: np.ndarray       # [B] int, class index or OUTLIER


@dataclass
class MetricsRecord:
    epoch: int
    l_cls: float
    l_ova: float
    l_em: float
    l_oc: float
    l_fm: float
    err_inlier: float
    auroc_seen: float | None
    auroc_unseen: float | None
    k_size: int


# metrics.txt keys in line order, and each key's type: int, float, or
# float | None for an AUROC that is omitted when undefined.
METRICS_KEY_ORDER = tuple(f.name for f in fields(MetricsRecord))
_METRICS_TYPES = get_type_hints(MetricsRecord)


def score_block_rows(params: ModelParams) -> int:
    """Rows per predict_open forward: SCORE_BLOCK_ELEMENTS over the widest
    per-row array a block holds, the hidden widths and the 2K one-vs-all
    outputs."""
    return max(1, SCORE_BLOCK_ELEMENTS // max((*params.hidden, 2 * params.k_classes)))


def predict_open(params: ModelParams, x: np.ndarray) -> OpenSetPrediction:
    """Closed-set label plus the outlier verdict, on the input as given.

    Raises NumericError naming the first row whose features or head
    outputs are not finite, as happens when a huge input or diverged
    weights overflow the extractor.
    """
    labels, probs = [], []
    rows = score_block_rows(params)
    for start in range(0, max(len(x), 1), rows):  # an empty x still runs one forward
        with ad.no_grad(), np.errstate(over="ignore", invalid="ignore"):
            features = feature_extract(params, x[start:start + rows])
            closed = classify_closed(params, features).data
            ova = ova_probs(params, features).data
        finite = (np.isfinite(features.data).all(axis=1) & np.isfinite(closed).all(axis=1)
                  & np.isfinite(ova).all(axis=(1, 2)))
        if not finite.all():
            raise NumericError(f"non-finite scores at row {start + int(np.argmin(finite))}")
        labels.append(closed.argmax(axis=1))
        probs.append(ova[np.arange(len(labels[-1])), labels[-1], 0])
    # a single block is returned as computed, without a copy
    label, inlier_prob = (np.concatenate(p) if len(p) > 1 else p[0] for p in (labels, probs))
    verdict = np.where(inlier_prob < 0.5, OUTLIER, label)
    return OpenSetPrediction(closed_label=label, inlier_prob=inlier_prob, verdict=verdict)


def anomaly_scores(prediction: OpenSetPrediction) -> np.ndarray:
    """Outlier probability of the predicted class for each row."""
    return 1.0 - prediction.inlier_prob


def auroc(scores: np.ndarray, is_outlier: np.ndarray) -> float:
    """Probability that a random outlier outscores a random inlier,
    counting ties as half. Needs both populations present."""
    scores = np.asarray(scores, dtype=np.float64)
    is_outlier = np.asarray(is_outlier, dtype=bool)
    if scores.shape != is_outlier.shape or scores.ndim != 1:
        raise MetricError(f"scores {scores.shape} and labels {is_outlier.shape} must be equal-length vectors")
    n_pos = int(is_outlier.sum())
    n_neg = len(is_outlier) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUROC is undefined without both inliers and outliers")
    # U counts, per outlier, the inliers below it plus half those tied with it:
    # a sum of integers over 2, so exact.
    inliers = np.sort(scores[~is_outlier])
    outliers = scores[is_outlier]
    u = (np.searchsorted(inliers, outliers, "left").sum() + np.searchsorted(inliers, outliers, "right").sum()) / 2
    return float(u / (n_pos * n_neg))


def error_rate_inliers(prediction: OpenSetPrediction, test: Split) -> float:
    """Closed-set misclassification rate over ground-truth inliers only;
    the outlier verdict plays no part here."""
    mask = test.tag == TAG_INLIER
    if not mask.any():
        raise MetricError("error_rate_inliers needs at least one ground-truth inlier")
    return float(np.mean(prediction.closed_label[mask] != test.y[mask]))


@dataclass
class EvalResult:
    err_inlier: float
    auroc_seen: float | None
    auroc_unseen: float | None
    scores: np.ndarray      # anomaly scores over the full test split
    is_outlier: np.ndarray  # ground-truth outlier flags, same order


def evaluate_params(params: ModelParams, test: Split) -> EvalResult:
    """Score the test split once. Each AUROC ranks the inliers against
    one outlier population (seen, unseen) and is None when that
    population is absent."""
    prediction = predict_open(params, test.x)
    scores = anomaly_scores(prediction)
    err = error_rate_inliers(prediction, test)
    is_outlier = test.tag != TAG_INLIER
    aurocs = []
    for tag in (TAG_SEEN_OUTLIER, TAG_UNSEEN_OUTLIER):
        rows = test.tag == tag
        if rows.any():
            rows |= ~is_outlier
            aurocs.append(auroc(scores[rows], is_outlier[rows]))
        else:
            aurocs.append(None)
    return EvalResult(err_inlier=err, auroc_seen=aurocs[0], auroc_unseen=aurocs[1],
                      scores=scores, is_outlier=is_outlier)


def histogram_edges(bins: int) -> np.ndarray:
    """bins + 1 uniform edges over [0, 1]. MemoryError or ValueError when
    numpy cannot allocate them."""
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    return np.linspace(0.0, 1.0, bins + 1)


def export_histogram(scores: np.ndarray, is_outlier: np.ndarray, edges: np.ndarray, path) -> None:
    """Write per-bin inlier and outlier counts over edges to a CSV.

    Bins are half-open except the last, which includes its upper edge.
    """
    scores = np.asarray(scores, dtype=np.float64)
    is_outlier = np.asarray(is_outlier, dtype=bool)
    if scores.shape != is_outlier.shape:
        raise ConfigError("scores and outlier flags must align")
    inlier_counts, _ = np.histogram(scores[~is_outlier], bins=edges)
    outlier_counts, _ = np.histogram(scores[is_outlier], bins=edges)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_low,bin_high,inlier_count,outlier_count\n")
        for i in range(len(edges) - 1):
            fh.write(f"{repr(float(edges[i]))},{repr(float(edges[i + 1]))},{inlier_counts[i]},{outlier_counts[i]}\n")


def format_metrics_line(record, keys: tuple[str, ...] = METRICS_KEY_ORDER) -> str:
    """Render the record's keys, in order, as space-separated key=value
    pairs; None-valued AUROCs are omitted. keys are MetricsRecord fields;
    eval passes an EvalResult with its three metric keys."""
    parts = []
    for key in keys:
        value = getattr(record, key)
        if value is None:
            continue
        if _METRICS_TYPES[key] is int:
            parts.append(f"{key}={int(value)}")
        else:
            parts.append(f"{key}={repr(float(value))}")
    return " ".join(parts)


def write_metrics(path, records: list[MetricsRecord]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(format_metrics_line(record) + "\n")
