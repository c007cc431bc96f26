"""Open-set prediction, anomaly scores, metrics and their text I/O.

predict_open is the package's one no-grad forward: pseudo-inlier
selection, the anomaly scores and every evaluation metric read its
result. A sample's verdict is its closed-set label unless the predicted
class's inlier probability falls strictly below 0.5, and its anomaly
score is the outlier probability 1 - p(inlier | predicted class).
AUROC is the Mann-Whitney rank statistic with half credit for ties,
which equals the trapezoidal area under the ROC curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Split, TAG_INLIER, TAG_SEEN_OUTLIER, TAG_UNSEEN_OUTLIER
from .errors import ConfigError, MetricError, NumericError
from .model import ModelParams, classify_closed, feature_extract, ova_probs

METRICS_KEY_ORDER = (
    "epoch", "l_cls", "l_ova", "l_em", "l_oc", "l_fm",
    "err_inlier", "auroc_seen", "auroc_unseen", "k_size",
)

# Verdict value for samples rejected as outliers; inliers carry their class index.
OUTLIER = -1


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


def predict_open(params: ModelParams, x: np.ndarray) -> OpenSetPrediction:
    """Closed-set label plus the outlier verdict, on the input as given.

    Raises NumericError naming the first row whose features or head
    outputs are not finite, as happens when a huge input or diverged
    weights overflow the extractor.
    """
    with ad.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        features = feature_extract(params, x)
        closed = classify_closed(params, features).data
        ova = ova_probs(params, features).data
    finite = (np.isfinite(features.data).all(axis=1) & np.isfinite(closed).all(axis=1)
              & np.isfinite(ova).all(axis=(1, 2)))
    if not finite.all():
        raise NumericError(f"non-finite scores at row {int(np.argmin(finite))}")
    label = closed.argmax(axis=1)
    inlier_prob = ova[np.arange(len(label)), label, 0]
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
    # Average ranks (1-based) with ties sharing their group mean.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg_rank = ends - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    u = ranks[is_outlier].sum() - n_pos * (n_pos + 1) / 2.0
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


def export_histogram(scores: np.ndarray, is_outlier: np.ndarray, bins: int, path) -> None:
    """Write per-bin inlier and outlier counts over [0, 1] to a CSV.

    Bins are uniform and half-open except the last, which includes 1.0.
    """
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    scores = np.asarray(scores, dtype=np.float64)
    is_outlier = np.asarray(is_outlier, dtype=bool)
    if scores.shape != is_outlier.shape:
        raise ConfigError("scores and outlier flags must align")
    edges = np.linspace(0.0, 1.0, bins + 1)
    inlier_counts, _ = np.histogram(scores[~is_outlier], bins=edges)
    outlier_counts, _ = np.histogram(scores[is_outlier], bins=edges)
    with open(path, "w") as fh:
        fh.write("bin_low,bin_high,inlier_count,outlier_count\n")
        for i in range(bins):
            fh.write(f"{repr(float(edges[i]))},{repr(float(edges[i + 1]))},{inlier_counts[i]},{outlier_counts[i]}\n")


def format_metrics_line(record: MetricsRecord) -> str:
    """Render one record as space-separated key=value pairs in a fixed
    key order; None-valued AUROCs are omitted."""
    parts = []
    for key in METRICS_KEY_ORDER:
        value = getattr(record, key)
        if value is None:
            continue
        if key in ("epoch", "k_size"):
            parts.append(f"{key}={int(value)}")
        else:
            parts.append(f"{key}={repr(float(value))}")
    return " ".join(parts)


def parse_metrics_line(line: str) -> MetricsRecord:
    fields: dict[str, str] = {}
    for token in line.split():
        if "=" not in token:
            raise ConfigError(f"malformed metrics token {token!r}")
        key, value = token.split("=", 1)
        fields[key] = value
    try:
        return MetricsRecord(
            epoch=int(fields["epoch"]),
            l_cls=float(fields["l_cls"]),
            l_ova=float(fields["l_ova"]),
            l_em=float(fields["l_em"]),
            l_oc=float(fields["l_oc"]),
            l_fm=float(fields["l_fm"]),
            err_inlier=float(fields["err_inlier"]),
            auroc_seen=float(fields["auroc_seen"]) if "auroc_seen" in fields else None,
            auroc_unseen=float(fields["auroc_unseen"]) if "auroc_unseen" in fields else None,
            k_size=int(fields["k_size"]),
        )
    except KeyError as e:
        raise ConfigError(f"metrics line is missing key {e}") from e


def write_metrics(path, records: list[MetricsRecord]) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(format_metrics_line(record) + "\n")


def read_metrics(path) -> list[MetricsRecord]:
    with open(path) as fh:
        return [parse_metrics_line(line) for line in fh if line.strip()]
