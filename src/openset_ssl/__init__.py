"""Open-set semi-supervised learning on synthetic cluster data.

A compact research engine: a hand-rolled reverse-mode autodiff core, an
MLP with a closed-set head and one-vs-all outlier heads, the combined
training objective (supervised terms, entropy minimization, soft
consistency, pseudo-label self-training), plus data generation,
evaluation, and a CLI.
"""

from .autodiff import Tensor, no_grad
from .data import AugmentConfig, Dataset, GenConfig, Split, augment_strong, augment_weak, gen_synthetic, load_csv, save_csv
from .errors import (
    ConfigError,
    DimensionError,
    GenerationError,
    MetricError,
    NumericError,
    OpenSetSSLError,
    ParseError,
)
from .evaluation import (
    OUTLIER,
    EvalResult,
    MetricsRecord,
    OpenSetPrediction,
    anomaly_scores,
    auroc,
    error_rate_inliers,
    evaluate_params,
    export_histogram,
    predict_open,
    write_metrics,
)
from .losses import LossBreakdown, loss_all, loss_cls, loss_em, loss_fixmatch, loss_ova, loss_socr
from .model import (
    ModelParams,
    classify_closed,
    feature_extract,
    init_params,
    load_checkpoint,
    ova_probs,
    save_checkpoint,
)
from .trainer import TrainConfig, TrainHistory, select_pseudo_inliers, sgd_step, train

__version__ = "0.1.0"
