"""Training loop: SGD with Nesterov momentum over the combined objective.

Each epoch runs i_max steps. A step samples a labeled batch and an
unlabeled batch, builds the objective, backpropagates, and applies one
optimizer update to the flat parameter vector (ModelParams.flat). From
epoch e_fix onward the epoch ends by re-selecting the pseudo-inlier
candidate set (full replacement); the pseudo-label term starts
consuming that set on the following epoch.

Everything is driven by one seeded generator in a fixed draw order:
parameter init, then per-step batch indices and augmentation noise.
Runs with equal configs and seeds are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .data import AugmentConfig, Dataset, sample_batches
from .errors import ConfigError, NumericError
from .evaluation import OUTLIER, MetricsRecord, evaluate_params, predict_open
from .losses import loss_all
from .model import ModelParams, init_params


@dataclass
class TrainConfig:
    b: int = 64
    mu: int = 2
    lam_em: float = 0.1
    lam_oc: float = 0.5
    lam_fm: float = 1.0
    tau: float = 0.95
    e_fix: int = 10
    e_max: int = 30
    i_max: int = 100
    lr: float = 0.03
    momentum: float = 0.9
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    eval_every: int = 5
    socr_head: str = "ova"  # "closed" compares closed-set probabilities instead

    def validate(self) -> None:
        if self.b < 1 or self.mu < 1 or self.i_max < 1 or self.eval_every < 1:
            raise ConfigError("b, mu, i_max and eval_every must all be >= 1")
        if not 1 <= self.e_fix <= self.e_max:
            raise ConfigError(f"need 1 <= e_fix <= e_max, got e_fix={self.e_fix}, e_max={self.e_max}")
        if not self.lr > 0.0:  # each range check is written so that nan fails it
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        for name in ("seed", "momentum", "lam_em", "lam_oc", "lam_fm"):
            if not getattr(self, name) >= 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 < self.tau <= 1.0:
            raise ConfigError(f"tau must lie in (0, 1], got {self.tau}")
        if any(h < 1 for h in self.hidden):
            raise ConfigError(f"hidden widths must be positive, got {self.hidden}")
        if self.socr_head not in ("ova", "closed"):
            raise ConfigError(f"socr_head must be 'ova' or 'closed', got {self.socr_head!r}")
        self.augment.validate()


@dataclass
class TrainHistory:
    records: list[MetricsRecord]
    k_sizes: list[int]  # pseudo-inlier set size after each epoch (0 before e_fix)
    final_params: ModelParams


def select_pseudo_inliers(params: ModelParams, unlabeled_x: np.ndarray) -> np.ndarray:
    """Indices of unlabeled samples the detector currently accepts as
    inliers (predicted class's inlier probability >= 0.5), on clean inputs."""
    prediction = predict_open(params, unlabeled_x)
    return np.flatnonzero(prediction.verdict != OUTLIER)


def gather_grads(tensors: Sequence[Tensor], out: np.ndarray) -> np.ndarray:
    """Move the tensors' gradients, in order, into the flat vector out, freeing them."""
    if any(t.grad is None for t in tensors):
        raise NumericError("missing gradient; step aborted")
    np.concatenate([t.grad.ravel() for t in tensors], out=out)
    for t in tensors:
        t.zero_grad()
    return out


def sgd_step(flat: np.ndarray, grad: np.ndarray, velocity: np.ndarray, lr: float, momentum: float) -> None:
    """Nesterov update in place: v <- m*v + g; p <- p - lr*(g + m*v). A
    non-finite gradient is rejected before any state changes."""
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient; step aborted")
    velocity *= momentum
    velocity += grad
    step = np.multiply(velocity, momentum)  # the one scratch vector
    step += grad
    step *= lr
    flat -= step


_EMPTY_INDEX = np.empty(0, dtype=np.int64)


def train(dataset: Dataset, config: TrainConfig, initial_pseudo_inliers: np.ndarray | None = None) -> TrainHistory:
    config.validate()
    view = dataset.train_view()
    rng = np.random.default_rng(config.seed)
    params = init_params(dataset.d_in, config.hidden, dataset.k_classes, rng)
    velocity, grad = np.zeros_like(params.flat), np.empty_like(params.flat)
    tensors = params.parameters()
    pseudo = _EMPTY_INDEX if initial_pseudo_inliers is None else np.asarray(initial_pseudo_inliers, dtype=np.int64)

    records: list[MetricsRecord] = []
    k_sizes: list[int] = []
    for epoch in range(1, config.e_max + 1):
        sums = np.zeros(5)  # l_cls, l_ova, l_em, l_oc, l_fm
        consume_pseudo = epoch > config.e_fix
        for it in range(1, config.i_max + 1):
            xb, yb, ub, ib = sample_batches(
                view, config.b, config.mu, pseudo if consume_pseudo else _EMPTY_INDEX, rng
            )
            total, bd = loss_all(params, xb, yb, ub, ib, config, rng, epoch)
            if not np.isfinite(bd.l_all):
                raise NumericError(f"non-finite loss at epoch {epoch}, iteration {it}")
            total.backward()
            try:
                sgd_step(params.flat, gather_grads(tensors, grad), velocity, config.lr, config.momentum)
            except NumericError as e:
                raise NumericError(f"{e} (epoch {epoch}, iteration {it})") from e
            sums += (bd.l_cls, bd.l_ova, bd.l_em, bd.l_oc, bd.l_fm)

        if epoch >= config.e_fix:
            pseudo = select_pseudo_inliers(params, view.unlabeled_x)
            k_sizes.append(len(pseudo))
        else:
            k_sizes.append(0)

        if epoch % config.eval_every == 0 or epoch == config.e_max:
            result = evaluate_params(params, dataset.test)
            means = sums / config.i_max
            records.append(
                MetricsRecord(
                    epoch=epoch,
                    l_cls=means[0],
                    l_ova=means[1],
                    l_em=means[2],
                    l_oc=means[3],
                    l_fm=means[4],
                    err_inlier=result.err_inlier,
                    auroc_seen=result.auroc_seen,
                    auroc_unseen=result.auroc_unseen,
                    k_size=k_sizes[-1],
                )
            )
    return TrainHistory(records=records, k_sizes=k_sizes, final_params=params)
