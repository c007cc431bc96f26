"""Synthetic cluster data: generation, augmentation, batching, CSV storage.

A dataset has three splits. Labeled rows carry a class index; unlabeled
and test rows carry a hidden ground-truth tag (inlier class, outlier seen
during training, or outlier held out for test time) that exists only for
evaluation. The trainer works through train_view(), which exposes labeled
vectors with labels and unlabeled vectors without their tags.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, GenerationError, ParseError

TAG_INLIER = 0
TAG_SEEN_OUTLIER = 1
TAG_UNSEEN_OUTLIER = 2

TAG_NAMES = {TAG_INLIER: "inlier", TAG_SEEN_OUTLIER: "seen_outlier", TAG_UNSEEN_OUTLIER: "unseen_outlier"}
TAG_CODES = {name: code for code, name in TAG_NAMES.items()}

NO_LABEL = -1


@dataclass(eq=False)
class Split:
    x: np.ndarray    # [N, d] float64
    y: np.ndarray    # [N] int, class index or NO_LABEL
    tag: np.ndarray  # [N] int, TAG_* code

    def __len__(self) -> int:
        return len(self.x)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Split):
            return NotImplemented
        return (
            np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.array_equal(self.tag, other.tag)
        )


@dataclass(eq=False)
class TrainView:
    """What training is allowed to see: no tags on unlabeled data."""

    labeled_x: np.ndarray
    labeled_y: np.ndarray
    unlabeled_x: np.ndarray


@dataclass(eq=False)
class Dataset:
    labeled: Split
    unlabeled: Split
    test: Split
    k_classes: int
    d_in: int
    source: str = ""  # provenance note, excluded from equality

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.k_classes == other.k_classes
            and self.d_in == other.d_in
            and self.labeled == other.labeled
            and self.unlabeled == other.unlabeled
            and self.test == other.test
        )

    def train_view(self) -> TrainView:
        return TrainView(self.labeled.x, self.labeled.y, self.unlabeled.x)

    def validate(self) -> None:
        k, d = self.k_classes, self.d_in
        for name, split in (("labeled", self.labeled), ("unlabeled", self.unlabeled), ("test", self.test)):
            if split.x.ndim != 2 or split.x.shape[1] != d:
                raise ConfigError(f"{name} split has shape {split.x.shape}, expected [N, {d}]")
            if len(split.y) != len(split.x) or len(split.tag) != len(split.x):
                raise ConfigError(f"{name} split has inconsistent column lengths")
            inlier = split.tag == TAG_INLIER
            if np.any((split.y[inlier] < 0) | (split.y[inlier] >= k)):
                raise ConfigError(f"{name} split has an inlier label outside [0, {k})")
            if np.any(split.y[~inlier] != NO_LABEL):
                raise ConfigError(f"{name} split has an outlier row with a class label")
        if np.any(self.labeled.tag != TAG_INLIER):
            raise ConfigError("labeled split may contain only inliers")
        if set(np.unique(self.labeled.y)) != set(range(k)):
            raise ConfigError(f"labeled split must cover every class in [0, {k})")
        if np.any(self.unlabeled.tag == TAG_UNSEEN_OUTLIER):
            raise ConfigError("unseen outliers may appear only in the test split")


@dataclass
class AugmentConfig:
    weak_noise_sigma: float = 0.5
    strong_noise_sigma: float = 1.0
    strong_mask_prob: float = 0.25

    def validate(self) -> None:
        if self.weak_noise_sigma < 0:
            raise ConfigError(f"weak_noise_sigma must be >= 0, got {self.weak_noise_sigma}")
        if self.strong_noise_sigma < self.weak_noise_sigma:
            raise ConfigError("strong_noise_sigma must be >= weak_noise_sigma")
        if not 0.0 <= self.strong_mask_prob <= 1.0:
            raise ConfigError(f"strong_mask_prob must lie in [0, 1], got {self.strong_mask_prob}")


@dataclass
class GenConfig:
    k_classes: int = 4
    n_seen_outlier: int = 2
    n_unseen_outlier: int = 1
    d_in: int = 8
    train_per_class: int = 375      # labeled + unlabeled pool per inlier class
    labels_per_class: int = 25
    unlabeled_per_outlier: int = 300
    test_per_class: int = 100
    test_per_outlier: int = 100
    cluster_sigma: float = 0.6
    min_center_distance: float = 3.5
    center_box: float = 2.0         # centers drawn uniformly from [-box, box]^d
    max_center_retries: int = 10000

    def validate(self) -> None:
        if self.k_classes < 1:
            raise ConfigError(f"k_classes must be >= 1, got {self.k_classes}")
        if self.n_seen_outlier < 0 or self.n_unseen_outlier < 0:
            raise ConfigError("outlier cluster counts must be >= 0")
        if self.d_in < 1:
            raise ConfigError(f"d_in must be >= 1, got {self.d_in}")
        if self.labels_per_class < 1:
            raise ConfigError(f"labels_per_class must be >= 1, got {self.labels_per_class}")
        if self.labels_per_class > self.train_per_class:
            raise ConfigError(
                f"labels_per_class ({self.labels_per_class}) exceeds train_per_class ({self.train_per_class})"
            )
        if self.unlabeled_per_outlier < 0 or self.test_per_class < 0 or self.test_per_outlier < 0:
            raise ConfigError("sample counts must be >= 0")
        if self.cluster_sigma < 0:
            raise ConfigError(f"cluster_sigma must be >= 0, got {self.cluster_sigma}")
        if self.min_center_distance < 0 or self.center_box <= 0 or self.max_center_retries < 1:
            raise ConfigError("invalid cluster placement settings")


def _place_centers(cfg: GenConfig, rng: np.random.Generator) -> np.ndarray:
    n = cfg.k_classes + cfg.n_seen_outlier + cfg.n_unseen_outlier
    centers: list[np.ndarray] = []
    for _ in range(cfg.max_center_retries):
        candidate = rng.uniform(-cfg.center_box, cfg.center_box, size=cfg.d_in)
        if all(np.linalg.norm(candidate - c) >= cfg.min_center_distance for c in centers):
            centers.append(candidate)
            if len(centers) == n:
                return np.stack(centers)
    raise GenerationError(
        f"could not place {n} cluster centers at distance >= {cfg.min_center_distance} "
        f"within {cfg.max_center_retries} draws; relax the spacing or enlarge center_box"
    )


def gen_synthetic(cfg: GenConfig, seed: int) -> Dataset:
    """Draw isotropic Gaussian clusters and split them into the three roles."""
    cfg.validate()
    rng = np.random.default_rng(seed)
    centers = _place_centers(cfg, rng)

    def draw(center: np.ndarray, n: int) -> np.ndarray:
        return center + cfg.cluster_sigma * rng.standard_normal((n, cfg.d_in))

    lab_x, lab_y = [], []
    unl_x, unl_y, unl_tag = [], [], []
    tst_x, tst_y, tst_tag = [], [], []

    for j in range(cfg.k_classes):
        points = draw(centers[j], cfg.train_per_class + cfg.test_per_class)
        lab_x.append(points[: cfg.labels_per_class])
        lab_y.append(np.full(cfg.labels_per_class, j))
        n_unl = cfg.train_per_class - cfg.labels_per_class
        unl_x.append(points[cfg.labels_per_class : cfg.train_per_class])
        unl_y.append(np.full(n_unl, j))
        unl_tag.append(np.full(n_unl, TAG_INLIER))
        tst_x.append(points[cfg.train_per_class :])
        tst_y.append(np.full(cfg.test_per_class, j))
        tst_tag.append(np.full(cfg.test_per_class, TAG_INLIER))

    for s in range(cfg.n_seen_outlier):
        points = draw(centers[cfg.k_classes + s], cfg.unlabeled_per_outlier + cfg.test_per_outlier)
        unl_x.append(points[: cfg.unlabeled_per_outlier])
        unl_y.append(np.full(cfg.unlabeled_per_outlier, NO_LABEL))
        unl_tag.append(np.full(cfg.unlabeled_per_outlier, TAG_SEEN_OUTLIER))
        tst_x.append(points[cfg.unlabeled_per_outlier :])
        tst_y.append(np.full(cfg.test_per_outlier, NO_LABEL))
        tst_tag.append(np.full(cfg.test_per_outlier, TAG_SEEN_OUTLIER))

    for u in range(cfg.n_unseen_outlier):
        points = draw(centers[cfg.k_classes + cfg.n_seen_outlier + u], cfg.test_per_outlier)
        tst_x.append(points)
        tst_y.append(np.full(cfg.test_per_outlier, NO_LABEL))
        tst_tag.append(np.full(cfg.test_per_outlier, TAG_UNSEEN_OUTLIER))

    def cat(parts: list[np.ndarray], dtype) -> np.ndarray:
        if not parts:
            return np.empty((0, cfg.d_in)) if dtype is None else np.empty(0, dtype=dtype)
        return np.concatenate(parts).astype(np.float64 if dtype is None else dtype)

    ds = Dataset(
        labeled=Split(cat(lab_x, None), cat(lab_y, np.int64), np.zeros(sum(map(len, lab_y)), dtype=np.int64)),
        unlabeled=Split(cat(unl_x, None), cat(unl_y, np.int64), cat(unl_tag, np.int64)),
        test=Split(cat(tst_x, None), cat(tst_y, np.int64), cat(tst_tag, np.int64)),
        k_classes=cfg.k_classes,
        d_in=cfg.d_in,
        source=f"synthetic(seed={seed})",
    )
    ds.validate()
    return ds


def augment_weak(x: np.ndarray, aug: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian jitter at the weak noise scale."""
    x = np.asarray(x, dtype=np.float64)
    if aug.weak_noise_sigma == 0.0:
        return x.copy()
    return x + aug.weak_noise_sigma * rng.standard_normal(x.shape)


def augment_strong(x: np.ndarray, aug: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """Gaussian jitter at the strong scale, then random coordinate zeroing."""
    x = np.asarray(x, dtype=np.float64)
    out = x.copy() if aug.strong_noise_sigma == 0.0 else x + aug.strong_noise_sigma * rng.standard_normal(x.shape)
    if aug.strong_mask_prob > 0.0:
        keep = rng.random(x.shape) >= aug.strong_mask_prob
        out = out * keep
    return out


def sample_batches(
    view: TrainView,
    b: int,
    mu: int,
    pseudo_inliers: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Uniform-with-replacement draw of one training step's batches.

    Returns (labeled x, labeled y, unlabeled batch of mu*b, pseudo-inlier
    batch of mu*b). The pseudo-inlier batch indexes into unlabeled data
    and comes back empty when the candidate set is empty.
    """
    if b < 1 or mu < 1:
        raise ConfigError(f"need b >= 1 and mu >= 1, got {b}, {mu}")
    n_lab = len(view.labeled_x)
    n_unl = len(view.unlabeled_x)
    if n_lab == 0:
        raise ConfigError("cannot sample batches from an empty labeled split")
    if n_unl == 0:
        raise ConfigError("cannot sample batches from an empty unlabeled split")
    lab_idx = rng.integers(0, n_lab, size=b)
    unl_idx = rng.integers(0, n_unl, size=mu * b)
    pseudo_inliers = np.asarray(pseudo_inliers, dtype=np.int64)
    if len(pseudo_inliers) > 0:
        pick = pseudo_inliers[rng.integers(0, len(pseudo_inliers), size=mu * b)]
        i_batch = view.unlabeled_x[pick]
    else:
        i_batch = np.empty((0, view.unlabeled_x.shape[1]))
    return view.labeled_x[lab_idx], view.labeled_y[lab_idx], view.unlabeled_x[unl_idx], i_batch


ROLE_NAMES = ("labeled", "unlabeled", "test")


def save_csv(ds: Dataset, path) -> None:
    """Write rows as role,label,tag,f0..f{d-1}; floats use repr so the
    text round-trips to the identical float64 values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["role", "label", "tag"] + [f"f{i}" for i in range(ds.d_in)])
        for role, split in zip(ROLE_NAMES, (ds.labeled, ds.unlabeled, ds.test)):
            for i in range(len(split)):
                row = [role, str(int(split.y[i])), TAG_NAMES[int(split.tag[i])]]
                row.extend(repr(float(v)) for v in split.x[i])
                writer.writerow(row)


def _first_nonfinite(path) -> str:
    """Where the first nan or inf feature sits in a CSV that parsed."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for lineno, row in enumerate(reader, start=2):
            for name, value in zip(header[3:], row[3:]):
                if not np.isfinite(float(value)):
                    return f"{path}:{lineno}: feature {name} is {value!r}; features must be finite"
    return f"{path}: non-finite feature"


def load_csv(path) -> Dataset:
    rows: dict[str, list[tuple[int, int, list[float]]]] = {r: [] for r in ROLE_NAMES}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:3] != ["role", "label", "tag"]:
            raise ParseError(f"{path}: missing or malformed header")
        d_in = len(header) - 3
        if d_in < 1 or header[3:] != [f"f{i}" for i in range(d_in)]:
            raise ParseError(f"{path}: feature columns must be f0..f{{d-1}}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3 + d_in:
                raise ParseError(f"{path}:{lineno}: expected {3 + d_in} fields, got {len(row)}")
            role, label_s, tag_s = row[0], row[1], row[2]
            if role not in rows:
                raise ParseError(f"{path}:{lineno}: unknown role {role!r}")
            if tag_s not in TAG_CODES:
                raise ParseError(f"{path}:{lineno}: unknown tag {tag_s!r}")
            try:
                label = int(label_s)
                feats = [float(v) for v in row[3:]]
            except ValueError as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
            rows[role].append((label, TAG_CODES[tag_s], feats))

    def build(role: str) -> Split:
        entries = rows[role]
        if not entries:
            return Split(np.empty((0, d_in)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        return Split(
            x=np.array([e[2] for e in entries], dtype=np.float64),
            y=np.array([e[0] for e in entries], dtype=np.int64),
            tag=np.array([e[1] for e in entries], dtype=np.int64),
        )

    labeled, unlabeled, test = build("labeled"), build("unlabeled"), build("test")
    if not all(np.isfinite(split.x).all() for split in (labeled, unlabeled, test)):
        raise ParseError(_first_nonfinite(path))
    if len(labeled) == 0:
        raise ParseError(f"{path}: no labeled rows")
    k_classes = int(labeled.y.max()) + 1
    ds = Dataset(
        labeled=labeled,
        unlabeled=unlabeled,
        test=test,
        k_classes=k_classes,
        d_in=d_in,
        source=f"csv:{path}",
    )
    try:
        ds.validate()
    except ConfigError as e:
        raise ParseError(f"{path}: {e}") from e
    return ds
