"""Synthetic cluster data: generation, augmentation, batching, CSV storage.

A dataset has three splits. Labeled rows carry a class index; unlabeled
and test rows carry a hidden ground-truth tag (inlier class, outlier seen
during training, or outlier held out for test time) that exists only for
evaluation. The trainer works through train_view(), which exposes labeled
vectors with labels and unlabeled vectors without their tags.
gen_synthetic draws all three splits from one table with a row per cluster.

The CSV is written one f-string per row (the bytes csv.writer gives), on
two cores where os.fork exists: a forked child formats the second half of
the rows into an anonymous temp file that is appended to the first half,
so the output has the same bytes as a one-process write and the child's
memory is not in this process's ru_maxrss. It is read with one
np.loadtxt call; a file that call does not take goes through a csv.reader
row walk, which decides and names path:line for a bad row, the physical
line the row starts on (a quoted field may span lines).
The bulk reader checks the body a chunk of lines at a time: one scan of
the chunk's text for quotes and controls, one comma count for all its
lines, and, for a chunk whose lines share one role,label,tag head (rows
come in such runs), one parse of that head.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import tempfile
import warnings
from array import array
from dataclasses import dataclass, field

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


@dataclass
class Dataset:
    labeled: Split
    unlabeled: Split
    test: Split
    k_classes: int
    d_in: int

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
        if len(np.unique(self.labeled.y)) != k:  # every labeled label lies in [0, k) by now
            raise ConfigError(f"labeled split must cover every class in [0, {k})")
        if np.any(self.unlabeled.tag == TAG_UNSEEN_OUTLIER):
            raise ConfigError("unseen outliers may appear only in the test split")


@dataclass
class AugmentConfig:
    weak_noise_sigma: float = 0.5
    strong_noise_sigma: float = 1.0
    strong_mask_prob: float = 0.25

    def validate(self) -> None:
        if not self.weak_noise_sigma >= 0:  # range checks are written so that nan fails them
            raise ConfigError(f"weak_noise_sigma must be >= 0, got {self.weak_noise_sigma}")
        if not self.strong_noise_sigma >= self.weak_noise_sigma:
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
        for name, low in (("k_classes", 1), ("n_seen_outlier", 0), ("n_unseen_outlier", 0), ("d_in", 1),
                          ("labels_per_class", 1), ("unlabeled_per_outlier", 0), ("test_per_class", 0),
                          ("test_per_outlier", 0), ("cluster_sigma", 0), ("min_center_distance", 0),
                          ("max_center_retries", 1)):
            value = getattr(self, name)
            if not value >= low:  # written so that nan fails it
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        if not self.center_box > 0:
            raise ConfigError(f"center_box must be > 0, got {self.center_box}")
        if self.labels_per_class > self.train_per_class:
            raise ConfigError(
                f"labels_per_class ({self.labels_per_class}) exceeds train_per_class ({self.train_per_class})"
            )


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
        f"could not place {n} cluster centers with min_center_distance {cfg.min_center_distance}, "
        f"max_center_retries {cfg.max_center_retries} and center_box {cfg.center_box}; relax one of them"
    )


def gen_synthetic(cfg: GenConfig, seed: int) -> Dataset:
    """Draw isotropic Gaussian clusters and split them into the three roles.

    One table row per cluster, in draw order, gives its label, its tag and
    how many of its points go to the labeled, unlabeled and test splits.
    GenerationError when the center range overflows or a point is not finite.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    blocks = []  # per cluster: one (x, y, tag) block per split
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            centers = _place_centers(cfg, rng)
        except OverflowError as e:
            raise GenerationError(f"center_box {cfg.center_box!r} is too large: {e}") from e
        # Built once the centers are placed, so at most max_center_retries rows.
        n_lab, n_unl = cfg.labels_per_class, cfg.train_per_class - cfg.labels_per_class
        clusters = (
            [(j, TAG_INLIER, n_lab, n_unl, cfg.test_per_class) for j in range(cfg.k_classes)]
            + [(NO_LABEL, TAG_SEEN_OUTLIER, 0, cfg.unlabeled_per_outlier, cfg.test_per_outlier)] * cfg.n_seen_outlier
            + [(NO_LABEL, TAG_UNSEEN_OUTLIER, 0, 0, cfg.test_per_outlier)] * cfg.n_unseen_outlier
        )
        for center, (label, tag, *counts) in zip(centers, clusters):
            points = center + cfg.cluster_sigma * rng.standard_normal((sum(counts), cfg.d_in))
            if not np.isfinite(points).all():
                raise GenerationError(f"cluster_sigma {cfg.cluster_sigma!r} drew a non-finite point")
            blocks.append([(x, np.full(len(x), label), np.full(len(x), tag))
                           for x in np.split(points, np.cumsum(counts)[:-1])])
    ds = Dataset(*(Split(*map(np.concatenate, zip(*split))) for split in zip(*blocks)),
                 k_classes=cfg.k_classes, d_in=cfg.d_in)
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
CHUNK_CHARS = 1 << 13  # readlines() hint; 64 KB chunks were no faster and held more memory


def _write_rows(fh, splits, start: int, stop: int) -> None:
    """Write body rows start..stop-1, counted across the splits in
    ROLE_NAMES order, one f-string per row."""
    for role, split in zip(ROLE_NAMES, splits):
        lo, hi = max(start, 0), min(stop, len(split))
        if lo < hi:
            fh.writelines(
                f"{role},{y},{TAG_NAMES[t]},{','.join(map(repr, row.tolist()))}\r\n"
                for y, t, row in zip(split.y[lo:hi].tolist(), split.tag[lo:hi].tolist(),
                                     np.asarray(split.x, dtype=np.float64)[lo:hi])
            )
        start, stop = start - len(split), stop - len(split)


def _write_halves(fh, splits, n: int, path) -> None:
    """Write body rows 0..n-1 into fh on two cores: a forked child formats
    the second half into an anonymous temp file while this process formats
    the first half into fh; then the child is reaped and its file appended
    in buffer-sized copies."""
    half = n // 2
    with tempfile.TemporaryFile("w+", newline="", encoding=fh.encoding) as tmp:
        pid = os.fork()
        if pid == 0:
            # the child leaves only through os._exit: it flushes none of the
            # stdio buffers it inherited and runs none of the caller's finally
            # or atexit code. It only formats text, so it needs nothing that
            # a BLAS thread of this process could hold at the fork.
            code = 1
            try:
                _write_rows(tmp, splits, half, n)
                tmp.flush()
                code = 0
            finally:
                os._exit(code)
        try:
            _write_rows(fh, splits, 0, half)
        finally:
            status = os.waitpid(pid, 0)[1]
        if status != 0:
            raise OSError(f"{path}: the process writing rows {half + 1}..{n} failed "
                          f"(exit status {os.waitstatus_to_exitcode(status)})")
        fh.flush()
        tmp.seek(0)
        shutil.copyfileobj(tmp.buffer, fh.buffer)


def save_csv(ds: Dataset, path) -> None:
    """Write rows as role,label,tag,f0..f{d-1} with CRLF line ends, the
    bytes csv.writer gives (no field ever needs quoting); floats use repr
    so the text round-trips to the identical float64 values.

    The body is written on two cores where os.fork exists: a forked child
    formats the second half of the rows (counted across the splits) into
    an anonymous temp file, which is appended to the first half, so the
    file has the same bytes as a one-process write and the child's memory
    is not in this process's ru_maxrss. If writing fails, a regular output
    file is removed: the first half ends on a row boundary and would load
    as a shorter dataset."""
    splits = (ds.labeled, ds.unlabeled, ds.test)
    n = sum(map(len, splits))
    with open(path, "w", newline="") as fh:
        try:
            fh.write(",".join(["role", "label", "tag"] + [f"f{i}" for i in range(ds.d_in)]) + "\r\n")
            if hasattr(os, "fork"):
                _write_halves(fh, splits, n, path)
            else:
                _write_rows(fh, splits, 0, n)
        except BaseException:
            if os.path.isfile(path):
                os.unlink(path)
            raise


def _numbered_rows(fh, path, first: int):
    """csv.reader rows of fh, each numbered by the line it starts on, fh's next line being
    line `first`. A csv.Error (an unclosed quote that runs past the field size limit)
    becomes a ParseError at the first line of the row it broke."""
    reader = csv.reader(fh)
    lineno = first
    try:
        for row in reader:
            yield lineno, row
            lineno = first + reader.line_num
    except csv.Error as e:
        raise ParseError(f"{path}:{lineno}: {e}") from e


def _read_header(fh, path) -> tuple[list[str], int]:
    """The header row and the feature count d it declares."""
    _, header = next(_numbered_rows(fh, path, 1), (1, None))
    if header is None or header[:3] != ["role", "label", "tag"]:
        raise ParseError(f"{path}: missing or malformed header")
    d_in = len(header) - 3
    if d_in < 1 or header[3:] != [f"f{i}" for i in range(d_in)]:
        raise ParseError(f"{path}: feature columns must be f0..f{{d-1}}")
    return header, d_in


def _bulk_splits(fh, d_in: int, max_rows: int | None) -> list[Split] | None:
    """Parse the rows after the header with one np.loadtxt call, fed a
    chunk of lines (CHUNK_CHARS) at a time. None when a line is not a
    plain row (a quote or a 0x1c-0x1f control, a comma count other than
    2 + d, unknown role or tag, a label int() rejects), loadtxt declines
    it or a feature is not finite: the row walk then decides.

    max_rows, a bound on the rows that load_csv takes from the file's
    size, makes loadtxt allocate its array once; grown by reallocation,
    the array would go where heap layout let it, and peak RSS with it.
    numpy reserves the spare rows but never touches them.

    A chunk's total comma count stands in for each line's: usecols makes
    loadtxt refuse a row with too few fields, so with the total right no
    row has too many."""
    roles, labels, tags = array("q"), array("q"), array("q")
    role_codes = {name: code for code, name in enumerate(ROLE_NAMES)}

    def lines():
        while chunk := fh.readlines(CHUNK_CHARS):
            text = "".join(chunk)
            # a quote starts csv quoting; loadtxt strips 0x1c-0x1f around a float, float() does not
            if (text.count(",") != (2 + d_in) * len(chunk) or '"' in text
                    or "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text):
                raise ValueError("not a plain row")
            role, label, tag, _ = chunk[0].split(",", 3)
            # rows come in runs of one head, as save_csv writes them; a "\n" ends a line,
            # so this counts the later lines that start with the first line's head
            if text.count(f"\n{role},{label},{tag},") == len(chunk) - 1:
                roles.extend(array("q", (role_codes[role],)) * len(chunk))
                tags.extend(array("q", (TAG_CODES[tag],)) * len(chunk))
                labels.extend(array("q", (int(label),)) * len(chunk))
            else:
                for line in chunk:
                    role, label, tag, _ = line.split(",", 3)
                    roles.append(role_codes[role])
                    tags.append(TAG_CODES[tag])
                    labels.append(int(label))
            del text  # before loadtxt parses the chunk: one chunk's text is alive at a time
            yield from chunk

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns on an empty body
            x = np.loadtxt(lines(), delimiter=",", usecols=range(3, 3 + d_in), dtype=np.float64,
                           comments=None, ndmin=2, max_rows=max_rows)
    except (ValueError, KeyError, OverflowError, UserWarning):  # UnicodeDecodeError is a ValueError
        return None
    if len(x) != len(roles) or not np.isfinite(x).all():
        return None
    role = np.frombuffer(roles, dtype=np.int64)
    y, tag = np.frombuffer(labels, dtype=np.int64), np.frombuffer(tags, dtype=np.int64)
    return [Split(x[role == code], y[role == code], tag[role == code]) for code in range(len(ROLE_NAMES))]


def _walk_rows(path) -> tuple[int, list[Split]]:
    """Walk the file with csv.reader row by row: raises the first bad
    line's path:line message, then the first non-finite feature's."""
    rows: dict[str, list[tuple[int, int, list[float]]]] = {r: [] for r in ROLE_NAMES}
    nonfinite = None
    with open(path, newline="") as fh:
        header, d_in = _read_header(fh, path)
        for lineno, row in _numbered_rows(fh, path, 2):
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
            if not -2**63 <= label < 2**63:
                raise ParseError(f"{path}:{lineno}: label {label_s!r} is outside int64")
            if nonfinite is None and not all(map(math.isfinite, feats)):
                name, value = next((n, v) for n, v, f in zip(header[3:], row[3:], feats) if not math.isfinite(f))
                nonfinite = f"{path}:{lineno}: feature {name} is {value!r}; features must be finite"
            rows[role].append((label, TAG_CODES[tag_s], feats))

    splits = [Split(np.array([e[2] for e in rows[r]], dtype=np.float64).reshape(-1, d_in),
                    np.array([e[0] for e in rows[r]], dtype=np.int64),
                    np.array([e[1] for e in rows[r]], dtype=np.int64)) for r in ROLE_NAMES]
    if nonfinite is not None:
        raise ParseError(nonfinite)
    return d_in, splits


def load_csv(path) -> Dataset:
    """Read a dataset CSV: the bulk parse, else the csv.reader row walk."""
    try:
        with open(path, newline="") as fh:
            _, d_in = _read_header(fh, path)
            # a row the bulk path takes has 3 + d nonempty fields (loadtxt rejects an empty float, int()
            # an empty label; role and tag are looked up), 2 + d commas and, unless last, a line end:
            # n rows take at least n(2d + 6) - 1 bytes. A pipe is read once, without a bound.
            max_rows = os.path.getsize(path) // (2 * d_in + 6) + 1 if os.path.isfile(path) else None
            splits = _bulk_splits(fh, d_in, max_rows)
        if splits is None:
            d_in, splits = _walk_rows(path)
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from e
    labeled = splits[0]
    if len(labeled) == 0:
        raise ParseError(f"{path}: no labeled rows")
    ds = Dataset(*splits, k_classes=int(labeled.y.max()) + 1, d_in=d_in)
    try:
        ds.validate()
    except ConfigError as e:
        raise ParseError(f"{path}: {e}") from e
    return ds
