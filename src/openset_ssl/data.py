"""Synthetic cluster data: generation, augmentation, batching, CSV storage.

A dataset has three splits. Labeled rows carry a class index; unlabeled
and test rows carry a hidden ground-truth tag (inlier class, outlier seen
during training, or outlier held out for test time) that exists only for
evaluation. The trainer works through train_view(), which exposes labeled
vectors with labels and unlabeled vectors without their tags.
gen_synthetic draws all three splits from one table with a row per cluster.

The CSV is written one f-string per row (the bytes csv.writer gives) and
read with np.loadtxt, each in two parts through _two_processes: a forked
child takes the second half of the rows (writing) or of a regular file's
body bytes (reading) and hands it back through an anonymous temp file,
so its memory is not in this process's ru_maxrss; without os.fork both
parts run here, with the same bytes and arrays. Any other input (a pipe,
a one-row body, a part the bulk reader declines) goes to a csv.reader
walk of the whole file, opened once, which decides and names path:line
for a bad row, the physical line it starts on (a quoted field may span
lines).
The bulk reader checks the body a chunk of lines at a time: one scan of
the chunk's text for quotes and controls, one comma count for all its
lines, and, for a chunk whose lines share one role,label,tag head (rows
come in such runs), one parse of that head.
"""

from __future__ import annotations

import csv
import io
import math
import os
import shutil
import tempfile
import warnings
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GenerationError, ParseError, check_at_least

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
        check_at_least(self, (("k_classes", 1), ("n_seen_outlier", 0), ("n_unseen_outlier", 0), ("d_in", 1),
                              ("labels_per_class", 1), ("unlabeled_per_outlier", 0), ("test_per_class", 0),
                              ("test_per_outlier", 0), ("cluster_sigma", 0), ("min_center_distance", 0),
                              ("max_center_retries", 1)))
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


def _draw_splits(cfg: GenConfig, rng: np.random.Generator) -> list[Split]:
    """The labeled, unlabeled and test splits, each allocated once; every
    cluster's draw is written straight into them, so the splits and one
    cluster are held at a time."""
    centers = _place_centers(cfg, rng)
    # Built once the centers are placed, so at most max_center_retries rows.
    n_lab, n_unl = cfg.labels_per_class, cfg.train_per_class - cfg.labels_per_class
    clusters = (
        [(j, TAG_INLIER, n_lab, n_unl, cfg.test_per_class) for j in range(cfg.k_classes)]
        + [(NO_LABEL, TAG_SEEN_OUTLIER, 0, cfg.unlabeled_per_outlier, cfg.test_per_outlier)] * cfg.n_seen_outlier
        + [(NO_LABEL, TAG_UNSEEN_OUTLIER, 0, 0, cfg.test_per_outlier)] * cfg.n_unseen_outlier
    )
    splits = [Split(np.empty((n, cfg.d_in)), np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64))
              for n in map(sum, zip(*(counts for _, _, *counts in clusters)))]
    filled = [0, 0, 0]  # rows written so far into each split
    for center, (label, tag, *counts) in zip(centers, clusters):
        points = rng.standard_normal((sum(counts), cfg.d_in))
        points *= cfg.cluster_sigma  # center + sigma * draw, bit for bit
        points += center
        # min and max pass NaN on, so both are finite exactly when every point is
        if points.size and not np.isfinite([points.min(), points.max()]).all():
            raise GenerationError(f"cluster_sigma {cfg.cluster_sigma!r} drew a non-finite point")
        start = 0
        for i, (split, n) in enumerate(zip(splits, counts)):
            rows = slice(filled[i], filled[i] + n)
            split.x[rows] = points[start:start + n]
            split.y[rows], split.tag[rows] = label, tag
            filled[i] += n
            start += n
        del points  # before the next draw allocates its own
    return splits


def gen_synthetic(cfg: GenConfig, seed: int) -> Dataset:
    """Draw isotropic Gaussian clusters and split them into the three roles.

    One table row per cluster, in draw order, gives its label, its tag and
    how many of its points go to the labeled, unlabeled and test splits.
    GenerationError when the center range overflows, a point is not finite
    or a center or the splits are too large to allocate.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            splits = _draw_splits(cfg, rng)
    except OverflowError as e:  # from the uniform draw of the centers
        raise GenerationError(f"center_box {cfg.center_box!r} is too large: {e}") from e
    except (MemoryError, ValueError) as e:  # numpy's refusal of an array too large for memory or for its shape
        raise GenerationError(f"train_per_class, unlabeled_per_outlier, test_per_class, test_per_outlier and d_in "
                              f"ask for clusters too large to allocate: {e}") from e
    ds = Dataset(*splits, k_classes=cfg.k_classes, d_in=cfg.d_in)
    ds.validate()
    return ds


def augment(x: np.ndarray, sigma: float, mask_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Gaussian jitter at scale sigma, then each coordinate zeroed with
    probability mask_prob. A weak view has mask_prob 0 and draws no mask."""
    x = np.asarray(x, dtype=np.float64)
    out = x.copy() if sigma == 0.0 else x + sigma * rng.standard_normal(x.shape)
    if mask_prob > 0.0:
        out = out * (rng.random(x.shape) >= mask_prob)
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
    and comes back empty when the candidate set is empty. ConfigError
    naming b and mu when numpy refuses to allocate the batches.
    """
    n_lab = len(view.labeled_x)
    n_unl = len(view.unlabeled_x)
    if n_lab == 0:
        raise ConfigError("cannot sample batches from an empty labeled split")
    if n_unl == 0:
        raise ConfigError("cannot sample batches from an empty unlabeled split")
    pseudo_inliers = np.asarray(pseudo_inliers, dtype=np.int64)
    try:
        lab_idx = rng.integers(0, n_lab, size=b)
        unl_idx = rng.integers(0, n_unl, size=mu * b)
        if len(pseudo_inliers) > 0:
            pick = pseudo_inliers[rng.integers(0, len(pseudo_inliers), size=mu * b)]
            i_batch = view.unlabeled_x[pick]
        else:
            i_batch = np.empty((0, view.unlabeled_x.shape[1]))
        return view.labeled_x[lab_idx], view.labeled_y[lab_idx], view.unlabeled_x[unl_idx], i_batch
    except (MemoryError, ValueError) as e:  # numpy's refusal of an array too large for memory or for its shape
        raise ConfigError(f"b ({b}) and mu ({mu}) ask for batches numpy cannot allocate: {e}") from e


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


@contextmanager
def _two_processes(child, parent, path, what: str):
    """Run child(tmp) in a forked process while this one runs parent();
    yield parent()'s result and tmp, an anonymous binary temp file holding
    what the child wrote, rewound. The child is reaped on every path, and
    OSError names path when it did not exit 0. Without os.fork, parent()
    and then child(tmp) run here: a first-part error is still the one raised.

    The child leaves only through os._exit: it flushes none of the stdio
    buffers it inherited and runs none of the caller's finally or atexit
    code. It only formats or parses text, so it needs nothing that a BLAS
    thread of this process could hold at the fork."""
    with tempfile.TemporaryFile() as tmp:
        pid = os.fork() if hasattr(os, "fork") else None
        if pid == 0:
            code = 1
            try:
                child(tmp)
                tmp.flush()
                code = 0
            finally:
                os._exit(code)
        try:
            result = parent()
        finally:
            status = 0 if pid is None else os.waitpid(pid, 0)[1]
        if status != 0:
            raise OSError(f"{path}: the process {what} failed "
                          f"(exit status {os.waitstatus_to_exitcode(status)})")
        if pid is None:
            child(tmp)
        tmp.seek(0)
        yield result, tmp


def _write_halves(fh, splits, n: int, path) -> None:
    """Write body rows 0..n-1 into fh through _two_processes: the child
    formats the second half while this process formats the first half
    into fh; then the child's text is appended in buffer-sized copies."""
    half = n // 2

    def child(tmp):
        text = io.TextIOWrapper(tmp, encoding="utf-8", newline="")
        _write_rows(text, splits, half, n)
        text.detach()  # flushes; the wrapper must not close tmp when it goes

    with _two_processes(child, lambda: _write_rows(fh, splits, 0, half), path,
                        f"writing rows {half + 1}..{n}") as (_, tmp):
        fh.flush()
        shutil.copyfileobj(tmp, fh.buffer)


def save_csv(ds: Dataset, path) -> None:
    """Write rows as role,label,tag,f0..f{d-1} with CRLF line ends, the
    bytes csv.writer gives (no field ever needs quoting); floats use repr
    so the text round-trips to the identical float64 values.

    The body is written by _write_halves: a forked child (this process,
    after the first half, without os.fork) formats the second half of the
    rows (counted across the splits) into an anonymous temp file, which is
    appended to the first half, so the file has the same bytes either way
    and a forked child's memory is not in this process's ru_maxrss. If
    writing fails, a regular output file is removed: the first half ends
    on a row boundary and would load as a shorter dataset."""
    splits = (ds.labeled, ds.unlabeled, ds.test)
    n = sum(map(len, splits))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        try:
            fh.write(",".join(["role", "label", "tag"] + [f"f{i}" for i in range(ds.d_in)]) + "\r\n")
            _write_halves(fh, splits, n, path)
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


def _bulk_splits(fh, d_in: int, max_rows: int) -> list[Split] | None:
    """Parse the rows after the header with one np.loadtxt call, fed a
    chunk of lines (CHUNK_CHARS) at a time. None when a line is not a
    plain row (a quote or a 0x1c-0x1f control, a comma count other than
    2 + d, unknown role or tag, a label int() rejects), loadtxt declines
    it or a feature is not finite: the row walk then decides.

    max_rows, a bound from _max_rows on the rows in fh, makes loadtxt
    allocate its array once; grown by reallocation, the array would go
    where heap layout let it, and peak RSS with it.
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


def _max_rows(n_bytes: int, d_in: int) -> int:
    """A bound on the rows the bulk path takes from n_bytes of the file.
    Such a row has 3 + d nonempty fields (loadtxt rejects an empty float,
    int() an empty label; role and tag are looked up), 2 + d commas and,
    unless last, a line end: n rows take at least n(2d + 6) - 1 bytes."""
    return n_bytes // (2 * d_in + 6) + 1


class _ByteRange(io.RawIOBase):
    """Bytes start..stop of the file at path, as a raw stream."""

    def __init__(self, path, start: int, stop: int):
        self._raw = open(path, "rb", buffering=0)
        self._raw.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self._raw.readinto(memoryview(b)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._raw.close()
        super().close()


def _line_end_from(raw, pos: int) -> int:
    """The offset just past the first line end at or after byte pos of the
    binary file raw, or its size if none: a CR LF, LF or bare CR, the line
    ends readlines() sees with newline=""."""
    raw.seek(pos)
    while block := raw.read(CHUNK_CHARS):
        ends = [i for i in (block.find(b"\r"), block.find(b"\n")) if i >= 0]
        if ends:
            end = pos + min(ends) + 1
            raw.seek(end - 1)
            return end + 1 if raw.read(2) == b"\r\n" else end
        pos += len(block)
    return pos


def _halves(path) -> tuple[int, int, int] | None:
    """(start, split, stop): the body is bytes start..stop of the file, and
    split lies just past the first line end at or after its middle byte.
    None when no line starts after that line end (a one-line body)."""
    with open(path, "rb") as raw:
        start = _line_end_from(raw, 0)  # a header that _read_header takes is one line
        stop = raw.seek(0, os.SEEK_END)
        split = _line_end_from(raw, (start + stop) // 2)
    return (start, split, stop) if split < stop else None


def _bulk_halves(path, d_in: int, start: int, split: int, stop: int) -> list[Split] | None:
    """_bulk_splits on body bytes start..split here and split..stop in the
    _two_processes child, each half with its own line bound, joined role by
    role, this process's rows first. None when either half is not plain rows.

    The child writes the three row counts (-1 for not plain rows), then
    each role's x, label and tag arrays; they are read straight into the
    joined arrays."""
    def bulk(lo: int, hi: int) -> list[Split] | None:
        with io.TextIOWrapper(io.BufferedReader(_ByteRange(path, lo, hi)), encoding="utf-8",
                              newline="") as text:
            return _bulk_splits(text, d_in, _max_rows(hi - lo, d_in))

    def child(tmp):
        theirs = bulk(split, stop)
        tmp.write(np.array([-1] * 3 if theirs is None else [len(s) for s in theirs], dtype=np.int64).data)
        for s in theirs or ():
            for a in (s.x, s.y, s.tag):
                tmp.write(a.data)

    def read_into(tmp, a):
        if tmp.readinto(a) != a.nbytes:
            raise OSError(f"{path}: the rows after byte {split} came back short")

    with _two_processes(child, lambda: bulk(start, split), path, f"reading bytes {split}..{stop}") as (mine, tmp):
        counts = np.empty(3, dtype=np.int64)
        read_into(tmp, counts)
        if mine is None or counts[0] < 0:
            return None
        joined = []
        for s, n in zip(mine, counts.tolist()):
            arrays = []
            for a in (s.x, s.y, s.tag):
                out = np.empty((len(a) + n, *a.shape[1:]), dtype=a.dtype)
                out[:len(a)] = a
                read_into(tmp, out[len(a):])
                arrays.append(out)
            joined.append(Split(*arrays))
        return joined


def _walk_rows(path) -> tuple[int, list[Split]]:
    """Walk the file, opened once, with csv.reader row by row: raises the
    first bad line's path:line message, then the first non-finite feature's."""
    rows: dict[str, list[tuple[int, int, list[float]]]] = {r: [] for r in ROLE_NAMES}
    nonfinite = None
    with open(path, encoding="utf-8", newline="") as fh:
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
    """Read a dataset CSV: the split bulk parse, else the csv.reader row walk.

    A regular file whose body has a line start after its middle line end
    (see _halves) is parsed by _bulk_halves. Everything else goes to the row
    walk, which opens its input once: a pipe or other non-regular file, a
    one-row body, or a file either half declines. So every message and its
    path:line are the walk's, and the dataset has the same arrays either way."""
    try:
        splits = None
        if os.path.isfile(path):
            with open(path, encoding="utf-8", newline="") as fh:
                _, d_in = _read_header(fh, path)
            halves = _halves(path)
            if halves is not None:
                splits = _bulk_halves(path, d_in, *halves)
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
