"""Row-at-a-time dataset CSV code: the reference for data.save_csv and
data.load_csv.

The package writes the CSV with one f-string per row and parses it with
one np.loadtxt call, falling back to a csv.reader walk for anything the
bulk path does not take. These are the csv.writer / csv.reader versions
that the bulk code stands for, kept here so that the tests can require
byte-identical files, bit-identical datasets and the same error for the
same input.
"""

import csv

import numpy as np

from openset_ssl.data import ROLE_NAMES, TAG_CODES, TAG_NAMES, Dataset, Split
from openset_ssl.errors import ConfigError, ParseError


def save_csv(ds: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["role", "label", "tag"] + [f"f{i}" for i in range(ds.d_in)])
        for role, split in zip(ROLE_NAMES, (ds.labeled, ds.unlabeled, ds.test)):
            for i in range(len(split)):
                row = [role, str(int(split.y[i])), TAG_NAMES[int(split.tag[i])]]
                row.extend(repr(float(v)) for v in split.x[i])
                writer.writerow(row)


def _first_nonfinite(path) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        lineno = reader.line_num + 1  # the line the next row starts on
        for row in reader:
            for name, value in zip(header[3:], row[3:]):
                if not np.isfinite(float(value)):
                    return f"{path}:{lineno}: feature {name} is {value!r}; features must be finite"
            lineno = reader.line_num + 1
    return f"{path}: non-finite feature"


def load_csv(path) -> Dataset:
    rows: dict[str, list[tuple[int, int, list[float]]]] = {r: [] for r in ROLE_NAMES}
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            lineno = 1  # the line the row being read starts on; a quoted field may span lines
            try:
                header = next(reader, None)
                if header is None or header[:3] != ["role", "label", "tag"]:
                    raise ParseError(f"{path}: missing or malformed header")
                d_in = len(header) - 3
                if d_in < 1 or header[3:] != [f"f{i}" for i in range(d_in)]:
                    raise ParseError(f"{path}: feature columns must be f0..f{{d-1}}")
                lineno = reader.line_num + 1
                for row in reader:
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
                    rows[role].append((label, TAG_CODES[tag_s], feats))
                    lineno = reader.line_num + 1
            except csv.Error as e:
                raise ParseError(f"{path}:{lineno}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from e

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
    )
    try:
        ds.validate()
    except ConfigError as e:
        raise ParseError(f"{path}: {e}") from e
    return ds
