"""Dataset CSV: the bulk writer and reader against the row-at-a-time
csv.writer / csv.reader reference in reference_csv.py. The writer must
give byte-identical files; for any text, the reader must give the same
dataset bit for bit or raise the same error."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_csv
from openset_ssl import data
from openset_ssl.data import (
    Dataset,
    GenConfig,
    Split,
    TAG_SEEN_OUTLIER,
    TAG_UNSEEN_OUTLIER,
    gen_synthetic,
    load_csv,
    save_csv,
)

TINY = GenConfig(k_classes=2, n_seen_outlier=1, n_unseen_outlier=1, d_in=2, train_per_class=4,
                 labels_per_class=2, unlabeled_per_outlier=2, test_per_class=2, test_per_outlier=2,
                 min_center_distance=1.0)


def outcome(load, path):
    """What load(path) gives, comparable bit for bit: the dataset's
    arrays as bytes with their dtypes and shapes, or the error."""
    try:
        ds = load(path)
    except Exception as e:
        return type(e).__name__, str(e)
    splits = (ds.labeled, ds.unlabeled, ds.test)
    arrays = [(a.dtype.str, a.shape, a.tobytes()) for s in splits for a in (s.x, s.y, s.tag)]
    return ds.k_classes, ds.d_in, arrays


def assert_same_outcome(path):
    got = outcome(load_csv, path)
    assert got == outcome(reference_csv.load_csv, path)
    return got


def write_both(ds, tmp_path):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    save_csv(ds, new)
    reference_csv.save_csv(ds, ref)
    return new.read_bytes(), ref.read_bytes()


class TestWriter:
    def test_awkward_floats_byte_identical(self, tmp_path):
        # nan and inf are written as csv.writer writes them, though load rejects them
        x = np.array([[5e-324, -0.0], [1e300, -1e300], [np.nan, np.inf], [-np.inf, 0.1]])
        ds = Dataset(
            labeled=Split(x, np.array([0, 1, 0, 1]), np.zeros(4, dtype=np.int64)),
            unlabeled=Split(x[:2], np.full(2, -1), np.full(2, TAG_SEEN_OUTLIER)),
            test=Split(x[2:], np.full(2, -1), np.full(2, TAG_UNSEEN_OUTLIER)),
            k_classes=2,
            d_in=2,
        )
        new, ref = write_both(ds, tmp_path)
        assert new == ref
        assert b"nan,inf\r\n" in new and b"5e-324,-0.0\r\n" in new

    @pytest.mark.parametrize("d_in", [1, 32])
    def test_width_byte_identical(self, tmp_path, d_in):
        ds = gen_synthetic(GenConfig(d_in=d_in, train_per_class=30, labels_per_class=3, unlabeled_per_outlier=10,
                                     test_per_class=5, test_per_outlier=5, center_box=20.0), seed=3)
        new, ref = write_both(ds, tmp_path)
        assert new == ref
        assert load_csv(tmp_path / "new.csv") == ds

    def test_empty_splits_byte_identical(self, tmp_path):
        ds = gen_synthetic(TINY, seed=0)
        empty = Split(np.empty((0, 2)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        ds.unlabeled, ds.test = empty, empty
        new, ref = write_both(ds, tmp_path)
        assert new == ref
        assert assert_same_outcome(tmp_path / "new.csv")[0] == 2

    # labeled, unlabeled and test rows; a forked child writes rows n // 2 onwards
    ROW_COUNTS = {
        "half_inside_labeled": (4, 1, 1),
        "half_inside_unlabeled": (2, 6, 2),
        "half_inside_test": (1, 1, 6),
        "half_on_labeled_unlabeled_boundary": (4, 2, 2),
        "half_on_unlabeled_test_boundary": (2, 2, 4),
        "empty_body": (0, 0, 0),
        "one_row": (0, 0, 1),
        "two_rows": (1, 1, 0),
    }

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "no_fork"])
    @pytest.mark.parametrize("counts", ROW_COUNTS.values(), ids=ROW_COUNTS)
    def test_row_ranges_byte_identical(self, tmp_path, monkeypatch, counts, fork):
        if not fork:
            monkeypatch.delattr(os, "fork")
        new, ref = write_both(with_rows(gen_synthetic(TINY, seed=0), counts), tmp_path)
        assert new == ref
        assert new.count(b"\r\n") == 1 + sum(counts)

    @pytest.mark.parametrize("fork", [True, False], ids=["fork", "no_fork"])
    @pytest.mark.parametrize("bad_row", [1, 5], ids=["first_half", "second_half"])
    def test_failed_write_leaves_no_file_and_no_child(self, tmp_path, monkeypatch, bad_row, fork):
        forked = []
        if fork:
            real_fork = os.fork

            def recording_fork():
                pid = real_fork()
                forked.append(pid)
                return pid

            monkeypatch.setattr(os, "fork", recording_fork)
        else:
            monkeypatch.delattr(os, "fork")
        ds = with_rows(gen_synthetic(TINY, seed=0), (4, 2, 2))
        split, row = (ds.labeled, bad_row) if bad_row < 4 else (ds.unlabeled, bad_row - 4)
        split.tag[row] = 7  # no TAG_NAMES entry
        path = tmp_path / "data.csv"
        in_child = fork and bad_row >= 4
        with pytest.raises(OSError if in_child else KeyError) as info:
            save_csv(ds, path)
        assert not path.exists()
        if in_child:
            assert str(path) in str(info.value)
        if fork:
            assert len(forked) == 1
            with pytest.raises(ChildProcessError):
                os.waitpid(forked[0], os.WNOHANG)
        with pytest.raises(IsADirectoryError):  # the output is opened before anything forks
            save_csv(ds, tmp_path)
        assert len(forked) == fork


def with_rows(ds, counts):
    """ds with its splits cut to the first counts = (labeled, unlabeled, test) rows."""
    ds.labeled, ds.unlabeled, ds.test = (Split(s.x[:n], s.y[:n], s.tag[:n])
                                         for s, n in zip((ds.labeled, ds.unlabeled, ds.test), counts))
    return ds


BASE = (
    "role,label,tag,f0,f1\r\n"
    "labeled,0,inlier,1.5,-2.25\r\n"
    "labeled,1,inlier,0.1,3.0\r\n"
    "unlabeled,-1,seen_outlier,4.0,5e-324\r\n"
    "test,0,inlier,-0.0,1e300\r\n"
    "test,-1,unseen_outlier,7.0,8.5\r\n"
)

# name, edited text, a text that loads to the same dataset
LOADS_LIKE = [
    ("lf_line_ends", BASE.replace("\r\n", "\n"), BASE),
    ("quoted_field", BASE.replace(",1.5,", ',"1.5",'), BASE),
    ("spaces_around_float", BASE.replace(",1.5,", ", 1.5 ,"), BASE),
    # float() takes 1_0, loadtxt does not: the row walk accepts it
    ("underscore_float", BASE.replace(",7.0,", ",7_0,"), BASE.replace(",7.0,", ",70.0,")),
]

# name, edited text, the message it is rejected with
REJECTED = [
    ("blank_line", BASE.replace("3.0\r\n", "3.0\r\n\r\n"), "bad.csv:4: expected 5 fields, got 0"),
    ("hash_in_row", BASE.replace("-2.25", "-2.25#x"), "bad.csv:2: could not convert string to float: '-2.25#x'"),
    ("trailing_comma", BASE.replace("8.5\r\n", "8.5,\r\n"), "bad.csv:6: expected 5 fields, got 6"),
    ("extra_column", BASE.replace("3.0\r\n", "3.0,9.0\r\n"), "bad.csv:3: expected 5 fields, got 6"),
    ("truncated_last_line", BASE[: BASE.rindex("unseen") + 3], "bad.csv:6: expected 5 fields, got 3"),
    # loadtxt strips 0x1c-0x1f around a float as space, float() does not
    ("separator_control", BASE.replace("-2.25", "-2.25\x1f"),
     "bad.csv:2: could not convert string to float: '-2.25\\x1f'"),
    ("label_outside_int64", BASE.replace("labeled,1,", "labeled,99999999999999999999,"),
     "bad.csv:3: label '99999999999999999999' is outside int64"),
    # the quote swallows the rows after it until csv's 131072-character field limit
    ("unclosed_quote", BASE.replace("test,-1,", 'test,"-1,') + "test,-1,unseen_outlier,7.0,8.5\r\n" * 5000,
     "bad.csv:6: field larger than field limit (131072)"),
    # the quoted 1.5 runs onto line 3, so the unlabeled row is physical line 5
    ("multiline_quoted_row_then_bad_line", BASE.replace(",1.5,", ',"1.5\r\n",').replace("5e-324", "x"),
     "bad.csv:5: could not convert string to float: 'x'"),
    ("multiline_quoted_row_then_nonfinite", BASE.replace(",1.5,", ',"1.5\r\n",').replace("1e300", "inf"),
     "bad.csv:6: feature f1 is 'inf'; features must be finite"),
    ("unclosed_quote_in_header", BASE.replace("role,", 'role,"') + "test,-1,unseen_outlier,7.0,8.5\r\n" * 5000,
     "bad.csv:1: field larger than field limit (131072)"),
]


@pytest.mark.parametrize("name,text,like", LOADS_LIKE, ids=[c[0] for c in LOADS_LIKE])
def test_named_case_loads_as_reference(tmp_path, name, text, like):
    path, plain = tmp_path / "edited.csv", tmp_path / "plain.csv"
    path.write_text(text, newline="")
    plain.write_text(like, newline="")
    assert assert_same_outcome(path)[0] == 2
    assert load_csv(path) == load_csv(plain)


@pytest.mark.parametrize("name,text,message", REJECTED, ids=[c[0] for c in REJECTED])
def test_named_case_rejected_as_reference(tmp_path, name, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, newline="")
    kind, got = assert_same_outcome(path)
    assert kind == "ParseError" and got.endswith(message)


def test_plain_file_takes_the_bulk_path(tmp_path, monkeypatch, many_lines):
    def no_walk(path):
        raise AssertionError("row walk used")

    path = tmp_path / "data.csv"
    ds = gen_synthetic(TINY, seed=1)
    save_csv(ds, path)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_bytes(b"".join(shuffle_rows(many_lines)))
    want = outcome(reference_csv.load_csv, shuffled)
    monkeypatch.setattr(data, "_walk_rows", no_walk)
    assert load_csv(path) == ds
    assert outcome(load_csv, shuffled) == want
    path.write_text(path.read_text().replace(",inlier,", ',"inlier",', 1))
    with pytest.raises(AssertionError, match="row walk used"):
        load_csv(path)


@pytest.mark.parametrize("line_end", [b"\r\n", b"\n", b"\r"])
def test_every_line_end_takes_the_bulk_path(tmp_path, monkeypatch, many_lines, line_end):
    """The size bound never falls short of the rows, so loadtxt reads them all."""
    def no_walk(path):
        raise AssertionError("row walk used")

    text = b"".join(line.rstrip(b"\r\n") + line_end for line in many_lines)
    path, crlf = tmp_path / "ends.csv", tmp_path / "crlf.csv"
    path.write_bytes(text[:-len(line_end)])  # no line end after the last row
    crlf.write_bytes(b"".join(many_lines))
    monkeypatch.setattr(data, "_walk_rows", no_walk)
    assert load_csv(path) == load_csv(crlf)


@pytest.mark.parametrize("final_end", [True, False], ids=["final_end", "no_final_end"])
@pytest.mark.parametrize("line_end", [b"\r\n", b"\n", b"\r"], ids=["crlf", "lf", "cr"])
def test_narrowest_rows_take_the_bulk_path(tmp_path, monkeypatch, line_end, final_end):
    """At d = 1 the narrowest valid row, test,0,inlier,0, is still wider
    than the 2d + 6 bytes the size bound allows a row, so a file made of
    little else loads whole through loadtxt, equal to the reference."""
    def no_walk(path):
        raise AssertionError("row walk used")

    lines = [b"role,label,tag,f0", b"labeled,0,inlier,0"] + [b"test,0,inlier,0"] * 3000
    path = tmp_path / "narrow.csv"
    path.write_bytes(line_end.join(lines) + (line_end if final_end else b""))
    want = outcome(reference_csv.load_csv, path)
    assert want[2][6][1] == (3000, 1)  # the shape of the test split's x
    monkeypatch.setattr(data, "_walk_rows", no_walk)
    assert outcome(load_csv, path) == want


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_loads_without_a_line_bound(tmp_path):
    path = tmp_path / "data.csv"
    save_csv(gen_synthetic(TINY, seed=1), path)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, path.read_bytes())  # far below a pipe's buffer
        os.close(write_end)
        write_end = None
        fifo = f"/dev/fd/{read_end}"
        assert outcome(load_csv, fifo)[2] == outcome(load_csv, path)[2]
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)


# Several thousand rows of four features: the bulk reader takes them in
# several chunks of data.CHUNK_CHARS characters.
MANY = GenConfig(d_in=4, train_per_class=300, labels_per_class=50, unlabeled_per_outlier=300,
                 test_per_class=400, test_per_outlier=400)


@pytest.fixture(scope="module")
def many_lines(tmp_path_factory):
    """The lines of MANY's CSV as save_csv writes it: rows in runs that
    share role, label and tag."""
    path = tmp_path_factory.mktemp("many") / "many.csv"
    save_csv(gen_synthetic(MANY, seed=2), path)
    return path.read_bytes().splitlines(keepends=True)


def shuffle_rows(lines):
    body = lines[1:]
    np.random.default_rng(0).shuffle(body)
    return lines[:1] + body


def chunk_heads(path):
    """For each chunk the bulk reader takes, how many role,label,tag heads its lines have."""
    with open(path, newline="") as fh:
        fh.readline()
        heads = []
        while chunk := fh.readlines(data.CHUNK_CHARS):
            heads.append(len({tuple(line.split(",", 3)[:3]) for line in chunk}))
    return heads


@pytest.mark.parametrize("order", ["grouped", "shuffled"])
def test_many_chunks_load_as_reference(tmp_path, many_lines, order):
    path = tmp_path / "many.csv"
    path.write_bytes(b"".join(many_lines if order == "grouped" else shuffle_rows(many_lines)))
    heads = chunk_heads(path)
    assert len(heads) >= 5
    if order == "grouped":  # runs of one head, and run boundaries inside chunks
        assert 1 in heads and max(heads) > 1
    else:
        assert min(heads) > 1
    assert assert_same_outcome(path)[:2] == (4, 4)


def set_field(line: bytes, i: int, value: bytes) -> bytes:
    fields = line.rstrip(b"\r\n").split(b",")
    fields[i] = value
    return b",".join(fields) + b"\r\n"


# name, {row: edit of that line}, the end of the message it is rejected with or None if it loads.
# Rows 3500 and 3501 lie inside a chunk whose lines are all test,-1,seen_outlier rows.
MANY_EDITS = [
    ("head_changes_inside_a_run", {3500: lambda s: s.replace(b",seen_", b",unseen_")}, None),
    ("role_changes_inside_a_run", {3500: lambda s: s.replace(b"test,", b"unlabeled,")}, None),
    ("label_spelled_differently", {3500: lambda s: s.replace(b",-1,", b",-01,")}, None),
    # the chunk's comma total is right, but one row is a field short
    ("extra_then_missing_field", {3500: lambda s: s.replace(b"\r\n", b",0.5\r\n"),
                                  3501: lambda s: s[:s.rindex(b",")] + b"\r\n"},
     "many.csv:3501: expected 7 fields, got 8"),
    ("missing_then_extra_field", {3500: lambda s: s[:s.rindex(b",")] + b"\r\n",
                                  3501: lambda s: s.replace(b"\r\n", b",0.5\r\n")},
     "many.csv:3501: expected 7 fields, got 6"),
    ("blank_line_then_six_commas", {3500: lambda s: b"\r\n", 3501: lambda s: s.replace(b"\r\n", b",,,,,,\r\n")},
     "many.csv:3501: expected 7 fields, got 0"),
    ("bad_float_in_a_late_chunk", {4500: lambda s: set_field(s, 5, b"x")},
     "many.csv:4501: could not convert string to float: 'x'"),
    ("nonfinite_in_a_late_chunk", {4500: lambda s: set_field(s, 6, b"nan")},
     "many.csv:4501: feature f3 is 'nan'; features must be finite"),
]


@pytest.mark.parametrize("name,edits,message", MANY_EDITS, ids=[c[0] for c in MANY_EDITS])
def test_many_chunks_edited_as_reference(tmp_path, many_lines, name, edits, message):
    lines = list(many_lines)
    assert all(line.startswith(b"test,-1,seen_outlier,") for line in lines[3450:3550])
    for row, edit in edits.items():
        lines[row] = edit(lines[row])
    path = tmp_path / "many.csv"
    path.write_bytes(b"".join(lines))
    got = assert_same_outcome(path)
    if message is None:
        assert got[:2] == (4, 4)
    else:
        assert got[0] == "ParseError" and got[1].endswith(message)


TOKENS = [b",", b'"', b"\r\n", b"\n", b"\r", b"#", b"_", b" ", b"\t", b".", b"-", b"+", b"e", b"0", b"7",
          b"nan", b"inf", b"1_0", b"\x00", b"\xff", b"\xc3\xa9", b"\xe2\x80\xa8", b"\xc2\x85", b"\x0c", b"\x1c",
          b"test", b"labeled", b"unlabeled", b"inlier", b"seen_outlier", b"unseen_outlier", b"-1",
          b"99999999999999999999"]
MUTATION = st.tuples(st.sampled_from(["insert", "delete", "truncate", "dup_line", "drop_line"]),
                     st.integers(0, 999), st.integers(1, 8), st.sampled_from(TOKENS))


def mutate(text: bytes, mutation) -> bytes:
    kind, where, n, token = mutation
    i = where * len(text) // 1000
    if kind == "insert":
        return text[:i] + token + text[i:]
    if kind == "delete":
        return text[:i] + text[i + n:]
    if kind == "truncate":
        return text[:i]
    lines = text.splitlines(keepends=True)
    j = min(where * len(lines) // 1000, len(lines) - 1)
    if j < 0:
        return text
    return b"".join(lines[: j + 1] + lines[j:] if kind == "dup_line" else lines[:j] + lines[j + 1:])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_text_same_outcome_as_reference(tmp_path, mutations):
    text = BASE.encode()
    for mutation in mutations:
        text = mutate(text, mutation)
    path = tmp_path / "fuzz.csv"
    path.write_bytes(text)
    assert_same_outcome(path)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(MUTATION, min_size=1, max_size=3), st.booleans())
def test_mutated_many_chunks_same_outcome_as_reference(tmp_path, many_lines, mutations, shuffled):
    text = b"".join(shuffle_rows(many_lines) if shuffled else many_lines)
    for mutation in mutations:
        text = mutate(text, mutation)
    path = tmp_path / "fuzz.csv"
    path.write_bytes(text)
    assert_same_outcome(path)
