"""Dataset CSV: the bulk writer and reader against the row-at-a-time
csv.writer / csv.reader reference in reference_csv.py. The writer must
give byte-identical files; for any text, the reader must give the same
dataset bit for bit or raise the same error, on the forked two-process
read, on the read without os.fork (_two_processes running both parts in
this process) and, for a pipe, on the row walk alike."""

import gc
import os
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_csv
from openset_ssl import cli, data
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
from openset_ssl.model import init_params, save_checkpoint
from openset_ssl.trainer import TrainConfig, train

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


def outcome_both_ways(path):
    """outcome(load_csv, path) where os.fork exists, checked equal to the
    read with os.fork removed, where _two_processes runs both parts in
    this process."""
    got = outcome(load_csv, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(os, "fork")
        assert outcome(load_csv, path) == got
    return got


def assert_same_outcome(path):
    got = outcome_both_ways(path)
    assert got == outcome(reference_csv.load_csv, path)
    return got


def record_forks(monkeypatch):
    """The pids of the children os.fork makes from now on in this test."""
    forked = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def assert_reaped(forked):
    for pid in forked:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


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
            forked = record_forks(monkeypatch)
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
        assert len(forked) == fork
        assert_reaped(forked)
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
    # the forked read splits the body inside this quoted field (test_split_points_of_the_cases)
    ("quoted_line_end_at_the_split", BASE.replace(",4.0,", ',"4.0\r\n",'), BASE),
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
    assert outcome_both_ways(path) == outcome_both_ways(plain)


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
    forked = record_forks(monkeypatch)
    assert load_csv(path) == ds
    assert outcome_both_ways(shuffled) == want
    assert len(forked) == 2
    assert_reaped(forked)
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
    assert outcome_both_ways(path) == outcome_both_ways(crlf)


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
    assert outcome_both_ways(path) == want


# name, the file's text (None: TINY as save_csv writes it)
PIPE_CASES = [("tiny", None)] + [(name, text) for name, text, _ in LOADS_LIKE + REJECTED]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("name,text", PIPE_CASES, ids=[c[0] for c in PIPE_CASES])
def test_pipe_reads_as_the_file(tmp_path, monkeypatch, name, text):
    """Through a pipe, a CSV loads as the file does, or is rejected with
    the file's message naming the pipe: one row walk, which opens the pipe
    once, and no fork. A thread feeds the pipe, as the text may be more
    than its buffer holds."""
    path = tmp_path / "data.csv"
    if text is None:
        save_csv(gen_synthetic(TINY, seed=1), path)
    else:
        path.write_text(text, newline="")
    want = outcome(load_csv, path)
    walked, walk = [], data._walk_rows
    monkeypatch.setattr(data, "_walk_rows", lambda p: walked.append(p) or walk(p))
    forked = record_forks(monkeypatch)
    read_end, write_end = os.pipe()
    fifo = f"/dev/fd/{read_end}"

    def feed():
        try:
            with open(write_end, "wb") as fh:
                fh.write(path.read_bytes())
        except BrokenPipeError:  # the walk stopped at a bad row before the end
            pass

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        got = outcome(load_csv, fifo)
    finally:
        os.close(read_end)
        feeder.join()
    assert got == tuple(w.replace(str(path), fifo) if isinstance(w, str) else w for w in want)
    assert walked == [fifo]
    assert forked == []


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
# Rows 3500 and 3501 lie inside a chunk whose lines are all test,-1,seen_outlier rows. The forked
# read parses row 1000 in this process and rows 3500 and on in its child (test_split_points_of_the_cases).
MANY_EDITS = [
    ("bad_label_in_the_first_half", {1000: lambda s: set_field(s, 1, b"1.5")},
     "many.csv:1001: invalid literal for int() with base 10: '1.5'"),
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


def test_split_points_of_the_cases(tmp_path, many_lines):
    """Where the named cases above put the forked read's split."""
    text = dict((name, text) for name, text, _ in LOADS_LIKE)["quoted_line_end_at_the_split"]
    path = tmp_path / "quoted.csv"
    path.write_text(text, newline="")
    assert data._halves(path)[1] == text.index('"4.0\r\n"') + len('"4.0\r\n')
    path = tmp_path / "many.csv"
    path.write_bytes(b"".join(many_lines))
    assert len(b"".join(many_lines[:1001])) < data._halves(path)[1] < len(b"".join(many_lines[:3500]))


@pytest.mark.parametrize("final_end", [True, False], ids=["final_end", "no_final_end"])
@pytest.mark.parametrize("row", [b"labeled,0,inlier,1.5", b"labeled,0,inlier,x"], ids=["plain", "bad"])
def test_one_row_body_reads_in_one_process(tmp_path, monkeypatch, row, final_end):
    forked = record_forks(monkeypatch)
    path = tmp_path / "one.csv"
    path.write_bytes(b"role,label,tag,f0\r\n" + row + (b"\r\n" if final_end else b""))
    got = assert_same_outcome(path)
    assert got[:2] == (1, 1) or got[1].endswith("one.csv:2: could not convert string to float: 'x'")
    assert forked == []


def test_failed_read_leaves_no_child(tmp_path, monkeypatch, capsys):
    """A child that does not exit 0 fails load_csv and eval with an OSError
    naming the file, and is reaped."""
    path, ckpt = tmp_path / "data.csv", tmp_path / "ckpt.npz"
    save_csv(gen_synthetic(TINY, seed=0), path)
    save_checkpoint(ckpt, init_params(TINY.d_in, (4,), TINY.k_classes, np.random.default_rng(0)))
    parent, bulk = os.getpid(), data._bulk_splits

    def failing_in_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("the child fails")
        return bulk(*args)

    monkeypatch.setattr(data, "_bulk_splits", failing_in_child)
    forked = record_forks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(OSError, match="the process reading bytes .* failed \\(exit status 1\\)") as info:
            load_csv(path)
        assert str(path) in str(info.value)
        capsys.readouterr()
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(path), "--out", str(tmp_path / "ev")]) == 2
        assert f"error: {path}: the process reading bytes" in capsys.readouterr().err
        gc.collect()
    assert len(forked) == 2
    assert_reaped(forked)


def test_fork_after_training_meets_no_package_thread(tmp_path, monkeypatch):
    """train() joins the helper thread of its wide backward before it
    returns, so the forks of a later write and read meet no thread of the
    package (Python 3.12 warns when a process with threads forks)."""
    ds = gen_synthetic(GenConfig(d_in=32), 0)
    threads_before = threading.active_count()
    train(ds, TrainConfig(b=256, hidden=(256, 256), e_fix=1, e_max=1, i_max=2))
    forked, threads_at_fork = [], []
    real_fork = os.fork

    def checked_fork():
        threads_at_fork.append((threading.active_count(),
                                [t.name for t in threading.enumerate() if t.name.startswith("openset_ssl")]))
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", checked_fork)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    save_csv(ds, new)
    got = outcome(load_csv, new)
    reference_csv.save_csv(ds, ref)
    assert new.read_bytes() == ref.read_bytes()
    assert got == outcome(reference_csv.load_csv, ref)
    assert threads_at_fork == [(threads_before, [])] * 2
    assert len(forked) == 2
    assert_reaped(forked)


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
