"""Command line flows: config parsing, artifact layout, snapshot
reproducibility, and exit codes."""

import io
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import warnings
import zipfile
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from openset_ssl import cli
from openset_ssl.cli import main, parse_kv_file, resolve_spec, snapshot_text
from openset_ssl.data import GenConfig, load_csv
from openset_ssl.errors import ConfigError, ParseError
from openset_ssl.model import CHECKPOINT_FORMAT, init_params, load_checkpoint, save_checkpoint
from openset_ssl.trainer import TrainConfig
from oracles import read_metrics
from test_csv import MUTATION, mutate

GEN_LINES = """\
gen_k_classes = 2
gen_n_seen_outlier = 1
gen_n_unseen_outlier = 1
gen_d_in = 3
gen_train_per_class = 20
gen_labels_per_class = 5
gen_unlabeled_per_outlier = 15
gen_test_per_class = 10
gen_test_per_outlier = 8
gen_cluster_sigma = 0.8
gen_min_center_distance = 3.0
gen_center_box = 4.0
gen_seed = 1
"""

TRAIN_LINES = """\
b = 6
mu = 2
e_fix = 1
e_max = 2
i_max = 4
lr = 0.03
seed = 7
hidden = 8
eval_every = 1
weak_noise_sigma = 0.3
strong_noise_sigma = 0.6
strong_mask_prob = 0.2
"""


def write_spec(tmp_path, name="exp.spec", extra="", gen=GEN_LINES, train=TRAIN_LINES, out_dir=None):
    path = tmp_path / name
    lines = []
    if out_dir is not None:
        lines.append(f"out_dir = {out_dir}")
    path.write_text("\n".join(lines) + "\n" + gen + train + extra)
    return path


def last_record(out_dir):
    return read_metrics(Path(out_dir) / "metrics.txt")[-1]


class TestKvFile:
    def test_comments_blanks_and_embedded_equals(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# a comment\n\nkey = a=b\n  other =  2 \n")
        assert parse_kv_file(path) == {"key": "a=b", "other": "2"}

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(ParseError, match=":2:"):
            parse_kv_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("just words\n")
        with pytest.raises(ParseError):
            parse_kv_file(path)

    def test_empty_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("= 3\n")
        with pytest.raises(ParseError):
            parse_kv_file(path)


class TestResolveSpec:
    def test_defaults_filled(self, tmp_path):
        spec = resolve_spec(write_spec(tmp_path, out_dir=tmp_path / "run"))
        assert spec.train.b == 6 and spec.train.momentum == 0.9  # file + default
        assert spec.train.hidden == (8,)
        assert spec.train.weak_noise_sigma == 0.3
        assert spec.gen.k_classes == 2 and spec.gen_seed == 1
        assert (spec.train.lam_em, spec.train.lam_oc, spec.train.lam_fm) == (0.1, 0.5, 1.0)
        assert spec.train.socr_head == "ova"

    def test_unknown_key_rejected(self, tmp_path):
        path = write_spec(tmp_path, extra="mystery = 1\n", out_dir=tmp_path / "run")
        with pytest.raises(ConfigError, match="mystery"):
            resolve_spec(path)

    def test_requires_exactly_one_source(self, tmp_path):
        both = write_spec(tmp_path, extra="data_csv = d.csv\n", out_dir=tmp_path / "run")
        with pytest.raises(ConfigError, match="exactly one"):
            resolve_spec(both)
        neither = tmp_path / "none.spec"
        neither.write_text(f"out_dir = {tmp_path}\n" + TRAIN_LINES)
        with pytest.raises(ConfigError, match="dataset source"):
            resolve_spec(neither)

    def test_out_dir_required_unless_overridden(self, tmp_path):
        path = write_spec(tmp_path)
        with pytest.raises(ConfigError, match="out_dir"):
            resolve_spec(path)
        spec = resolve_spec(path, out_override=str(tmp_path / "o"))
        assert spec.out_dir == str(tmp_path / "o")

    def test_seed_override(self, tmp_path):
        spec = resolve_spec(write_spec(tmp_path, out_dir=tmp_path / "run"), seed_override=99)
        assert spec.train.seed == 99

    def test_toggles_parsed(self, tmp_path):
        """An ablation zeroes a loss weight; each key sets only its own field."""
        extra = "lam_oc = 0\nlam_em = 0.0\nlam_fm = 0\nsocr_head = ova\n"
        cfg = resolve_spec(write_spec(tmp_path, extra=extra, out_dir=tmp_path / "run")).train
        assert cfg.lam_oc == cfg.lam_em == cfg.lam_fm == 0.0
        assert cfg.socr_head == "ova" and cfg.tau == TrainConfig.tau

    def test_closed_head_toggle(self, tmp_path):
        """socr_head = closed moves the consistency term and keeps its weight."""
        spec = resolve_spec(write_spec(tmp_path, extra="socr_head = closed\n", out_dir=tmp_path / "run"))
        assert spec.train.socr_head == "closed"
        assert spec.train.lam_oc == TrainConfig.lam_oc

    def test_bad_socr_head_rejected(self, tmp_path):
        path = write_spec(tmp_path, extra="socr_head = maybe\n", out_dir=tmp_path / "run")
        with pytest.raises(ConfigError, match="socr_head must be 'ova' or 'closed', got 'maybe'"):
            resolve_spec(path)

    def test_data_csv_resolved_against_spec_dir(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        path = sub / "exp.spec"
        path.write_text(f"out_dir = {tmp_path / 'run'}\ndata_csv = data.csv\n" + TRAIN_LINES)
        spec = resolve_spec(path)
        assert spec.data_csv == os.path.abspath(sub / "data.csv")

    def test_snapshot_is_idempotent(self, tmp_path):
        spec = resolve_spec(write_spec(tmp_path, out_dir=tmp_path / "run"))
        once = snapshot_text(spec)
        snap_path = tmp_path / "resolved.spec"
        snap_path.write_text(once)
        assert snapshot_text(resolve_spec(snap_path)) == once

    def test_snapshot_spells_out_every_key(self, tmp_path):
        """The snapshot holds one key per dataclass field, and the spec
        accepts those keys and no others (besides data_csv)."""
        spec = resolve_spec(write_spec(tmp_path, out_dir=tmp_path / "run"))
        kv = {line.split(" = ")[0] for line in snapshot_text(spec).splitlines()}
        from openset_ssl.cli import GEN_KEYS, TRAIN_KEYS

        settings_keys = (
            {f.name for f in fields(TrainConfig)} | {f"gen_{f.name}" for f in fields(GenConfig)} | {"gen_seed"}
        )
        assert kv == settings_keys | {"out_dir"}
        assert set(GEN_KEYS) | set(TRAIN_KEYS) == settings_keys
        assert TRAIN_KEYS == tuple(f.name for f in fields(TrainConfig))


class TestGenDataCmd:
    def gen_config(self, tmp_path, lines=GEN_LINES):
        path = tmp_path / "gen.cfg"
        path.write_text(lines)
        return path

    def test_writes_loadable_csv(self, tmp_path, capsys):
        cfg = self.gen_config(tmp_path)
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        ds = load_csv(out)
        assert ds.k_classes == 2 and ds.d_in == 3
        assert "labeled=10" in capsys.readouterr().out

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = self.gen_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", str(cfg), "--out", str(a)])
        main(["gen-data", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_overrides_file(self, tmp_path):
        cfg = self.gen_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen-data", "--config", str(cfg), "--out", str(a)])
        main(["gen-data", "--config", str(cfg), "--out", str(b), "--seed", "2"])
        assert a.read_bytes() != b.read_bytes()

    def test_non_generator_key_rejected(self, tmp_path, capsys):
        cfg = self.gen_config(tmp_path, GEN_LINES + "lr = 0.5\n")
        code = main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_generator_config_exits_2(self, tmp_path):
        cfg = self.gen_config(tmp_path, GEN_LINES.replace("gen_labels_per_class = 5", "gen_labels_per_class = 50"))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 2

    def test_module_entrypoint_smoke(self, tmp_path):
        cfg = self.gen_config(tmp_path)
        out = tmp_path / "data.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "openset_ssl", "gen-data", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestHeapRelease:
    def test_each_command_trims_the_heap_once(self, tmp_path, monkeypatch, capsys):
        trims = []
        monkeypatch.setattr(cli, "_malloc_trim", trims.append)
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_LINES)
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.csv")]) == 0
        assert trims == [0]
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path)]) == 2  # a directory
        assert trims == [0, 0]
        assert main(["no-such-command"]) == 2  # no command ran
        assert trims == [0, 0]

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is a glibc call")
    def test_found_on_glibc(self):
        assert cli._malloc_trim is not None


# Run in a fresh interpreter: the OpenBLAS thread count that `train` sees
# inside main, and the one the process has once main returns.
BLAS_PROBE = """
import sys
from openset_ssl import cli
get = cli._openblas_thread_calls()[0]
seen = []
real_train = cli.train
cli.train = lambda *args: seen.append(get()) or real_train(*args)
before = get()
assert cli.main(sys.argv[1:]) == 0
print(before, seen[0], get())
"""


@pytest.mark.skipif(cli._openblas_thread_calls() is None, reason="numpy did not load a wheel's OpenBLAS")
class TestBlasThreads:
    def probe(self, tmp_path, **env_vars):
        spec = write_spec(tmp_path, out_dir=tmp_path / "run")
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env.update(env_vars, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", BLAS_PROBE, "train", "--config", str(spec)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return [int(n) for n in proc.stdout.split()[-3:]]

    def test_train_runs_one_blas_thread_and_gives_the_count_back(self, tmp_path):
        before, during, after = self.probe(tmp_path)
        assert during == 1 and after == before

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_an_explicit_thread_count_is_left_alone(self, tmp_path, var):
        assert self.probe(tmp_path, **{var: "2"}) == [2, 2, 2]

    def test_nothing_happens_without_the_library_calls(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_openblas_thread_calls", lambda: None)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main(["train", "--config", str(write_spec(tmp_path, out_dir=tmp_path / "run"))]) == 0


class TestTrainCmd:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        spec = write_spec(tmp_path, out_dir=tmp_path / "run")
        assert main(["train", "--config", str(spec)]) == 0
        run = tmp_path / "run"
        for name in ("checkpoint.npz", "metrics.txt", "resolved.spec"):
            assert (run / name).exists()
        records = read_metrics(run / "metrics.txt")
        assert [r.epoch for r in records] == [1, 2]  # eval_every = 1
        out = capsys.readouterr().out
        assert "trained 8 steps" in out and "auroc_seen=" in out

    def test_zero_lam_oc_zeroes_the_term(self, tmp_path):
        spec = write_spec(tmp_path, extra="lam_oc = 0\n", out_dir=tmp_path / "run")
        assert main(["train", "--config", str(spec)]) == 0
        records = read_metrics(tmp_path / "run" / "metrics.txt")
        assert all(r.l_oc == 0.0 for r in records)
        snapshot = (tmp_path / "run" / "resolved.spec").read_text()
        assert "lam_oc = 0.0\n" in snapshot  # the weight records the ablation
        assert "socr_head = ova\n" in snapshot

    def test_resolved_spec_reproduces_the_run(self, tmp_path):
        spec = write_spec(tmp_path, out_dir=tmp_path / "a")
        main(["train", "--config", str(spec)])
        snapshot = tmp_path / "a" / "resolved.spec"
        assert main(["train", "--config", str(snapshot), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "metrics.txt").read_bytes() == (tmp_path / "b" / "metrics.txt").read_bytes()
        pa, _ = load_checkpoint(tmp_path / "a" / "checkpoint.npz")
        pb, _ = load_checkpoint(tmp_path / "b" / "checkpoint.npz")
        for ta, tb in zip(pa.parameters(), pb.parameters()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_checkpoint_config_is_the_resolved_spec(self, tmp_path):
        spec = write_spec(tmp_path, out_dir=tmp_path / "run")
        main(["train", "--config", str(spec)])
        _, config = load_checkpoint(tmp_path / "run" / "checkpoint.npz")
        assert config == parse_kv_file(tmp_path / "run" / "resolved.spec")

    def test_seed_override_changes_the_run(self, tmp_path):
        spec = write_spec(tmp_path, out_dir=tmp_path / "a")
        main(["train", "--config", str(spec)])
        main(["train", "--config", str(spec), "--out", str(tmp_path / "b"), "--seed", "8"])
        assert (tmp_path / "a" / "metrics.txt").read_text() != (tmp_path / "b" / "metrics.txt").read_text()

    def test_train_from_csv_source(self, tmp_path):
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text(GEN_LINES)
        main(["gen-data", "--config", str(gen_cfg), "--out", str(tmp_path / "data.csv")])
        spec = tmp_path / "exp.spec"
        spec.write_text(f"out_dir = {tmp_path / 'run'}\ndata_csv = data.csv\n" + TRAIN_LINES)
        assert main(["train", "--config", str(spec)]) == 0
        assert (tmp_path / "run" / "metrics.txt").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_train_from_piped_data_csv(self, tmp_path):
        """data_csv = /dev/stdin is kept as written, not resolved to the
        pipe it links to, so a CSV piped in trains as the file does."""
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text(GEN_LINES)
        main(["gen-data", "--config", str(gen_cfg), "--out", str(tmp_path / "data.csv")])
        spec = tmp_path / "exp.spec"
        spec.write_text(f"out_dir = {tmp_path / 'file'}\ndata_csv = data.csv\n" + TRAIN_LINES)
        assert main(["train", "--config", str(spec)]) == 0
        spec.write_text(f"out_dir = {tmp_path / 'pipe'}\ndata_csv = /dev/stdin\n" + TRAIN_LINES)
        proc = subprocess.run([sys.executable, "-m", "openset_ssl", "train", "--config", str(spec)],
                              input=(tmp_path / "data.csv").read_bytes(), capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert "data_csv = /dev/stdin\n" in (tmp_path / "pipe" / "resolved.spec").read_text()
        assert (tmp_path / "pipe" / "metrics.txt").read_bytes() == (tmp_path / "file" / "metrics.txt").read_bytes()

    def test_piped_spec_takes_data_csv_from_the_working_directory(self, tmp_path):
        """A spec read from a pipe has no directory, so a relative data_csv
        is taken from the working directory; a spec redirected from a file
        keeps the file's directory."""
        sub = tmp_path / "sub"
        sub.mkdir()
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text(GEN_LINES)
        main(["gen-data", "--config", str(gen_cfg), "--out", str(sub / "data.csv")])
        spec = sub / "exp.spec"
        spec.write_text("data_csv = data.csv\n" + TRAIN_LINES)
        assert main(["train", "--config", str(spec), "--out", str(tmp_path / "file")]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        argv = [sys.executable, "-m", "openset_ssl", "train", "--config", "/dev/stdin", "--out"]
        piped = subprocess.run(argv + [str(tmp_path / "pipe")], input=spec.read_bytes(), cwd=sub, env=env,
                               capture_output=True)
        with open(spec, "rb") as fh:
            redirected = subprocess.run(argv + [str(tmp_path / "redirect")], stdin=fh, cwd=tmp_path, env=env,
                                        capture_output=True)
        for proc, name in ((piped, "pipe"), (redirected, "redirect")):
            assert proc.returncode == 0, proc.stderr
            run = tmp_path / name
            assert f"data_csv = {os.path.realpath(sub / 'data.csv')}\n" in (run / "resolved.spec").read_text()
            assert (run / "metrics.txt").read_bytes() == (tmp_path / "file" / "metrics.txt").read_bytes()

    def test_trains_without_seen_outliers(self, tmp_path, capsys):
        """ablate refuses such a test split; train runs and leaves auroc_seen out."""
        spec = write_spec(tmp_path, gen=with_line(GEN_LINES, "gen_n_seen_outlier = 0"), out_dir=tmp_path / "run")
        assert main(["train", "--config", str(spec)]) == 0
        assert "auroc_seen=n/a" in capsys.readouterr().out
        assert "auroc_seen" not in (tmp_path / "run" / "metrics.txt").read_text()

    def test_csv_and_generated_sources_agree(self, tmp_path):
        # the CSV round-trip is exact, so training from either source is
        # the same run
        direct = write_spec(tmp_path, out_dir=tmp_path / "a")
        main(["train", "--config", str(direct)])
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text(GEN_LINES)
        main(["gen-data", "--config", str(gen_cfg), "--out", str(tmp_path / "data.csv")])
        via_csv = tmp_path / "csv.spec"
        via_csv.write_text(f"out_dir = {tmp_path / 'b'}\ndata_csv = data.csv\n" + TRAIN_LINES)
        main(["train", "--config", str(via_csv)])
        assert (tmp_path / "a" / "metrics.txt").read_bytes() == (tmp_path / "b" / "metrics.txt").read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.spec")]) == 2

    def test_invalid_train_config_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, extra="tau = 1.5\n", out_dir=tmp_path / "run")
        assert main(["train", "--config", str(spec)]) == 2

    def test_nonfinite_csv_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(
            "role,label,tag,f0\n"
            "labeled,0,inlier,inf\n"
            "labeled,1,inlier,inf\n"
            "unlabeled,0,inlier,inf\n"
            "test,0,inlier,1.0\n"
        )
        spec = tmp_path / "exp.spec"
        spec.write_text(f"out_dir = {tmp_path / 'run'}\ndata_csv = bad.csv\n" + TRAIN_LINES)
        assert main(["train", "--config", str(spec)]) == 2
        assert "bad.csv:2:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_training_exits_3(self, tmp_path, capsys):
        spec = write_spec(tmp_path, extra="lr = 1e300\n", out_dir=tmp_path / "run")
        spec.write_text(spec.read_text().replace("lr = 0.03\n", ""))
        assert main(["train", "--config", str(spec)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_diverging_last_step_exits_3(self, tmp_path, capsys):
        # the one step's loss is finite, but the parameters it leaves make
        # the pseudo-inlier selection's scores non-finite
        train = TRAIN_LINES.replace("lr = 0.03", "lr = 1e300").replace("e_max = 2", "e_max = 1")
        spec = write_spec(tmp_path, train=train.replace("i_max = 4", "i_max = 1"), out_dir=tmp_path / "run")
        assert main(["train", "--config", str(spec)]) == 3
        assert "non-finite scores" in capsys.readouterr().err


class TestEvalCmd:
    @staticmethod
    def trained(tmp_path):
        spec = write_spec(tmp_path, out_dir=tmp_path / "run")
        main(["train", "--config", str(spec)])
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text(GEN_LINES)
        main(["gen-data", "--config", str(gen_cfg), "--out", str(tmp_path / "data.csv")])
        return tmp_path / "run" / "checkpoint.npz", tmp_path / "data.csv"

    def test_matches_final_training_record(self, tmp_path):
        ckpt, data = self.trained(tmp_path)
        out = tmp_path / "ev"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]) == 0
        line = (out / "eval.txt").read_text().strip()
        got = dict(token.split("=") for token in line.split())
        final = last_record(tmp_path / "run")
        assert float(got["err_inlier"]) == final.err_inlier
        assert float(got["auroc_seen"]) == final.auroc_seen
        assert float(got["auroc_unseen"]) == final.auroc_unseen

    def test_histogram_written_with_requested_bins(self, tmp_path):
        ckpt, data = self.trained(tmp_path)
        out = tmp_path / "ev"
        main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out), "--bins", "5"])
        lines = (out / "histogram.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5 bins
        counts = sum(int(line.split(",")[2]) + int(line.split(",")[3]) for line in lines[1:])
        assert counts == len(load_csv(data).test)

    def test_zero_bins_exits_2_before_any_output(self, tmp_path, capsys):
        ckpt, data = self.trained(tmp_path)
        out = tmp_path / "ev"
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out), "--bins", "0"]) == 2
        assert "bins must be >= 1" in capsys.readouterr().err
        assert not (out / "eval.txt").exists()

    def test_unallocatable_bins_exit_2_before_anything_is_read(self, tmp_path, capsys):
        """8 TB of edges: numpy refuses the allocation at once. Neither input
        exists, so reading either would fail with another message."""
        out = tmp_path / "ev"
        code = main(["eval", "--checkpoint", str(tmp_path / "none.npz"), "--data", str(tmp_path / "none.csv"),
                     "--out", str(out), "--bins", str(10**12)])
        assert code == 2
        assert f"--bins {10**12} is too large" in capsys.readouterr().err
        assert not out.exists()

    def test_one_class_checkpoint_exits_2_naming_it(self, tmp_path, capsys):
        """A one-class model cannot score (its closed head has one entry),
        so its checkpoint is refused by name, not by the softmax."""
        ckpt, gen_cfg, data, out = tmp_path / "one.npz", tmp_path / "gen.cfg", tmp_path / "data.csv", tmp_path / "ev"
        one_class_checkpoint(ckpt)
        gen_cfg.write_text(GEN_LINES.replace("gen_k_classes = 2", "gen_k_classes = 1")
                           .replace("gen_d_in = 3", "gen_d_in = 2"))
        assert main(["gen-data", "--config", str(gen_cfg), "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {ckpt}: malformed checkpoint meta\n"
        assert not out.exists()

    def test_unseen_token_omitted_when_absent(self, tmp_path):
        spec = write_spec(
            tmp_path,
            gen=GEN_LINES.replace("gen_n_unseen_outlier = 1", "gen_n_unseen_outlier = 0"),
            out_dir=tmp_path / "run",
        )
        main(["train", "--config", str(spec)])
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text(GEN_LINES.replace("gen_n_unseen_outlier = 1", "gen_n_unseen_outlier = 0"))
        main(["gen-data", "--config", str(gen_cfg), "--out", str(tmp_path / "data.csv")])
        out = tmp_path / "ev"
        main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
              "--data", str(tmp_path / "data.csv"), "--out", str(out)])
        line = (out / "eval.txt").read_text()
        assert "auroc_seen=" in line and "auroc_unseen" not in line

    def test_class_count_mismatch_exits_2(self, tmp_path, capsys):
        ckpt, _ = self.trained(tmp_path)
        gen_cfg = tmp_path / "gen3.cfg"
        gen_cfg.write_text(GEN_LINES.replace("gen_k_classes = 2", "gen_k_classes = 3"))
        main(["gen-data", "--config", str(gen_cfg), "--out", str(tmp_path / "k3.csv")])
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "k3.csv"),
                     "--out", str(tmp_path / "ev")])
        assert code == 2
        assert f"{tmp_path / 'k3.csv'}: class count mismatch" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        ckpt, _ = self.trained(tmp_path)
        gen_cfg = tmp_path / "gen_d4.cfg"
        gen_cfg.write_text(GEN_LINES.replace("gen_d_in = 3", "gen_d_in = 4"))
        main(["gen-data", "--config", str(gen_cfg), "--out", str(tmp_path / "d4.csv")])
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "d4.csv"),
                     "--out", str(tmp_path / "ev")]) == 2
        assert f"{tmp_path / 'd4.csv'}: dimension mismatch" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path):
        _, data = self.trained(tmp_path)
        assert main(["eval", "--checkpoint", str(tmp_path / "none.npz"), "--data", str(data),
                     "--out", str(tmp_path / "ev")]) == 2

    def test_overflowing_test_row_exits_2(self, tmp_path, capsys):
        # 1e308 is finite, so the CSV loads, but an extractor whose weights
        # are all 1 sums three of them to inf
        params = init_params(3, (4,), 2, np.random.default_rng(0))
        params.extractor[0][0].data[...] = 1.0
        ckpt = tmp_path / "ones.npz"
        save_checkpoint(ckpt, params)
        gen_cfg = tmp_path / "gen.cfg"
        gen_cfg.write_text(GEN_LINES)
        data = tmp_path / "data.csv"
        main(["gen-data", "--config", str(gen_cfg), "--out", str(data)])
        lines = data.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("test,"))
        fields = lines[row].rstrip("\r\n").split(",")
        lines[row] = ",".join(fields[:3] + ["1e308"] * (len(fields) - 3)) + "\r\n"
        bad = tmp_path / "huge.csv"
        bad.write_text("".join(lines), newline="")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--checkpoint", str(ckpt), "--data", str(bad), "--out", str(tmp_path / "ev")])
        err = capsys.readouterr().err
        assert code == 2
        assert str(bad) in err and "non-finite" in err and "Warning" not in err
        assert not (tmp_path / "ev" / "eval.txt").exists()

    def eval_edited_csv(self, tmp_path, capsys, edit):
        """eval on a copy of the data CSV whose first test line edit(line)
        rewrites: exit 2 with the CSV's path and line in stderr, no output."""
        ckpt, data = self.trained(tmp_path)
        lines = data.read_text().splitlines(keepends=True)
        row = next(i for i, line in enumerate(lines) if line.startswith("test,"))
        lines[row] = edit(lines[row])
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines), newline="")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(bad), "--out", str(tmp_path / "ev")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:{row + 1}:" in err
        assert not (tmp_path / "ev" / "eval.txt").exists()
        return err

    def test_unclosed_quote_exits_2(self, tmp_path, capsys):
        # the quote runs past csv's 131072-character field limit
        def edit(line):
            return line.replace(",", ',"', 1) + line * 5000

        assert "field limit" in self.eval_edited_csv(tmp_path, capsys, edit)

    def test_label_outside_int64_exits_2(self, tmp_path, capsys):
        def edit(line):
            role, _, rest = line.split(",", 2)
            return f"{role},99999999999999999999,{rest}"

        assert "outside int64" in self.eval_edited_csv(tmp_path, capsys, edit)

    def eval_broken(self, tmp_path, capsys, damage):
        """eval on a copy of a trained checkpoint that damage(path) spoils:
        exit 2 with a message naming the file."""
        ckpt, data = self.trained(tmp_path)
        bad = tmp_path / "bad.npz"
        bad.write_bytes(ckpt.read_bytes())
        damage(bad)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(bad), "--data", str(data), "--out", str(tmp_path / "ev")]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not (tmp_path / "ev" / "eval.txt").exists()

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        self.eval_broken(tmp_path, capsys, lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]))

    def test_non_npz_checkpoint_exits_2(self, tmp_path, capsys):
        self.eval_broken(tmp_path, capsys, lambda p: p.write_text("not a checkpoint\n"))

    @staticmethod
    def rewrite(path, edit):
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        edit(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def test_checkpoint_missing_array_exits_2(self, tmp_path, capsys):
        self.eval_broken(tmp_path, capsys, lambda p: self.rewrite(p, lambda a: a.pop("ova_b")))

    def test_checkpoint_wrong_shape_exits_2(self, tmp_path, capsys):
        def shorten(arrays):
            arrays["ova_b"] = arrays["ova_b"][:-1]

        self.eval_broken(tmp_path, capsys, lambda p: self.rewrite(p, shorten))

    @pytest.mark.parametrize("shape", ["(99999999999999999999, 3)", "(1099511627776, 3)"],
                             ids=["overflows_int64", "needs_24_tib"])
    def test_impossible_header_shape_exits_2(self, tmp_path, capsys, shape):
        # numpy would raise OverflowError, or MemoryError allocating the array
        def damage(path):
            path.write_bytes(rewrite_member(path.read_bytes(), "ext0_w", lambda npy: with_shape_text(npy, shape)))

        self.eval_broken(tmp_path, capsys, damage)


def with_shape_text(npy: bytes, shape_text: str) -> bytes:
    """A version 1.0 .npy file whose header gives shape_text as its shape,
    re-padded so that the header length field stays true."""
    length = int.from_bytes(npy[8:10], "little")
    header = re.sub(r"'shape': \([^)]*\)", lambda _: f"'shape': {shape_text}", npy[10:10 + length].decode("latin1"))
    header = header.rstrip() + " " * (-(len(header.rstrip()) + 11) % 64) + "\n"
    return npy[:8] + len(header).to_bytes(2, "little") + header.encode("latin1") + npy[10 + length:]


def rewrite_member(archive: bytes, name: str, edit) -> bytes:
    """The .npz bytes archive with member name.npy replaced by edit(its bytes)."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(archive)) as src, zipfile.ZipFile(out, "w") as dst:
        for member in src.namelist():
            content = src.read(member)
            dst.writestr(member, edit(content) if member == f"{name}.npy" else content)
    return out.getvalue()


def one_class_checkpoint(path) -> None:
    """The file save_checkpoint wrote for init_params(2, (4,), 1, rng) when
    a one-class model could still be built."""
    meta = {"format": CHECKPOINT_FORMAT, "k_classes": 1, "d_in": 2, "hidden": [4], "config": {}}
    shapes = {"ext0_w": (2, 4), "ext0_b": (4,), "closed_w": (4, 1), "closed_b": (1,), "ova_w": (4, 2), "ova_b": (2,)}
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta, sort_keys=True)), **{n: np.full(s, 0.1) for n, s in shapes.items()})


@pytest.fixture(scope="module")
def small_checkpoint_and_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("ckpt_fuzz")
    save_checkpoint(root / "ckpt.npz", init_params(3, (4,), 2, np.random.default_rng(0)), {"b": 6})
    (root / "gen.cfg").write_text(GEN_LINES)
    assert main(["gen-data", "--config", str(root / "gen.cfg"), "--out", str(root / "data.csv")]) == 0
    return (root / "ckpt.npz").read_bytes(), root / "data.csv"


CHECKPOINT_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("flip"), st.integers(min_value=0), st.integers(1, 255)),
    st.tuples(
        st.just("shape"),
        st.sampled_from(["meta", "ext0_w", "ext0_b", "closed_w", "closed_b", "ova_w", "ova_b"]),
        st.one_of(
            st.lists(st.integers(-2**70, 2**70), max_size=3).map(lambda dims: f"({''.join(f'{d}, ' for d in dims)})"),
            st.text(alphabet="(),- 0123456789", max_size=30),
        ),
    ),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=CHECKPOINT_MUTATION)
def test_mutated_checkpoint_exits_0_or_2(small_checkpoint_and_data, tmp_path, capsys, mutation):
    """A checkpoint truncated, with one byte flipped, or with one member's
    header shape rewritten: eval either scores it or exits 2 naming it,
    with no exception out of main and no RuntimeWarning."""
    good, data = small_checkpoint_and_data
    kind, *how = mutation
    if kind == "truncate":
        bad = good[:how[0] % len(good)]
    elif kind == "flip":
        bad = bytearray(good)
        bad[how[0] % len(good)] ^= how[1]
    else:
        bad = rewrite_member(good, how[0], lambda npy: with_shape_text(npy, how[1]))
    ckpt, out = tmp_path / "fuzz.npz", tmp_path / "ev"
    ckpt.write_bytes(bytes(bad))
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert (code == 0) == (out / "eval.txt").exists()
    if code == 2:
        assert str(ckpt) in err


@pytest.fixture(scope="module")
def trained_checkpoint_and_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("csv_fuzz")
    ckpt, data = TestEvalCmd.trained(root)
    return ckpt, data.read_bytes()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(MUTATION, min_size=1, max_size=4))
def test_mutated_csv_exits_0_or_2(trained_checkpoint_and_data, tmp_path, capsys, mutations):
    """A dataset CSV with bytes inserted or deleted, cut short, or a line
    repeated or dropped: eval either scores it or exits 2 naming it, with
    no exception out of main and no RuntimeWarning."""
    ckpt, text = trained_checkpoint_and_data
    for mutation in mutations:
        text = mutate(text, mutation)
    data, out = tmp_path / "fuzz.csv", tmp_path / "ev"
    data.write_bytes(text)
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert (code == 0) == (out / "eval.txt").exists()
    if code == 2:
        assert str(data) in err


# A spec that trains for two steps on a few dozen rows. The train keys come
# first, so a spec cut inside them has no dataset source and exits 2 at once.
FUZZ_SPEC = b"""\
e_fix = 1
e_max = 1
i_max = 2
b = 4
mu = 2
hidden = 4,3
lr = 0.03
tau = 0.9
lam_oc = 0.5
socr_head = ova
strong_mask_prob = 0.2
gen_k_classes = 2
gen_n_seen_outlier = 1
gen_n_unseen_outlier = 1
gen_d_in = 2
gen_train_per_class = 12
gen_labels_per_class = 3
gen_unlabeled_per_outlier = 6
gen_test_per_class = 4
gen_test_per_outlier = 4
gen_cluster_sigma = 0.8
gen_min_center_distance = 3.0
gen_center_box = 4.0
gen_seed = 1
"""

SPEC_MUTATION = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, len(FUZZ_SPEC) - 1)),
    st.tuples(st.just("flip"), st.integers(0, len(FUZZ_SPEC) - 1), st.integers(1, 255)),
    st.tuples(st.sampled_from(["drop_line", "dup_line"]), st.integers(0, FUZZ_SPEC.count(b"\n") - 1)),
    st.tuples(st.just("dup_field"), st.integers(0, FUZZ_SPEC.count(b"\n") - 1), st.integers(0, 2)),
)


def mutate_spec(text: bytes, mutation) -> bytes:
    """text with one mutation: cut at a byte, one byte flipped, one line
    dropped or repeated, or one of a line's "="- or ","-separated fields
    repeated with the separator before it (after it, for the key)."""
    kind, where, *how = mutation
    if kind == "truncate":
        return text[:where]
    if kind == "flip":
        return text[:where] + bytes([text[where] ^ how[0]]) + text[where + 1:]
    lines = text.splitlines(keepends=True)
    if kind == "drop_line":
        return b"".join(lines[:where] + lines[where + 1:])
    if kind == "dup_line":
        return b"".join(lines[:where + 1] + lines[where:])
    parts = re.split(rb"([=,])", lines[where].rstrip(b"\n"))  # field, separator, field, ...
    i = 2 * (how[0] % ((len(parts) + 1) // 2))
    sep = parts[i - 1] if i else parts[1] if len(parts) > 1 else b"="
    parts[i:i + 1] = [parts[i], sep, parts[i]]
    lines[where] = b"".join(parts) + b"\n"
    return b"".join(lines)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=SPEC_MUTATION)
def test_mutated_spec_exits_0_2_or_3(tmp_path, capsys, mutation):
    """A spec cut short, with one byte flipped, or a line or field dropped
    or repeated: train either runs, exits 2 or exits 3, with no exception
    out of main, no RuntimeWarning and an error line for every failure."""
    spec, out = tmp_path / "fuzz.spec", tmp_path / "run"
    spec.write_bytes(mutate_spec(FUZZ_SPEC, mutation))
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["train", "--config", str(spec), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert (code == 0) == (out / "metrics.txt").exists()
    if code != 0:
        assert re.search(r"^error: ", err, re.MULTILINE), err


# Values a spec key may take, by its field's type: small counts, weights
# including 0 (and tau of 1), a few hidden stacks, both heads. With e_max
# and i_max drawn from the counts the budget stays at most 2 x 2 steps.
# The generator counts that size the clusters, and the counts that size the
# parameters and a step's batches, may also be 10**13, which numpy refuses
# at once (tens of TiB).
VALUES_BY_TYPE = {int: ("0", "1", "2"), float: ("0", "0.5", "1"), tuple[int, ...]: ("", "1", "2,2"),
                  str: ("ova", "closed")}
TYPED_VALUES = {prefix + f.name: VALUES_BY_TYPE[get_type_hints(cls)[f.name]]
                for cls, prefix in ((TrainConfig, ""), (GenConfig, "gen_")) for f in fields(cls)}
for key in ("gen_train_per_class", "gen_unlabeled_per_outlier", "gen_test_per_class", "gen_test_per_outlier",
            "gen_d_in", "b", "mu", "hidden"):
    TYPED_VALUES[key] += (str(10**13),)


@st.composite
def typed_overrides(draw):
    keys = draw(st.lists(st.sampled_from(sorted(TYPED_VALUES)), min_size=1, max_size=4, unique=True))
    return [f"{key} = {draw(st.sampled_from(TYPED_VALUES[key]))}" for key in keys]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["train", "ablate"]), lines=typed_overrides())
def test_typed_spec_exits_0_2_or_3(tmp_path, capsys, command, lines):
    """FUZZ_SPEC with a few keys set to values of their field's type: the
    command runs, exits 3, or exits 2 naming the spec or one of its keys
    before anything is written."""
    text = FUZZ_SPEC.decode()
    for line in lines:
        text = with_line(text, line)
    spec, out = tmp_path / "typed.spec", tmp_path / "run"
    spec.write_text(text)
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    code = main([command, "--config", str(spec), "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    if code == 2:
        keys = {line.split(" = ")[0] for line in text.splitlines()}
        names = keys | {key.removeprefix("gen_") for key in keys}
        assert str(spec) in err or any(re.search(rf"\b{name}\b", err) for name in names), err
        assert not out.exists(), err


@pytest.mark.parametrize("case", ["data_is_directory", "data_not_utf8", "config_not_utf8", "out_is_file"])
def test_bad_path_exits_2_naming_it(tmp_path, capsys, case):
    """A path that cannot be read or written, or a file that is not UTF-8
    text, ends in exit 2 with the path in the message, not a traceback."""
    if case == "config_not_utf8":
        bad = write_spec(tmp_path, out_dir=tmp_path / "run")
        bad.write_bytes(b"# caf\xe9\n" + bad.read_bytes())
        argv = ["train", "--config", bad]
    else:
        ckpt, data = TestEvalCmd.trained(tmp_path)
        out = tmp_path / "ev"
        if case == "data_is_directory":
            data = bad = tmp_path / "data_dir"
            bad.mkdir()
        elif case == "data_not_utf8":
            data = bad = tmp_path / "latin1.csv"
            bad.write_bytes((tmp_path / "data.csv").read_bytes().replace(b"test,", b"t\xe9st,", 1))
        else:
            out = bad = tmp_path / "taken"
            bad.write_text("")
        argv = ["eval", "--checkpoint", ckpt, "--data", data, "--out", out]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("case,key", [("gen_data_flag", "gen_seed"), ("train_flag", "seed"),
                                      ("spec_seed", "seed"), ("spec_gen_seed", "gen_seed")])
def test_negative_seed_exits_2_naming_key(tmp_path, capsys, case, key):
    if case == "gen_data_flag":
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(GEN_LINES)
        argv = ["gen-data", "--config", cfg, "--out", tmp_path / "d.csv", "--seed", "-1"]
    elif case == "train_flag":
        argv = ["train", "--config", write_spec(tmp_path, out_dir=tmp_path / "run"), "--seed", "-1"]
    elif case == "spec_seed":
        spec = write_spec(tmp_path, train=TRAIN_LINES.replace("seed = 7", "seed = -3"), out_dir=tmp_path / "run")
        argv = ["train", "--config", spec]
    else:
        spec = write_spec(tmp_path, gen=GEN_LINES.replace("gen_seed = 1", "gen_seed = -2"), out_dir=tmp_path / "run")
        argv = ["train", "--config", spec]
    assert main([str(a) for a in argv]) == 2
    assert f"error: {key} must be >= 0" in capsys.readouterr().err


def with_line(text, line):
    """text's key = value lines with line's key set by line."""
    key = line.split(" = ")[0]
    return "".join(f"{kept}\n" for kept in text.splitlines() if kept.split(" = ")[0] != key) + line + "\n"


# command, config line, what stderr must name: a number parsing rejects, or a generator setting that overflows
NONFINITE_SETTINGS = [
    ("gen-data", "gen_center_box = inf", "key gen_center_box: expected a finite number, got 'inf'"),
    ("gen-data", "gen_center_box = 1e308", "center_box 1e+308"),
    ("gen-data", "gen_cluster_sigma = nan", "key gen_cluster_sigma: expected a finite number, got 'nan'"),
    ("gen-data", "gen_cluster_sigma = 1e308", "cluster_sigma 1e+308"),
    ("train", "lam_em = nan", "key lam_em: expected a finite number"),
    ("train", "lam_oc = nan", "key lam_oc: expected a finite number"),
    ("train", "momentum = nan", "key momentum: expected a finite number"),
    ("train", "weak_noise_sigma = nan", "key weak_noise_sigma: expected a finite number"),
    ("train", "lr = inf", "key lr: expected a finite number"),
]


def exits_2_naming(tmp_path, capsys, command, line, named):
    """command on the test config with line set exits 2 naming named, with
    no RuntimeWarning and no output file."""
    if command == "gen-data":
        cfg, out = tmp_path / "gen.cfg", tmp_path / "d.csv"
        cfg.write_text(with_line(GEN_LINES, line))
    else:
        out = tmp_path / "run"
        gen_line = line.startswith("gen_")
        cfg = write_spec(tmp_path, gen=with_line(GEN_LINES, line) if gen_line else GEN_LINES,
                         train=TRAIN_LINES if gen_line else with_line(TRAIN_LINES, line), out_dir=out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert not out.exists()


@pytest.mark.parametrize("command,line,named", NONFINITE_SETTINGS, ids=[c[1] for c in NONFINITE_SETTINGS])
def test_nonfinite_setting_exits_2_naming_it(tmp_path, capsys, command, line, named):
    """A finite lr that diverges still exits 3 (test_diverging_training_exits_3)."""
    exits_2_naming(tmp_path, capsys, command, line, named)


SIZE_MESSAGE = "train_per_class, unlabeled_per_outlier, test_per_class, test_per_outlier and d_in ask for clusters"
# command, config line, what stderr must name: the field out of range and its value
OUT_OF_RANGE_SETTINGS = [
    ("gen-data", "gen_center_box = 0", "error: center_box must be > 0, got 0.0\n"),
    ("gen-data", "gen_max_center_retries = 0", "error: max_center_retries must be >= 1, got 0\n"),
    ("gen-data", "gen_n_seen_outlier = -1", "error: n_seen_outlier must be >= 0, got -1\n"),
    ("train", "gen_test_per_class = -1", "error: test_per_class must be >= 0, got -1\n"),
    ("train", "lam_em = -1", "error: lam_em must be >= 0, got -1.0\n"),
    # centers that cannot be placed: the error names the settings that decide it
    ("gen-data", "gen_min_center_distance = 100", "min_center_distance 100.0, max_center_retries 10000"),
    ("train", "gen_max_center_retries = 1", "max_center_retries 1 and center_box 4.0"),
    # counts whose clusters numpy refuses at once (tens of TiB): the error
    # names the settings that size the clusters
    ("gen-data", "gen_test_per_class = 10000000000000", SIZE_MESSAGE),
    ("train", "gen_d_in = 10000000000000", SIZE_MESSAGE),
    ("ablate", "gen_unlabeled_per_outlier = 10000000000000", SIZE_MESSAGE),
    # counts that size the parameters or a step's batches: refused at once,
    # or past numpy's largest dimension (10**20), before any out_dir exists
    ("train", "hidden = 10000000000000", "hidden (10000000000000,) asks for parameters"),
    ("ablate", "hidden = 64,100000000000000000000", "hidden (64, 100000000000000000000) asks for parameters"),
    ("train", "b = 10000000000000", "b (10000000000000) and mu (2) ask for batches"),
    ("ablate", "b = 100000000000000000000", "b (100000000000000000000) and mu (2) ask for batches"),
    ("train", "mu = 10000000000000", "b (6) and mu (10000000000000) ask for batches"),
    ("train", "mu = 100000000000000000000", "b (6) and mu (100000000000000000000) ask for batches"),
]


@pytest.mark.parametrize("command,line,named", OUT_OF_RANGE_SETTINGS, ids=[c[1] for c in OUT_OF_RANGE_SETTINGS])
def test_out_of_range_setting_exits_2_naming_it(tmp_path, capsys, command, line, named):
    exits_2_naming(tmp_path, capsys, command, line, named)


# case id, gen_ lines that leave a dataset the commands cannot use, a gen_
# key the error names, the problem it names, and the commands that refuse it
UNTRAINABLE_DATA = [
    ("one_class", ["gen_k_classes = 1"], "gen_k_classes", "fewer than 2 classes", ("train", "ablate")),
    ("no_unlabeled", ["gen_train_per_class = 5", "gen_unlabeled_per_outlier = 0"], "gen_labels_per_class",
     "an empty unlabeled split", ("train", "ablate")),
    ("no_test_inlier", ["gen_test_per_class = 0"], "gen_test_per_class", "no inlier in the test split",
     ("train", "ablate")),
    ("no_seen_outlier", ["gen_n_seen_outlier = 0"], "gen_n_seen_outlier", "no seen outlier in the test split",
     ("ablate",)),
]


@pytest.mark.parametrize("command,source,lines,key,problem", [
    pytest.param(command, source, lines, key, problem, id=f"{case}-{source}-{command}")
    for case, lines, key, problem, commands in UNTRAINABLE_DATA for source in ("gen", "csv") for command in commands
])
def test_untrainable_dataset_exits_2_naming_it(tmp_path, capsys, command, source, lines, key, problem):
    """Refused once the data is loaded, before any training or output,
    naming the spec and a gen_ key, or the CSV. train still runs on a test
    split without seen outliers (TestTrainCmd.test_trains_without_seen_outliers)."""
    gen = GEN_LINES
    for line in lines:
        gen = with_line(gen, line)
    out = tmp_path / "run"
    if source == "gen":
        spec = write_spec(tmp_path, gen=gen, out_dir=out)
        named = f"{spec}: "
    else:
        (tmp_path / "gen.cfg").write_text(gen)
        assert main(["gen-data", "--config", str(tmp_path / "gen.cfg"), "--out", str(tmp_path / "data.csv")]) == 0
        spec = tmp_path / "exp.spec"
        spec.write_text(f"out_dir = {out}\ndata_csv = data.csv\n" + TRAIN_LINES)
        named = f"{tmp_path.resolve() / 'data.csv'}: "
    capsys.readouterr()
    assert main([command, "--config", str(spec)]) == 2
    err = capsys.readouterr().err
    assert named in err and problem in err, err
    assert source == "csv" or key in err, err
    assert not out.exists()


# The boolean ablation toggles are gone (lam_oc, lam_em or lam_fm = 0, or
# socr_head = closed, say the same), so a spec naming one is refused.
BAD_ABLATION_LINES = [(f"{key} = true", f"error: unknown config keys: {key}\n")
                      for key in ("disable_socr", "disable_em", "disable_fixmatch", "socr_on_closed_head")]
BAD_ABLATION_LINES.append(("socr_head = both", "error: socr_head must be 'ova' or 'closed', got 'both'\n"))


@pytest.mark.parametrize("line,named", BAD_ABLATION_LINES, ids=[c[0] for c in BAD_ABLATION_LINES])
def test_bad_ablation_line_exits_2_naming_it(tmp_path, capsys, line, named):
    out = tmp_path / "run"
    spec = write_spec(tmp_path, extra=line + "\n", out_dir=out)
    assert main(["train", "--config", str(spec)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


class TestAblateCmd:
    def test_two_variants_share_data_and_seed(self, tmp_path):
        spec = write_spec(tmp_path, out_dir=tmp_path / "ab")
        assert main(["ablate", "--config", str(spec)]) == 0
        lines = (tmp_path / "ab" / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,seed,lam_oc,auroc_seen"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["with_socr", "without_socr"]
        assert rows[0][1] == rows[1][1] == "7"
        assert float(rows[0][2]) == 0.5 and float(rows[1][2]) == 0.0
        for r in rows:
            assert 0.0 <= float(r[3]) <= 1.0

    def test_both_variants_disable_pseudo_labeling(self, tmp_path):
        spec = write_spec(tmp_path, out_dir=tmp_path / "ab")
        main(["ablate", "--config", str(spec)])
        for name, lam_oc in (("with_socr", "0.5"), ("without_socr", "0.0")):
            snapshot = (tmp_path / "ab" / name / "resolved.spec").read_text()
            assert "lam_fm = 0.0\n" in snapshot
            assert f"lam_oc = {lam_oc}\n" in snapshot
            assert (tmp_path / "ab" / name / "checkpoint.npz").exists()

    def test_variant_rows_match_equivalent_train_runs(self, tmp_path):
        spec = write_spec(tmp_path, out_dir=tmp_path / "ab")
        main(["ablate", "--config", str(spec)])
        solo = write_spec(tmp_path, name="solo.spec", extra="lam_oc = 0\nlam_fm = 0\n", out_dir=tmp_path / "solo")
        main(["train", "--config", str(solo)])
        row = (tmp_path / "ab" / "ablation.csv").read_text().splitlines()[2]
        assert float(row.split(",")[3]) == last_record(tmp_path / "solo").auroc_seen
        metrics = (tmp_path / "ab" / "without_socr" / "metrics.txt").read_bytes()
        assert metrics == (tmp_path / "solo" / "metrics.txt").read_bytes()

    def test_zero_lam_oc_exits_2_before_output(self, tmp_path, capsys):
        """With lam_oc = 0 both variants would be one run reported as a comparison."""
        spec = write_spec(tmp_path, extra="lam_oc = 0\n", out_dir=tmp_path / "ab")
        assert main(["ablate", "--config", str(spec)]) == 2
        err = capsys.readouterr().err
        assert f"{spec}: lam_oc = 0" in err, err
        assert not (tmp_path / "ab").exists()

    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2


def test_commands_open_text_as_utf8(tmp_path):
    """Every text file is opened as UTF-8, not in the locale's encoding:
    no command warns under -X warn_default_encoding."""
    gen_cfg = tmp_path / "gen.cfg"
    gen_cfg.write_text(GEN_LINES)
    spec, data = write_spec(tmp_path, out_dir=tmp_path / "run"), tmp_path / "data.csv"
    for command in (["gen-data", "--config", str(gen_cfg), "--out", str(data)],
                    ["train", "--config", str(spec)],
                    ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"), "--data", str(data),
                     "--out", str(tmp_path / "ev")],
                    ["ablate", "--config", str(spec), "--out", str(tmp_path / "ab")]):
        proc = subprocess.run([sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                               "-m", "openset_ssl", *command], capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, ""), command
