"""Command line flows: config parsing, artifact layout, snapshot
reproducibility, and exit codes."""

import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from openset_ssl.cli import main, parse_kv_file, resolve_spec, snapshot_text
from openset_ssl.data import load_csv
from openset_ssl.errors import ConfigError, ParseError
from openset_ssl.evaluation import read_metrics
from openset_ssl.model import init_params, load_checkpoint, save_checkpoint

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
        assert spec.train.augment.weak_noise_sigma == 0.3
        assert spec.gen.k_classes == 2 and spec.gen_seed == 1
        assert not spec.disable_socr and not spec.socr_on_closed_head

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
        extra = "disable_socr = true\ndisable_em = YES\ndisable_fixmatch = 1\nsocr_on_closed_head = false\n"
        spec = resolve_spec(write_spec(tmp_path, extra=extra, out_dir=tmp_path / "run"))
        assert spec.disable_socr and spec.disable_em and spec.disable_fixmatch
        assert not spec.socr_on_closed_head
        cfg = spec.effective_train_config()
        assert cfg.lam_oc == cfg.lam_em == cfg.lam_fm == 0.0
        assert cfg.socr_head == "ova"

    def test_closed_head_toggle(self, tmp_path):
        spec = resolve_spec(
            write_spec(tmp_path, extra="socr_on_closed_head = true\n", out_dir=tmp_path / "run")
        )
        assert spec.effective_train_config().socr_head == "closed"
        assert spec.effective_train_config().lam_oc == spec.train.lam_oc

    def test_bad_boolean_rejected(self, tmp_path):
        path = write_spec(tmp_path, extra="disable_socr = maybe\n", out_dir=tmp_path / "run")
        with pytest.raises(ParseError):
            resolve_spec(path)

    def test_data_csv_resolved_against_spec_dir(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        path = sub / "exp.spec"
        path.write_text(f"out_dir = {tmp_path / 'run'}\ndata_csv = data.csv\n" + TRAIN_LINES)
        spec = resolve_spec(path)
        assert spec.data_csv == str((sub / "data.csv").resolve())

    def test_snapshot_is_idempotent(self, tmp_path):
        spec = resolve_spec(write_spec(tmp_path, out_dir=tmp_path / "run"))
        once = snapshot_text(spec)
        snap_path = tmp_path / "resolved.spec"
        snap_path.write_text(once)
        assert snapshot_text(resolve_spec(snap_path)) == once

    def test_snapshot_spells_out_every_key(self, tmp_path):
        spec = resolve_spec(write_spec(tmp_path, out_dir=tmp_path / "run"))
        kv = {line.split(" = ")[0] for line in snapshot_text(spec).splitlines()}
        from openset_ssl.cli import GEN_KEYS, TOGGLE_KEYS, TRAIN_KEYS

        assert kv == {"out_dir"} | set(GEN_KEYS) | set(TRAIN_KEYS) | set(TOGGLE_KEYS)


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

    def test_disable_socr_zeroes_the_term_but_keeps_the_weight(self, tmp_path):
        spec = write_spec(tmp_path, extra="disable_socr = true\n", out_dir=tmp_path / "run")
        main(["train", "--config", str(spec)])
        records = read_metrics(tmp_path / "run" / "metrics.txt")
        assert all(r.l_oc == 0.0 for r in records)
        snapshot = (tmp_path / "run" / "resolved.spec").read_text()
        assert "disable_socr = true" in snapshot
        assert "lam_oc = 0.5" in snapshot  # the toggle, not the weight, records the ablation

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
    def trained(self, tmp_path):
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
        assert "class count mismatch" in capsys.readouterr().err

    def test_dimension_mismatch_exits_2(self, tmp_path):
        ckpt, _ = self.trained(tmp_path)
        gen_cfg = tmp_path / "gen_d4.cfg"
        gen_cfg.write_text(GEN_LINES.replace("gen_d_in = 3", "gen_d_in = 4"))
        main(["gen-data", "--config", str(gen_cfg), "--out", str(tmp_path / "d4.csv")])
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(tmp_path / "d4.csv"),
                     "--out", str(tmp_path / "ev")]) == 2

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
        for name in ("with_socr", "without_socr"):
            snapshot = (tmp_path / "ab" / name / "resolved.spec").read_text()
            assert "disable_fixmatch = true" in snapshot
            assert (tmp_path / "ab" / name / "checkpoint.npz").exists()

    def test_variant_rows_match_equivalent_train_runs(self, tmp_path):
        spec = write_spec(tmp_path, out_dir=tmp_path / "ab")
        main(["ablate", "--config", str(spec)])
        solo = write_spec(
            tmp_path,
            name="solo.spec",
            extra="disable_socr = true\ndisable_fixmatch = true\n",
            out_dir=tmp_path / "solo",
        )
        main(["train", "--config", str(solo)])
        row = (tmp_path / "ab" / "ablation.csv").read_text().splitlines()[2]
        assert float(row.split(",")[3]) == last_record(tmp_path / "solo").auroc_seen

    def test_missing_subcommand_exits_2(self):
        assert main([]) == 2
