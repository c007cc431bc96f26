"""The benchmark's workloads: inputs, the timed operation, and the checks.

Every workload drives `openset_ssl.cli.main`, the path a user takes. The
workload seed is the training seed; the dataset is always the default
generator at gen_seed 0, the data the package's own benchmark script
uses, so a seed changes initialisation, batch order and augmentation
noise but not the clusters.

  train_default  `train` on the default spec: 30 epochs x 100 steps of
                 B=64, mu=2, hidden 64,64. Small matrices, so per-op
                 Python and autodiff overhead dominate a step.
  train_wide     the same pipeline with b=256, hidden 256,256 and
                 gen_d_in=32, shortened to 4 epochs x 25 steps (e_fix=2,
                 so self-training runs in epochs 3 and 4). Matmul-bound.
  csv_eval       `gen-data` writes the default clusters with a 140k-row
                 test split (about 25 MB of CSV), then `eval` scores a
                 checkpoint trained in set-up. CSV and scoring layers,
                 no backward pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Seed 0 of train_default is the user's default run; its final parameters
# hash to this prefix (sha256 over parameters() in order).
DEFAULT_RUN_FINGERPRINT = "4eaf19319d6a4619"

BIG_TEST = {"test_per_class": 20000, "test_per_outlier": 20000}
QUALITY_KEYS = ("err_inlier", "auroc_seen", "auroc_unseen")


@dataclass(frozen=True)
class Workload:
    name: str
    train: dict                      # TrainConfig overrides of the timed `train`
    gen: dict                        # GenConfig overrides of the training data
    setup_train: dict                # overrides of the `train` run in set-up
    csv_gen: dict = field(default_factory=dict)  # gen-data overrides; empty: no CSV step

    @property
    def trains(self) -> bool:
        return not self.csv_gen


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_default", train={}, gen={}, setup_train={"e_fix": 1, "e_max": 1, "i_max": 20}),
        Workload(
            "train_wide",
            train={"b": 256, "hidden": "256,256", "e_fix": 2, "e_max": 4, "i_max": 25},
            gen={"d_in": 32},
            setup_train={"b": 256, "hidden": "256,256", "e_fix": 1, "e_max": 1, "i_max": 5},
        ),
        Workload("csv_eval", train={}, gen={}, setup_train={"e_fix": 2, "e_max": 4, "i_max": 100}, csv_gen=BIG_TEST),
    )
}


def spec_text(gen: dict, train: dict, seed: int) -> str:
    lines = ["gen_seed = 0"] + [f"gen_{k} = {v}" for k, v in gen.items()]
    lines += [f"seed = {seed}"] + [f"{k} = {v}" for k, v in train.items()]
    return "\n".join(lines) + "\n"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_kv_line(text: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in text.split())


class Runner:
    """One workload at one seed, in its own work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path, pkg, src: Path):
        self.w, self.seed, self.work, self.pkg, self.src = workload, seed, work, pkg, src
        self.first: dict = {}   # outputs of the first operation; later ones must match
        self.quality: dict = {}

    def cli(self, argv: list[str]) -> tuple[int | None, str]:
        """cli.main as looked up now (the tracer may have wrapped it)."""
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.pkg.cli.main([str(a) for a in argv])
        except Exception as e:  # an uncaught error is a failed operation, not a crashed benchmark
            print(f"bench: {argv[0]} raised {e!r}", file=sys.stderr)
            rc = None
        return rc, out.getvalue()

    # --- set-up -------------------------------------------------------

    def setup(self) -> None:
        """Import the CLI in a fresh interpreter, write the specs, run the
        set-up `train` (a warm-up, or csv_eval's checkpoint)."""
        env = dict(os.environ, PYTHONPATH=str(self.src))
        subprocess.run([sys.executable, "-c", "import openset_ssl.cli"], env=env, check=True, timeout=120)
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "setup.spec").write_text(spec_text(self.w.gen, self.w.setup_train, self.seed))
        (self.work / "train.spec").write_text(spec_text(self.w.gen, self.w.train, self.seed))
        (self.work / "gen.spec").write_text("".join(f"gen_{k} = {v}\n" for k, v in self.w.csv_gen.items()))
        rc, _ = self.cli(["train", "--config", self.work / "setup.spec", "--out", self.work / "setup"])
        if rc != 0:
            raise RuntimeError(f"set-up train exited with {rc}")

    # --- the timed operation -----------------------------------------

    def operation(self) -> tuple[float, float, list[tuple[float, float]], list[tuple[int | None, str]]]:
        """Run the workload once. Returns its start and end (perf_counter
        seconds), the (start, end) of each eval call (csv_eval) and each CLI
        call's (exit, stdout)."""
        work, calls, evals = self.work, [], []
        start = time.perf_counter()
        if self.w.trains:
            calls.append(self.cli(["train", "--config", work / "train.spec", "--out", work / "run"]))
        else:
            calls.append(self.cli(["gen-data", "--config", work / "gen.spec", "--out", work / "data.csv",
                                   "--seed", 0]))
            t1 = time.perf_counter()
            calls.append(self.cli(["eval", "--checkpoint", work / "setup" / "checkpoint.npz",
                                   "--data", work / "data.csv", "--out", work / "eval"]))
            evals.append((t1, time.perf_counter()))
        return start, time.perf_counter(), evals, calls

    # --- checks -------------------------------------------------------

    def check_operation(self, calls) -> list[str]:
        """Cheap checks after every operation: exit codes, and outputs
        byte-identical to the first operation's."""
        bad = [f"exit {rc} from call {i}" for i, (rc, _) in enumerate(calls) if rc != 0]
        if bad:
            return bad
        if self.w.trains:
            defaults = self.pkg.trainer.TrainConfig()
            steps = self.w.train.get("e_max", defaults.e_max) * self.w.train.get("i_max", defaults.i_max)
            if f"trained {steps} steps" not in calls[0][1]:
                bad.append(f"train did not report {steps} steps")
            outputs = {"fingerprint": self.fingerprint(), "metrics": sha256_file(self.work / "run" / "metrics.txt")}
        else:
            outputs = {name: sha256_file(path) for name, path in self._csv_outputs().items()}
        if not self.first:
            self.first = outputs
        bad += [f"{k} differs from the first run" for k in outputs if outputs[k] != self.first[k]]
        return bad

    def check_final(self) -> list[str]:
        """Thorough checks on the outputs (identical across operations),
        run once after the timed loop. Also records the quality numbers."""
        return self._check_train() if self.w.trains else self._check_csv_eval()

    def fingerprint(self) -> str:
        params, _ = self.pkg.model.load_checkpoint(self.work / "run" / "checkpoint.npz")
        return hashlib.sha256(b"".join(p.data.tobytes() for p in params.parameters())).hexdigest()

    def _check_train(self) -> list[str]:
        """metrics.txt against evaluate_params on the reloaded checkpoint,
        and against the benchmark's own scoring of the test split."""
        pkg, bad = self.pkg, []
        final = read_kv_line((self.work / "run" / "metrics.txt").read_text().splitlines()[-1])
        reported = {k: float(final[k]) for k in QUALITY_KEYS}
        params, _ = pkg.model.load_checkpoint(self.work / "run" / "checkpoint.npz")
        test = pkg.data.gen_synthetic(pkg.data.GenConfig(**self.w.gen), 0).test
        result = pkg.evaluation.evaluate_params(params, test)
        for key in QUALITY_KEYS:
            if reported[key] != getattr(result, key):
                bad.append(f"metrics.txt {key}={reported[key]!r} but the reloaded checkpoint gives "
                           f"{getattr(result, key)!r}")
        tag = np.array([pkg.data.TAG_NAMES[int(t)] for t in test.tag])
        bad += compare_quality("metrics.txt", reported, self.work / "run" / "checkpoint.npz", test.x, test.y, tag)
        if self.w.name == "train_default" and self.seed == 0 and not self.first["fingerprint"].startswith(
            DEFAULT_RUN_FINGERPRINT
        ):
            bad.append(f"fingerprint {self.first['fingerprint'][:16]} != pinned {DEFAULT_RUN_FINGERPRINT}")
        self.quality = reported
        return bad

    def _csv_outputs(self) -> dict[str, Path]:
        return {"csv": self.work / "data.csv", "eval": self.work / "eval" / "eval.txt",
                "histogram": self.work / "eval" / "histogram.csv"}

    def _check_csv_eval(self) -> list[str]:
        """eval.txt against an independent forward pass and rank AUROC,
        on test rows read from the CSV by the benchmark's own parser."""
        bad = []
        files = self._csv_outputs()
        x, label, tag = read_test_rows(files["csv"])
        cfg = self.pkg.data.GenConfig(**self.w.csv_gen)
        expected_rows = cfg.k_classes * cfg.test_per_class + (cfg.n_seen_outlier + cfg.n_unseen_outlier) * cfg.test_per_outlier
        if len(x) != expected_rows:
            bad.append(f"CSV has {len(x)} test rows, expected {expected_rows}")
        reported = {k: float(v) for k, v in read_kv_line(files["eval"].read_text()).items()}
        bad += compare_quality("eval.txt", reported, self.work / "setup" / "checkpoint.npz", x, label, tag)
        inlier = tag == "inlier"
        counts = np.loadtxt(files["histogram"], delimiter=",", skiprows=1, ndmin=2)
        if counts[:, 2].sum() != inlier.sum() or counts[:, 3].sum() != (~inlier).sum():
            bad.append(f"histogram counts {counts[:, 2:].sum(axis=0)} do not add up to the test rows")
        self.quality = reported
        return bad


def compare_quality(source: str, reported: dict, checkpoint, x, label, tag) -> list[str]:
    """Reported err/AUROCs against the benchmark's own forward pass and
    rank AUROC, equal up to float rounding of the final division."""
    closed, score = forward(checkpoint, x)
    inlier = tag == "inlier"
    expect = {
        "err_inlier": float(np.mean(closed[inlier] != label[inlier])),
        "auroc_seen": rank_auroc(score[inlier], score[tag == "seen_outlier"]),
        "auroc_unseen": rank_auroc(score[inlier], score[tag == "unseen_outlier"]),
    }
    return [f"{source} {key}={reported.get(key)!r} but the benchmark computes {value!r}"
            for key, value in expect.items() if key not in reported or abs(reported[key] - value) > 1e-9]


def read_test_rows(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    feats, labels, tags = [], [], []
    with open(path) as fh:
        next(fh)
        for line in fh:
            role, label, tag, rest = line.rstrip("\n").split(",", 3)
            if role == "test":
                feats.append(rest)
                labels.append(int(label))
                tags.append(tag)
    x = np.array([row.split(",") for row in feats], dtype=np.float64)
    return x, np.array(labels), np.array(tags)


def softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def forward(checkpoint, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-set label and anomaly score (1 - inlier probability of the
    predicted class), straight from the checkpoint's arrays."""
    with np.load(checkpoint) as ck:
        layers = len(json.loads(str(ck["meta"]))["hidden"])
        h = x
        for i in range(layers):
            h = h @ ck[f"ext{i}_w"] + ck[f"ext{i}_b"]
            if i < layers - 1:
                h = np.maximum(h, 0.0)
        closed = softmax(h @ ck["closed_w"] + ck["closed_b"]).argmax(axis=1)
        ova = softmax((h @ ck["ova_w"] + ck["ova_b"]).reshape(len(x), -1, 2))
    return closed, 1.0 - ova[np.arange(len(x)), closed, 0]


def rank_auroc(inlier_scores: np.ndarray, outlier_scores: np.ndarray) -> float:
    """P(outlier score > inlier score) + P(tie) / 2, by binary search."""
    neg = np.sort(inlier_scores)
    below = np.searchsorted(neg, outlier_scores, side="left")
    ties = np.searchsorted(neg, outlier_scores, side="right") - below
    return float((below.sum() + 0.5 * ties.sum()) / (len(neg) * len(outlier_scores)))
