"""Package-level acceptance checks, one test per shipped guarantee.

Each test pins a headline property at an explicit tolerance and, where it
matters, a runtime budget, so `pytest -v tests/test_acceptance.py` reads
as a pass/fail scorecard. The unit suites cover the same ground at finer
grain; this file is the contract.

Benchmark-dependent checks (the SOCR ablation, the full-pipeline run,
and the head-variant comparison) share one set of trainings through a
module-scoped fixture so the scorecard stays inside its time budgets.
The fixture runs those twelve independent trainings in two worker
processes, one BLAS thread each, so that both cores train.
"""

import hashlib
import math
import multiprocessing
import os
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import openset_ssl.trainer as trainer_mod
from oracles import closed, fixmatch_on, grad_check, ova, socr_on
from openset_ssl.cli import main as cli_main
from openset_ssl.data import (
    AugmentConfig,
    GenConfig,
    gen_synthetic,
    load_csv,
    save_csv,
)
from openset_ssl.evaluation import auroc, evaluate_params, export_histogram
from openset_ssl.losses import loss_all, loss_cls, loss_em, loss_ova
from openset_ssl.model import init_params, load_checkpoint, save_checkpoint
from openset_ssl.trainer import TrainConfig, train

# The default benchmark: one dataset from GenConfig() at a pinned
# generation seed, trained at three training seeds with TrainConfig()
# as shipped. Fixing the dataset and varying only the training seed is
# the usual ablation protocol; these exact values are what the shipped
# defaults are calibrated for.
BENCH_GEN_SEED = 0
BENCH_SEEDS = (0, 1, 2)

# The twelve benchmark trainings as (group, seed, TrainConfig overrides),
# longest first so that the two workers finish close together: the full
# pipeline, consistency on the closed head, and the SOCR ablation with the
# consistency term on and off, all but the first with pseudo-labeling off.
BENCH_TRAININGS = tuple(
    (group, seed, overrides)
    for group, overrides in (
        ("full", {}),
        ("closed", {"lam_fm": 0.0, "socr_head": "closed"}),
        ("with", {"lam_fm": 0.0}),
        ("without", {"lam_fm": 0.0, "lam_oc": 0.0}),
    )
    for seed in BENCH_SEEDS
)
BENCH_WORKERS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Small data for the gating and persistence checks; benchmark scale is
# irrelevant there and these keep the scorecard fast.
SMALL_GEN = GenConfig(
    k_classes=3,
    n_seen_outlier=1,
    n_unseen_outlier=1,
    d_in=4,
    train_per_class=30,
    labels_per_class=5,
    unlabeled_per_outlier=25,
    test_per_class=10,
    test_per_outlier=10,
    cluster_sigma=0.8,
    min_center_distance=3.0,
    center_box=4.0,
)

SPEC_TEXT = """\
gen_k_classes = 3
gen_n_seen_outlier = 1
gen_n_unseen_outlier = 1
gen_d_in = 4
gen_train_per_class = 30
gen_labels_per_class = 5
gen_unlabeled_per_outlier = 25
gen_test_per_class = 10
gen_test_per_outlier = 10
gen_cluster_sigma = 0.8
gen_min_center_distance = 3.0
gen_center_box = 4.0
gen_seed = 1
b = 8
mu = 2
e_fix = 1
e_max = 2
i_max = 4
seed = 7
hidden = 8
eval_every = 1
weak_noise_sigma = 0.3
strong_noise_sigma = 0.6
strong_mask_prob = 0.2
"""


def test_gradient_checks_every_loss():
    """Analytic gradients of each loss term and of the full objective
    match central differences (eps 1e-5) to relative error 1e-4."""
    t0 = time.perf_counter()
    k, b, d = 3, 8, 4
    rng = np.random.default_rng(11)
    params = init_params(d, (6,), k, rng)
    x = rng.normal(size=(b, d))
    y = rng.integers(0, k, size=b)
    u = rng.normal(size=(2 * b, d))
    i_batch = rng.normal(size=(2 * b, d))
    aug = AugmentConfig(weak_noise_sigma=0.3, strong_noise_sigma=0.6, strong_mask_prob=0.2)
    cfg = TrainConfig(b=b, mu=2, tau=0.25, e_fix=1, e_max=2, i_max=1, hidden=(6,), augment=aug)

    # The pseudo-label term must actually fire for its check to mean anything.
    _, mask_count = fixmatch_on(params, i_batch, aug, np.random.default_rng(6), tau=0.25)
    assert mask_count > 0

    checks = {
        "cls": lambda: loss_cls(closed(params, x), y),
        "ova": lambda: loss_ova(ova(params, x), y),
        "em": lambda: loss_em(ova(params, u)),
        "oc": lambda: socr_on(params, u, aug, np.random.default_rng(5)),
        "fm": lambda: fixmatch_on(params, i_batch, aug, np.random.default_rng(6), tau=0.25)[0],
        "all": lambda: loss_all(params, x, y, u, i_batch, cfg, np.random.default_rng(7), epoch=2)[0],
    }
    for name, fn in checks.items():
        worst = grad_check(fn, params.parameters(), eps=1e-5)
        assert worst < 1e-4, f"loss {name}: max relative error {worst:.3e}"
    assert time.perf_counter() - t0 < 10.0


def test_loss_value_oracles():
    """Closed-form loss values on a zero-weight (uniform-output) model."""
    k, d = 3, 4
    rng = np.random.default_rng(1)
    params = init_params(d, (6,), k, rng)
    for t in params.parameters():
        t.data[...] = 0.0
    x = rng.normal(size=(6, d))
    y = np.array([0, 1, 2, 0, 1, 2])
    u = rng.normal(size=(10, d))

    assert abs(loss_ova(ova(params, x), y).item() - 2.0 * math.log(2.0)) < 1e-9
    assert abs(loss_em(ova(params, u)).item() - k * math.log(2.0)) < 1e-9

    noiseless = AugmentConfig(weak_noise_sigma=0.0, strong_noise_sigma=0.0, strong_mask_prob=0.0)
    assert socr_on(params, u, noiseless, np.random.default_rng(2)).item() == 0.0

    aug = AugmentConfig(weak_noise_sigma=0.3, strong_noise_sigma=0.6, strong_mask_prob=0.2)
    fm, mask_count = fixmatch_on(params, u, aug, np.random.default_rng(3), tau=1.0)
    assert fm.item() == 0.0
    assert mask_count == 0


def test_auroc_matches_bruteforce_oracle():
    """Rank-based AUROC equals the O(n^2) pairwise count on 100 random
    tie-heavy instances of n=200, to 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    for trial in range(100):
        n = 200
        n_out = int(rng.integers(40, 160))
        is_out = np.zeros(n, dtype=bool)
        is_out[:n_out] = True
        rng.shuffle(is_out)
        if trial % 2 == 0:
            scores = rng.integers(0, 25, size=n) / 25.0
        else:
            scores = np.round(rng.normal(0.5, 0.2, size=n), 1)
        pos, neg = scores[is_out], scores[~is_out]
        greater = (pos[:, None] > neg[None, :]).sum()
        equal = (pos[:, None] == neg[None, :]).sum()
        want = (greater + 0.5 * equal) / (len(pos) * len(neg))
        got = auroc(scores, is_out)
        assert abs(got - want) <= 1e-12, f"instance {trial}: {got} vs {want}"
    assert time.perf_counter() - t0 < 5.0


def _traced_run(dataset, config, initial=None, selector=None):
    """Run train() while hashing parameters after every optimizer step."""
    real_step = trainer_mod.sgd_step
    real_select = trainer_mod.select_pseudo_inliers
    hashes = []

    def spy_step(flat, grad, velocity, lr, momentum):
        real_step(flat, grad, velocity, lr, momentum)
        # every parameter's bytes, in parameters() order
        hashes.append(hashlib.sha1(flat.tobytes()).hexdigest())

    trainer_mod.sgd_step = spy_step
    if selector is not None:
        trainer_mod.select_pseudo_inliers = selector
    try:
        history = train(dataset, config, initial_pseudo_inliers=initial)
    finally:
        trainer_mod.sgd_step = real_step
        trainer_mod.select_pseudo_inliers = real_select
    return hashes, history


def test_candidate_warmup_gating():
    """With E_fix=3, E_max=5: epochs 1-3 are bit-identical no matter what
    candidate set is pre-seeded; selection first lands at the end of epoch
    3 and is first consumed during epoch 4."""
    ds = gen_synthetic(SMALL_GEN, seed=0)
    cfg = TrainConfig(
        b=8,
        mu=2,
        tau=0.3,
        e_fix=3,
        e_max=5,
        i_max=5,
        seed=3,
        hidden=(8,),
        augment=AugmentConfig(weak_noise_sigma=0.3, strong_noise_sigma=0.6, strong_mask_prob=0.2),
        eval_every=100,
    )

    h_empty, hist = _traced_run(ds, cfg, initial=None)
    h_seeded, _ = _traced_run(ds, cfg, initial=np.arange(40))
    # Pre-seeded candidates are replaced by the epoch-3 selection before
    # anything consumes them, so the whole trajectory matches, not just
    # the warmup prefix.
    assert h_empty == h_seeded
    assert hist.k_sizes[:2] == [0, 0]
    assert hist.k_sizes[2] > 0

    # Force different selections; tau=0.3 < 1/K keeps the pseudo-label
    # mask open, so the first divergence marks actual consumption.
    h_a, _ = _traced_run(ds, cfg, selector=lambda p, ux: np.array([0, 1]))
    h_b, _ = _traced_run(ds, cfg, selector=lambda p, ux: np.array([2, 3]))
    per_epoch = cfg.i_max
    assert h_a[: 3 * per_epoch] == h_b[: 3 * per_epoch]
    first_diff = next(i for i in range(len(h_a)) if h_a[i] != h_b[i])
    assert 3 * per_epoch <= first_diff < 4 * per_epoch


def _bench_training(job):
    """One of BENCH_TRAININGS, run in a worker: the job, its final
    auroc_seen and, for the full pipeline, the test-split evaluation. A
    RuntimeWarning or a deprecation is an error here as it is in the test
    process."""
    group, seed, overrides = job
    dataset = gen_synthetic(GenConfig(), seed=BENCH_GEN_SEED)
    with warnings.catch_warnings():
        for category in (RuntimeWarning, DeprecationWarning, PendingDeprecationWarning, FutureWarning):
            warnings.simplefilter("error", category)
        history = train(dataset, TrainConfig(seed=seed, eval_every=30, **overrides))
        result = evaluate_params(history.final_params, dataset.test) if group == "full" else None
    return job, history.records[-1].auroc_seen, result


@pytest.fixture(scope="module")
def bench_trainings():
    """BENCH_TRAININGS on BENCH_WORKERS processes. Returns (group, seed) ->
    (auroc_seen, evaluation or None), and group -> the seconds from the
    start until the group's last training finished, which bounds the wall
    time of that group's trainings."""
    t0 = time.perf_counter()
    # the workers start with this environment, so numpy loads there with one BLAS thread;
    # spawn, not fork: forking a process whose BLAS threads run is unsafe
    with mock.patch.dict(os.environ, dict.fromkeys(BLAS_THREAD_VARS, "1")):
        pool = multiprocessing.get_context("spawn").Pool(BENCH_WORKERS)
    runs, done = {}, {}
    with pool:
        results = pool.imap_unordered(_bench_training, BENCH_TRAININGS)
        for _ in BENCH_TRAININGS:
            (group, seed, _), auroc_seen, result = results.next(timeout=300.0)
            runs[group, seed] = auroc_seen, result
            done[group] = time.perf_counter() - t0
    return runs, done


def test_benchmark_shape_is_pinned():
    """The shipped benchmark defaults stay at the published scale."""
    gen = GenConfig()
    assert gen.k_classes == 4
    assert gen.n_seen_outlier == 2
    assert gen.d_in == 8
    assert gen.labels_per_class == 25
    unlabeled = gen.k_classes * (gen.train_per_class - gen.labels_per_class)
    unlabeled += gen.n_seen_outlier * gen.unlabeled_per_outlier
    assert unlabeled == 2000
    cfg = TrainConfig()
    assert (cfg.e_max, cfg.i_max, cfg.b, cfg.mu) == (30, 100, 64, 2)
    assert (cfg.lam_em, cfg.lam_oc, cfg.lam_fm, cfg.tau) == (0.1, 0.5, 1.0, 0.95)
    assert (cfg.e_fix, cfg.lr, cfg.momentum, cfg.hidden) == (10, 0.03, 0.9, (64, 64))


def test_consistency_term_improves_detection(bench_trainings):
    """With pseudo-labeling disabled, adding the consistency term lifts
    seen-outlier AUROC by at least 3 absolute points, averaged over the
    benchmark seeds."""
    runs, done = bench_trainings
    deltas = [runs["with", s][0] - runs["without", s][0] for s in BENCH_SEEDS]
    mean_delta = float(np.mean(deltas))
    detail = ", ".join(
        f"seed {s}: {runs['without', s][0]:.3f} -> {runs['with', s][0]:.3f}" for s in BENCH_SEEDS
    )
    assert mean_delta >= 0.03, f"mean delta {mean_delta:+.4f} ({detail})"
    assert max(done["with"], done["without"]) < 300.0


def test_full_pipeline_separates_outliers(bench_trainings, tmp_path):
    """The full default run reaches seen-outlier AUROC >= 0.90 with inlier
    error <= 10% on every benchmark seed, and the exported score histogram
    puts more inlier than outlier mass below 0.5."""
    runs, done = bench_trainings
    results = {seed: runs["full", seed][1] for seed in BENCH_SEEDS}
    final = results[BENCH_SEEDS[-1]]

    for seed, result in results.items():
        assert result.auroc_seen >= 0.90, f"seed {seed}: auroc_seen {result.auroc_seen:.3f}"
        assert result.err_inlier <= 0.10, f"seed {seed}: err_inlier {result.err_inlier:.3f}"

    hist_path = tmp_path / "histogram.csv"
    export_histogram(final.scores, final.is_outlier, bins=20, path=hist_path)
    rows = [line.split(",") for line in hist_path.read_text().splitlines()[1:]]
    inlier_low = sum(int(r[2]) for r in rows if float(r[1]) <= 0.5)
    outlier_low = sum(int(r[3]) for r in rows if float(r[1]) <= 0.5)
    inlier_total = sum(int(r[2]) for r in rows)
    outlier_total = sum(int(r[3]) for r in rows)
    assert inlier_low / inlier_total > outlier_low / outlier_total
    assert done["full"] < 180.0


def test_ova_head_consistency_beats_closed_head(bench_trainings):
    """Consistency on the OVA heads detects at least as well, on average,
    as the same term applied to the closed-set softmax."""
    runs, _ = bench_trainings
    ova_mean = float(np.mean([runs["with", s][0] for s in BENCH_SEEDS]))
    closed_mean = float(np.mean([runs["closed", s][0] for s in BENCH_SEEDS]))
    assert ova_mean >= closed_mean, f"ova {ova_mean:.4f} vs closed {closed_mean:.4f}"


def test_determinism_and_persistence(tmp_path):
    """Same spec and seed give byte-identical metrics; checkpoints and
    dataset CSVs round-trip exactly."""
    spec = tmp_path / "exp.spec"
    spec.write_text(SPEC_TEXT)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["train", "--config", str(spec), "--out", str(out_a)]) == 0
    assert cli_main(["train", "--config", str(spec), "--out", str(out_b)]) == 0
    assert (out_a / "metrics.txt").read_bytes() == (out_b / "metrics.txt").read_bytes()

    params, _ = load_checkpoint(out_a / "checkpoint.npz")
    again = tmp_path / "again.npz"
    save_checkpoint(again, params, config={"note": "roundtrip"})
    reloaded, _ = load_checkpoint(again)
    for orig, back in zip(params.parameters(), reloaded.parameters()):
        assert orig.data.tobytes() == back.data.tobytes()

    ds = gen_synthetic(SMALL_GEN, seed=5)
    csv_path = tmp_path / "ds.csv"
    save_csv(ds, csv_path)
    assert load_csv(csv_path) == ds


def test_image_scale_exclusion_is_documented():
    """Image-benchmark numbers are excluded by design; the README says so
    rather than this suite pretending to cover them."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    assert "CIFAR" in text and "ImageNet" in text
    assert "out of scope" in text
