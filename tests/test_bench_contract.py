"""The names the benchmark's outside tracer wraps must stay where it
looks them up, and the checkpoint arrays its scorer reads must keep their
names.

bench/tracer.py replaces module and class attributes with timing
wrappers and leaves out every per-layer metric whose wrap point is gone.
These tests read that file, without changing it, and check that every
wrap point exists and that the callers really go through the wrapped
names: a step that stops calling `losses.feature_extract`, say, would
silently drop the extractor-pass counters from the report, and one that
skips a loss term would drop that term's span. Likewise
bench/workloads.py scores a checkpoint straight from its array names,
and writes specs and generator settings by config field name.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from openset_ssl import autodiff, cli, data, evaluation, losses, model, trainer
from openset_ssl.data import GenConfig, gen_synthetic, sample_batches
from openset_ssl.model import init_params, save_checkpoint
from openset_ssl.trainer import TrainConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")
PKG = SimpleNamespace(autodiff=autodiff, data=data, model=model, losses=losses,
                      evaluation=evaluation, trainer=trainer, cli=cli)
FORWARD_PIECES = ("feature_extract", "classify_closed", "ova_probs")
LOSS_TERMS = ("loss_cls", "loss_ova", "loss_em", "loss_socr", "loss_fixmatch")


def load_unchanged(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses looks a class's module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return load_unchanged("bench_tracer", TRACER_PATH)


@pytest.fixture(scope="module")
def workloads_module():
    return load_unchanged("bench_workloads", WORKLOADS_PATH)


def counting(monkeypatch, owner, attr):
    """Replace owner.attr with a wrapper that counts its calls."""
    calls = []
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls.append(attr)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def test_every_wrap_point_exists(tracer_module):
    table = tracer_module.wrap_points(PKG)
    assert table
    missing = [point for point, _, owner, attr, _ in table if not callable(getattr(owner, attr, None))]
    assert missing == []


def counted_step(monkeypatch, cfg, epoch, attrs):
    """One trainer.loss_all step with the calls to each of losses' attrs
    counted: {attr: count}, and the step's breakdown."""
    ds = gen_synthetic(GenConfig(), 0)
    rng = np.random.default_rng(0)
    params = init_params(ds.d_in, cfg.hidden, ds.k_classes, rng)
    xb, yb, ub, ib = sample_batches(ds.train_view(), cfg.b, cfg.mu, np.arange(100), rng)
    calls = {attr: counting(monkeypatch, losses, attr) for attr in attrs}
    _, breakdown = trainer.loss_all(params, xb, yb, ub, ib, cfg, rng, epoch)
    return {attr: len(c) for attr, c in calls.items()}, breakdown


@pytest.mark.parametrize("epoch,tau", [(1, 0.3), (3, 0.3), (3, 1.0)],
                         ids=["warmup", "selftrain", "selftrain_zero_mask"])
def test_loss_step_goes_through_the_losses_names(monkeypatch, epoch, tau):
    """Every forward piece and every loss term the tracer wraps is called
    on each step where its weight is on, the pseudo-label term even when
    no weak row is confident."""
    terms = LOSS_TERMS if epoch > 2 else LOSS_TERMS[:-1]
    counts, breakdown = counted_step(monkeypatch, TrainConfig(e_fix=2, tau=tau), epoch, FORWARD_PIECES + LOSS_TERMS)
    assert all(counts[attr] for attr in FORWARD_PIECES), counts
    assert all(counts[attr] == 1 for attr in terms), counts
    assert counts["loss_fixmatch"] == (epoch > 2)
    assert (breakdown.fm_mask_count > 0) == (epoch > 2 and tau < 1.0)


@pytest.mark.parametrize("epoch,passes", [(1, 5), (11, 7)], ids=["warmup", "selftrain"])
def test_extractor_passes_per_step(monkeypatch, epoch, passes):
    """At the default config, a step records an extractor graph node for
    the labeled batch once per head, for the unlabeled batch for L_em and
    once per L_oc view, and in self-training for the pseudo-inlier batch
    once per view. The benchmark counts these nodes through
    losses.feature_extract; the two labeled-batch nodes share one
    computation of the activations."""
    counts, _ = counted_step(monkeypatch, TrainConfig(), epoch, ("feature_extract",))
    assert counts["feature_extract"] == passes


def test_evaluation_goes_through_the_evaluation_names(monkeypatch):
    ds = gen_synthetic(GenConfig(), 0)
    params = init_params(ds.d_in, (8,), ds.k_classes, np.random.default_rng(0))
    calls = {attr: counting(monkeypatch, evaluation, attr) for attr in FORWARD_PIECES}
    trainer.evaluate_params(params, ds.test)
    assert all(calls[attr] for attr in FORWARD_PIECES), {a: len(c) for a, c in calls.items()}


def test_two_block_evaluation_forwards_once_per_block(monkeypatch):
    """A split of one block and a row scores in two forwards: no
    redundant pass over the split on top of the blocks."""
    rng = np.random.default_rng(0)
    params = init_params(3, (8,), 2, rng)
    n = evaluation.score_block_rows(params) + 1
    tag = np.arange(n) % 3
    test = data.Split(rng.normal(size=(n, 3)), np.where(tag == data.TAG_INLIER, 0, -1), tag)
    calls = {attr: counting(monkeypatch, evaluation, attr) for attr in FORWARD_PIECES}
    trainer.evaluate_params(params, test)
    assert {attr: len(c) for attr, c in calls.items()} == {attr: 2 for attr in FORWARD_PIECES}


def test_traced_cli_flow_reports_every_counter(tracer_module, tmp_path):
    """gen-data, train and eval under the installed tracer: no wrap point
    is absent and the counters the report needs are filled."""
    (tmp_path / "gen.spec").write_text("gen_unlabeled_per_outlier = 50\n")
    (tmp_path / "exp.spec").write_text(
        "data_csv = data.csv\nb = 16\ne_fix = 1\ne_max = 2\ni_max = 3\nhidden = 8\neval_every = 1\n"
    )
    tracer = tracer_module.Tracer()
    tracer.install(tracer_module.wrap_points(PKG))
    try:
        assert cli.main(["gen-data", "--config", str(tmp_path / "gen.spec"), "--out", str(tmp_path / "data.csv")]) == 0
        assert cli.main(["train", "--config", str(tmp_path / "exp.spec"), "--out", str(tmp_path / "run")]) == 0
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                         "--data", str(tmp_path / "data.csv"), "--out", str(tmp_path / "ev")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    recorded = {span[0] for span in tracer.spans}
    expected = {name for _, name, _, _, _ in tracer_module.wrap_points(PKG)}
    assert expected - recorded == set()
    metrics = tracer_module.layer_metrics(tracer, tracer.run, 1.0)
    for metric in ("model.extractor_passes_per_step_warmup", "model.extractor_passes_per_step_selftrain",
                   "autodiff.nodes_per_step_warmup", "autodiff.nodes_per_step_selftrain"):
        assert metrics[metric] > 0, metric
    assert metrics["evaluation.test_forward_passes"] == 1


def test_workload_specs_resolve(workloads_module, tmp_path):
    """Every spec a workload writes resolves, and its generator settings
    build and validate: a renamed config field fails here, not only in a
    benchmark run."""
    for w in workloads_module.WORKLOADS.values():
        for train in (w.setup_train, w.train):
            path = tmp_path / f"{w.name}.spec"
            path.write_text(workloads_module.spec_text(w.gen, train, 0), encoding="utf-8")
            cli.resolve_spec(path, out_override=str(tmp_path / "run"))
        for gen in (w.gen, w.csv_gen):
            GenConfig(**gen).validate()


@pytest.mark.parametrize("hidden", [(), (5,), (64, 64)], ids=["depth0", "depth1", "default"])
def test_bench_scorer_reads_checkpoints_as_predict_open(workloads_module, tmp_path, hidden):
    """A renamed or reordered checkpoint array fails here, not only in a
    benchmark run."""
    ds = gen_synthetic(GenConfig(), 0)
    params = init_params(ds.d_in, hidden, ds.k_classes, np.random.default_rng(3))
    save_checkpoint(tmp_path / "m.npz", params)
    labels, scores = workloads_module.forward(tmp_path / "m.npz", ds.test.x)
    pred = evaluation.predict_open(params, ds.test.x)
    np.testing.assert_array_equal(labels, pred.closed_label)
    np.testing.assert_array_equal(scores, 1.0 - pred.inlier_prob)
