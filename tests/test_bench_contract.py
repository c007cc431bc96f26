"""The names the benchmark's outside tracer wraps must stay where it
looks them up.

bench/tracer.py replaces module and class attributes with timing
wrappers and leaves out every per-layer metric whose wrap point is gone.
These tests read that file, without changing it, and check that every
wrap point exists and that the callers really go through the wrapped
names: a loss that stops calling `losses.feature_extract`, say, would
silently drop the extractor-pass counters from the report.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from openset_ssl import autodiff, cli, data, evaluation, losses, model, trainer
from openset_ssl.data import GenConfig, gen_synthetic, sample_batches
from openset_ssl.model import init_params
from openset_ssl.trainer import TrainConfig

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
PKG = SimpleNamespace(autodiff=autodiff, data=data, model=model, losses=losses,
                      evaluation=evaluation, trainer=trainer, cli=cli)
FORWARD_PIECES = ("feature_extract", "classify_closed", "ova_probs")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


@pytest.mark.parametrize("epoch", [1, 3], ids=["warmup", "selftrain"])
def test_loss_step_goes_through_the_losses_names(monkeypatch, epoch):
    ds = gen_synthetic(GenConfig(), 0)
    view = ds.train_view()
    cfg = TrainConfig(e_fix=2, tau=0.3)
    rng = np.random.default_rng(0)
    params = init_params(ds.d_in, cfg.hidden, ds.k_classes, rng)
    xb, yb, ub, ib = sample_batches(view, cfg.b, cfg.mu, np.arange(100), rng)
    calls = {attr: counting(monkeypatch, losses, attr) for attr in FORWARD_PIECES}
    trainer.loss_all(params, xb, yb, ub, ib, cfg, rng, epoch)
    assert all(calls[attr] for attr in FORWARD_PIECES), {a: len(c) for a, c in calls.items()}


def test_evaluation_goes_through_the_evaluation_names(monkeypatch):
    ds = gen_synthetic(GenConfig(), 0)
    params = init_params(ds.d_in, (8,), ds.k_classes, np.random.default_rng(0))
    calls = {attr: counting(monkeypatch, evaluation, attr) for attr in FORWARD_PIECES}
    trainer.evaluate_params(params, ds.test)
    assert all(calls[attr] for attr in FORWARD_PIECES), {a: len(c) for a, c in calls.items()}


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
