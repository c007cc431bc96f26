"""Outside tracer: spans recorded around the program's public names.

The tracer never edits the program. It replaces a module attribute (or a
class attribute) with a wrapper that records a span, and puts the
original back afterwards. A wrapper must sit where the caller looks the
name up: `from .losses import loss_all` binds a copy in the trainer's
namespace, so the training step is traced through `trainer.loss_all`,
not `losses.loss_all`.

A span is `[name, start, end, parent, run]`: perf_counter seconds, the
index of the enclosing span (-1 at the top) and the run id. Spans stay in
memory until the benchmark writes them out. The first part of a span
name is its layer. Work the benchmark itself does inside a traced run
(counting graph nodes, say) is recorded under the layer `bench`, so it is
charged neither to the program's layers nor to their parents.

A wrap point that no longer exists is recorded as absent, and every
metric that needs it is left out of the report instead of failing.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from statistics import median

import numpy as np

BENCH_LAYER = "bench"
LAYERS = ("cli", "data", "model", "losses", "autodiff", "trainer", "evaluation")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self.absent: set[str] = set()
        self.notes: dict[str, list] = defaultdict(list)  # what the hooks saw
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, point: str, name: str, fn, after=None):
        """fn with a span around each call. after(tracer, result, args)
        runs once the span has closed, under a bench span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1], self.run]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None and point not in self.absent:
                hook = [f"{BENCH_LAYER}.hook", clock(), 0.0, stack[-1], self.run]
                spans.append(hook)
                try:
                    after(self, result, args)
                except Exception as e:  # the program changed shape; drop the counter, keep running
                    print(f"bench: counter at {point} disabled: {e!r}", file=sys.stderr)
                    self.absent.add(point)
                hook[2] = clock()
            return result

        return traced

    def install(self, points) -> None:
        """points: (point id, span name, owner, attribute, hook or None)."""
        for point, name, owner, attr, after in points:
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.add(point)
                continue
            self._undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(point, name, original, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def note(self, kind: str, **values) -> None:
        values["run"] = self.run
        self.notes[kind].append(values)

    def write(self, path, header: dict) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def count_nodes(root) -> int:
    """Tensors reachable from root through _parents, root included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _after_loss_all(tracer, result, args):
    total, breakdown = result
    i_batch, config, epoch = args[4], args[5], args[7]
    selftrain = epoch > config.e_fix
    fm_on = selftrain and config.lam_fm > 0.0
    tracer.note(
        "steps",
        nodes=count_nodes(total),
        selftrain=selftrain,
        fm_mask=breakdown.fm_mask_count if fm_on else 0,
        fm_rows=len(i_batch) if fm_on else 0,
    )


def _after_select(tracer, result, args):
    tracer.note("selections", index=np.asarray(result))


def wrap_points(pkg):
    """Where each layer's public names are looked up by their callers.

    pkg holds the package modules by name. A point id names the attribute
    that is replaced.
    """
    cli, trainer, losses, evaluation = pkg.cli, pkg.trainer, pkg.losses, pkg.evaluation

    def after_train(tracer, result, args):
        # The hidden tags of the unlabeled split, for k_precision.
        tracer.note("tags", inlier=args[0].unlabeled.tag == pkg.data.TAG_INLIER)

    table = [
        ("cli.main", "cli.main", cli, "main", None),
        ("cli.gen_synthetic", "data.gen_synthetic", cli, "gen_synthetic", None),
        ("cli.save_csv", "data.save_csv", cli, "save_csv", None),
        ("cli.load_csv", "data.load_csv", cli, "load_csv", None),
        ("trainer.sample_batches", "data.sample_batches", trainer, "sample_batches", None),
        ("cli.train", "trainer.train", cli, "train", after_train),
        ("trainer.sgd_step", "trainer.sgd_step", trainer, "sgd_step", None),
        ("trainer.select_pseudo_inliers", "trainer.select", trainer, "select_pseudo_inliers", _after_select),
        ("trainer.init_params", "model.init_params", trainer, "init_params", None),
        ("trainer.predict_open", "model.predict_open", trainer, "predict_open", None),
        ("cli.save_checkpoint", "model.save_checkpoint", cli, "save_checkpoint", None),
        ("cli.load_checkpoint", "model.load_checkpoint", cli, "load_checkpoint", None),
        ("trainer.loss_all", "losses.forward", trainer, "loss_all", _after_loss_all),
        ("losses.loss_cls", "losses.cls", losses, "loss_cls", None),
        ("losses.loss_ova", "losses.ova", losses, "loss_ova", None),
        ("losses.loss_em", "losses.em", losses, "loss_em", None),
        ("losses.loss_socr", "losses.socr", losses, "loss_socr", None),
        ("losses.loss_fixmatch", "losses.fixmatch", losses, "loss_fixmatch", None),
        ("Tensor.backward", "autodiff.backward", pkg.autodiff.Tensor, "backward", None),
        ("trainer.evaluate_params", "evaluation.evaluate_params", trainer, "evaluate_params", None),
        ("cli.evaluate_params", "evaluation.evaluate_params", cli, "evaluate_params", None),
        ("evaluation.anomaly_scores", "evaluation.anomaly_scores", evaluation, "anomaly_scores", None),
        ("evaluation.error_rate_inliers", "evaluation.error_rate", evaluation, "error_rate_inliers", None),
        ("evaluation.auroc", "evaluation.auroc", evaluation, "auroc", None),
        ("cli.export_histogram", "evaluation.export_histogram", cli, "export_histogram", None),
        ("cli.write_metrics", "evaluation.write_metrics", cli, "write_metrics", None),
    ]
    # The model's forward pieces, wherever the losses and the evaluation look them up.
    for owner in (losses, evaluation):
        for attr in ("feature_extract", "classify_closed", "ova_probs"):
            table.append((f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}", f"model.{attr}", owner, attr, None))
    return table


# Per-call mean of inclusive span time (ms), and the wrap points it needs.
PER_CALL_MS = {
    "autodiff.backward_ms": ("autodiff.backward", "Tensor.backward"),
    "losses.forward_ms": ("losses.forward", "trainer.loss_all"),
    "losses.cls_ms": ("losses.cls", "losses.loss_cls"),
    "losses.ova_ms": ("losses.ova", "losses.loss_ova"),
    "losses.em_ms": ("losses.em", "losses.loss_em"),
    "losses.socr_ms": ("losses.socr", "losses.loss_socr"),
    "losses.fixmatch_ms": ("losses.fixmatch", "losses.loss_fixmatch"),
    "model.predict_open_ms": ("model.predict_open", "trainer.predict_open"),
    "model.save_checkpoint_ms": ("model.save_checkpoint", "cli.save_checkpoint"),
    "model.load_checkpoint_ms": ("model.load_checkpoint", "cli.load_checkpoint"),
    "data.sample_batches_ms": ("data.sample_batches", "trainer.sample_batches"),
    "data.gen_synthetic_ms": ("data.gen_synthetic", "cli.gen_synthetic"),
    "data.save_csv_ms": ("data.save_csv", "cli.save_csv"),
    "data.load_csv_ms": ("data.load_csv", "cli.load_csv"),
    "trainer.sgd_step_ms": ("trainer.sgd_step", "trainer.sgd_step"),
    "trainer.select_ms": ("trainer.select", "trainer.select_pseudo_inliers"),
    "evaluation.evaluate_params_ms": ("evaluation.evaluate_params", "cli.evaluate_params"),
    "evaluation.anomaly_scores_ms": ("evaluation.anomaly_scores", "evaluation.anomaly_scores"),
    "evaluation.auroc_ms": ("evaluation.auroc", "evaluation.auroc"),
    "evaluation.export_histogram_ms": ("evaluation.export_histogram", "cli.export_histogram"),
}

# Counters and the wrap points they need.
COUNTER_POINTS = {
    "autodiff.nodes_per_step": ("trainer.loss_all",),
    "autodiff.nodes_per_step_warmup": ("trainer.loss_all",),
    "autodiff.nodes_per_step_selftrain": ("trainer.loss_all",),
    "model.extractor_passes_per_step": ("trainer.loss_all", "losses.feature_extract"),
    "model.extractor_passes_per_step_warmup": ("trainer.loss_all", "losses.feature_extract"),
    "model.extractor_passes_per_step_selftrain": ("trainer.loss_all", "losses.feature_extract"),
    "losses.fm_mask_rate": ("trainer.loss_all",),
    "evaluation.test_forward_passes": ("evaluation.feature_extract",),
    "trainer.step_ms_warmup_p50": ("trainer.sample_batches", "trainer.sgd_step", "trainer.loss_all"),
    "trainer.step_ms_selftrain_p50": ("trainer.sample_batches", "trainer.sgd_step", "trainer.loss_all"),
    "trainer.k_size": ("trainer.select_pseudo_inliers",),
    "trainer.k_precision": ("trainer.select_pseudo_inliers", "cli.train"),
}


def step_intervals(spans) -> list[tuple[float, float]]:
    """(start, end) of each step. One step runs from a data.sample_batches
    call to the return of the next trainer.sgd_step."""
    out, start = [], None
    for name, s, e, _, _ in spans:
        if name == "data.sample_batches":
            start = s
        elif name == "trainer.sgd_step" and start is not None:
            out.append((start, e))
            start = None
    return out


def step_times_ms(spans) -> list[float]:
    return [(e - s) * 1e3 for s, e in step_intervals(spans)]


def layer_metrics(tracer: Tracer, run: int, run_s: float) -> dict[str, float]:
    """Per-layer numbers for one traced run of a workload's operation."""
    index = [i for i, s in enumerate(tracer.spans) if s[4] == run]
    spans = tracer.spans
    child: Counter = Counter()
    total: Counter = Counter()
    calls: Counter = Counter()
    for i in index:
        name, s, e, parent, _ = spans[i]
        total[name] += e - s
        calls[name] += 1
        if parent >= 0:
            child[parent] += e - s
    self_s: Counter = Counter()
    for i in index:
        name, s, e, _, _ = spans[i]
        layer = name.split(".", 1)[0]
        if layer != BENCH_LAYER:
            self_s[layer] += e - s - child[i]

    m: dict[str, float] = {f"{layer}.self_ms": self_s[layer] * 1e3 for layer in LAYERS}
    for metric, (name, _) in PER_CALL_MS.items():
        m[metric] = total[name] / calls[name] * 1e3 if calls[name] else 0.0

    def enclosing(i: int, target: str) -> int:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == target:
                return parent
            parent = spans[parent][3]
        return -1

    passes: Counter = Counter()
    eval_passes = 0
    for i in index:
        if spans[i][0] != "model.feature_extract":
            continue
        step = enclosing(i, "losses.forward")
        if step >= 0:
            passes[step] += 1
        elif enclosing(i, "evaluation.evaluate_params") >= 0:
            eval_passes += 1
    step_spans = [i for i in index if spans[i][0] == "losses.forward"]
    steps = [s for s in tracer.notes["steps"] if s["run"] == run]
    phase = [s["selftrain"] for s in steps] if len(steps) == len(step_spans) else []

    def by_phase(values, selftrain):
        return [v for v, st in zip(values, phase) if st == selftrain]

    step_passes = [passes[i] for i in step_spans]
    nodes = [s["nodes"] for s in steps]
    m["model.extractor_passes_per_step"] = _mean(step_passes)
    m["model.extractor_passes_per_step_warmup"] = _mean(by_phase(step_passes, False))
    m["model.extractor_passes_per_step_selftrain"] = _mean(by_phase(step_passes, True))
    m["autodiff.nodes_per_step"] = _mean(nodes)
    m["autodiff.nodes_per_step_warmup"] = _mean(by_phase(nodes, False))
    m["autodiff.nodes_per_step_selftrain"] = _mean(by_phase(nodes, True))
    rows = sum(s["fm_rows"] for s in steps)
    m["losses.fm_mask_rate"] = sum(s["fm_mask"] for s in steps) / rows if rows else 0.0
    evaluations = calls["evaluation.evaluate_params"]
    m["evaluation.test_forward_passes"] = eval_passes / evaluations if evaluations else 0.0

    step_ms = step_times_ms(spans[i] for i in index)
    if len(step_ms) != len(phase):
        phase = []
    m["trainer.step_ms_warmup_p50"] = _median(by_phase(step_ms, False))
    m["trainer.step_ms_selftrain_p50"] = _median(by_phase(step_ms, True))

    selections = [s["index"] for s in tracer.notes["selections"] if s["run"] == run]
    tags = [s["inlier"] for s in tracer.notes["tags"] if s["run"] == run]
    chosen = selections[-1] if selections else np.empty(0, dtype=np.int64)
    m["trainer.k_size"] = float(len(chosen))
    m["trainer.k_precision"] = float(np.mean(tags[-1][chosen])) if tags and len(chosen) else 0.0

    m["trace.coverage"] = sum(self_s[layer] for layer in LAYERS) / run_s
    m["trace.spans_per_run"] = float(len(index))

    gone = tracer.absent
    for metric, (_, point) in PER_CALL_MS.items():
        if point in gone:
            del m[metric]
    for metric, points in COUNTER_POINTS.items():
        if any(p in gone for p in points):
            del m[metric]
    return m


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _median(values) -> float:
    return float(median(values)) if values else 0.0
