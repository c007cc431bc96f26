"""Command line interface: gen-data, train, eval, ablate.

Config files are flat `key = value` text. Keys are the field names of
TrainConfig (augment aside) and AugmentConfig, and of GenConfig with a
gen_ prefix, plus gen_seed; an experiment additionally names out_dir
and exactly one dataset source (data_csv or a gen_* block). An ablation
sets a loss weight to 0 (lam_oc, lam_em, lam_fm) or socr_head = closed.
Unknown keys are rejected. The resolved snapshot written next to the
run artifacts spells out every value, defaults included, and can be fed
back to `train --config` to reproduce the run.

Exit codes: 0 on success, 2 for configuration or validation problems
(a non-finite config number too), 3 for numeric failures in training.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

from .data import TAG_INLIER, TAG_SEEN_OUTLIER, AugmentConfig, Dataset, GenConfig, gen_synthetic, load_csv, save_csv
from .errors import ConfigError, MetricError, NumericError, OpenSetSSLError, ParseError
from .evaluation import evaluate_params, export_histogram, format_metrics_line, write_metrics
from .model import load_checkpoint, save_checkpoint
from .trainer import TrainConfig, TrainHistory, train

AUGMENT_KEYS = tuple(f.name for f in fields(AugmentConfig))
# TrainConfig's own settings; augment is spelled out by AUGMENT_KEYS.
TRAIN_SCALAR_KEYS = tuple(f.name for f in fields(TrainConfig) if f.name != "augment")
TRAIN_KEYS = TRAIN_SCALAR_KEYS + AUGMENT_KEYS
GEN_KEYS = tuple(f"gen_{f.name}" for f in fields(GenConfig)) + ("gen_seed",)


@dataclass
class ExperimentSpec:
    train: TrainConfig
    out_dir: str
    data_csv: str | None
    gen: GenConfig | None
    gen_seed: int


def parse_kv_file(path) -> dict[str, str]:
    """Read `key = value` lines; blank lines and #-comments are skipped."""
    result: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from e
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError(f"{path}:{lineno}: empty key")
        if key in result:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        result[key] = value.strip()
    return result


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as e:
        raise ParseError(f"key {key}: expected an integer, got {value!r}") from e


def _parse_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError as e:
        raise ParseError(f"key {key}: expected a number, got {value!r}") from e
    if not math.isfinite(number):
        raise ParseError(f"key {key}: expected a finite number, got {value!r}")
    return number


def _parse_hidden(key: str, value: str) -> tuple[int, ...]:
    if not value:
        return ()
    try:
        return tuple(int(part.strip()) for part in value.split(","))
    except ValueError as e:
        raise ParseError(f"key {key}: expected comma-separated integers, got {value!r}") from e


_PARSERS = {int: _parse_int, float: _parse_float, str: lambda key, value: value, tuple[int, ...]: _parse_hidden}


def _parsed_fields(cls, kv: dict[str, str], prefix: str = "") -> dict:
    """Field name -> value parsed by the field's annotated type, for each
    field of the dataclass cls whose prefixed name is a key of kv."""
    types = get_type_hints(cls)
    return {f.name: _PARSERS[types[f.name]](prefix + f.name, kv[prefix + f.name])
            for f in fields(cls) if prefix + f.name in kv}


def _build_train_config(kv: dict[str, str]) -> TrainConfig:
    cfg = TrainConfig()
    updates = _parsed_fields(TrainConfig, kv)
    augment = _parsed_fields(AugmentConfig, kv)
    if augment:
        updates["augment"] = replace(cfg.augment, **augment)
    return replace(cfg, **updates)


def _build_gen_config(kv: dict[str, str]) -> GenConfig:
    return replace(GenConfig(), **_parsed_fields(GenConfig, kv, prefix="gen_"))


def _gen_seed(kv: dict[str, str], override: int | None = None) -> int:
    """The generator seed: override, else the gen_seed key, else 0."""
    seed = override if override is not None else (_parse_int("gen_seed", kv["gen_seed"]) if "gen_seed" in kv else 0)
    if seed < 0:
        raise ConfigError(f"gen_seed must be >= 0, got {seed}")
    return seed


def resolve_spec(path, seed_override: int | None = None, out_override: str | None = None) -> ExperimentSpec:
    """Load an experiment file, fill in defaults, and validate."""
    kv = parse_kv_file(path)
    known = set(TRAIN_KEYS) | set(GEN_KEYS) | {"out_dir", "data_csv"}
    unknown = sorted(set(kv) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    base = Path(path).resolve().parent
    gen_keys_present = [k for k in kv if k in GEN_KEYS]
    data_csv = kv.get("data_csv")
    if data_csv and gen_keys_present:
        raise ConfigError("specify exactly one dataset source: data_csv or gen_* keys, not both")
    if not data_csv and not gen_keys_present:
        raise ConfigError("specify a dataset source: data_csv or gen_* keys")
    out_dir = out_override if out_override is not None else kv.get("out_dir")
    if not out_dir:
        raise ConfigError("out_dir is required (in the config or via --out)")

    train_cfg = _build_train_config({k: v for k, v in kv.items() if k in TRAIN_KEYS})
    if seed_override is not None:
        train_cfg = replace(train_cfg, seed=seed_override)
    train_cfg.validate()

    gen_cfg = None
    gen_seed = _gen_seed(kv)
    if gen_keys_present:
        gen_cfg = _build_gen_config(kv)
        gen_cfg.validate()

    return ExperimentSpec(
        train=train_cfg,
        out_dir=str(out_dir),
        data_csv=str((base / data_csv).resolve()) if data_csv else None,
        gen=gen_cfg,
        gen_seed=gen_seed,
    )


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def snapshot_pairs(spec: ExperimentSpec) -> list[tuple[str, str]]:
    """Every setting the run used, defaults spelled out, as ordered
    (key, value) pairs."""
    values = [("out_dir", spec.out_dir)]
    if spec.data_csv is not None:
        values.append(("data_csv", spec.data_csv))
    else:
        values += [(f"gen_{f.name}", getattr(spec.gen, f.name)) for f in fields(GenConfig)]
        values.append(("gen_seed", spec.gen_seed))
    values += [(key, getattr(spec.train, key)) for key in TRAIN_SCALAR_KEYS]
    values += [(key, getattr(spec.train.augment, key)) for key in AUGMENT_KEYS]
    return [(key, _format_value(value)) for key, value in values]


def snapshot_text(spec: ExperimentSpec) -> str:
    """The snapshot as `key = value` lines; train --config reads it back."""
    return _kv_text(snapshot_pairs(spec))


def _kv_text(pairs: list[tuple[str, str]]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def load_spec_dataset(spec: ExperimentSpec, config_path, command: str = "train") -> Dataset:
    """The spec's dataset, refused when the command cannot use it: ablate
    also needs a seen outlier in the test split. The error names the CSV,
    or the spec and the gen_ keys that shaped the data."""
    dataset = load_csv(spec.data_csv) if spec.data_csv is not None else gen_synthetic(spec.gen, spec.gen_seed)
    for unusable, problem, keys in (
        (dataset.k_classes < 2, "fewer than 2 classes", "gen_k_classes"),
        (len(dataset.unlabeled) == 0, "an empty unlabeled split",
         "gen_train_per_class, gen_labels_per_class, gen_unlabeled_per_outlier"),
        (not (dataset.test.tag == TAG_INLIER).any(), "no inlier in the test split", "gen_test_per_class"),
        (command == "ablate" and not (dataset.test.tag == TAG_SEEN_OUTLIER).any(),
         "no seen outlier in the test split", "gen_n_seen_outlier, gen_test_per_outlier"),
    ):
        if unusable:
            source = spec.data_csv if spec.data_csv is not None else f"{config_path}: {keys}"
            raise ConfigError(f"{source}: {command} cannot use a dataset with {problem}")
    return dataset


def _train_and_save(spec: ExperimentSpec, dataset: Dataset, out_dir: Path) -> TrainHistory:
    out_dir.mkdir(parents=True, exist_ok=True)
    history = train(dataset, spec.train)
    pairs = snapshot_pairs(replace(spec, out_dir=str(out_dir)))
    (out_dir / "resolved.spec").write_text(_kv_text(pairs))
    save_checkpoint(out_dir / "checkpoint.npz", history.final_params, config=dict(pairs))
    write_metrics(out_dir / "metrics.txt", history.records)
    return history


def cmd_gen_data(args) -> int:
    kv = parse_kv_file(args.config)
    unknown = sorted(set(kv) - set(GEN_KEYS))
    if unknown:
        raise ConfigError(f"unknown generator keys: {', '.join(unknown)}")
    cfg = _build_gen_config(kv)
    cfg.validate()
    seed = _gen_seed(kv, args.seed)
    ds = gen_synthetic(cfg, seed)
    save_csv(ds, args.out)
    print(f"wrote {args.out}: labeled={len(ds.labeled)} unlabeled={len(ds.unlabeled)} test={len(ds.test)}")
    return 0


def cmd_train(args) -> int:
    spec = resolve_spec(args.config, seed_override=args.seed, out_override=args.out)
    dataset = load_spec_dataset(spec, args.config)
    history = _train_and_save(spec, dataset, Path(spec.out_dir))
    final = history.records[-1]
    print(f"trained {spec.train.e_max * spec.train.i_max} steps; final: err_inlier={final.err_inlier:.4f} "
          f"auroc_seen={_fmt_opt(final.auroc_seen)} auroc_unseen={_fmt_opt(final.auroc_unseen)}")
    print(f"artifacts in {spec.out_dir}: checkpoint.npz metrics.txt resolved.spec")
    return 0


def _fmt_opt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def cmd_eval(args) -> int:
    if args.bins < 1:
        raise ConfigError(f"bins must be >= 1, got {args.bins}")
    params, _ = load_checkpoint(args.checkpoint)
    dataset = load_csv(args.data)
    if dataset.d_in != params.d_in:
        raise ConfigError(f"{args.data}: dimension mismatch: checkpoint expects d_in={params.d_in}, "
                          f"data has {dataset.d_in}")
    if dataset.k_classes != params.k_classes:
        raise ConfigError(f"{args.data}: class count mismatch: checkpoint expects k={params.k_classes}, "
                          f"data has {dataset.k_classes}")
    try:
        result = evaluate_params(params, dataset.test)
    except (MetricError, NumericError) as e:  # bad test rows are a data problem here
        raise MetricError(f"{args.data}: test split: {e}") from e
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    line = format_metrics_line(result, keys=("err_inlier", "auroc_seen", "auroc_unseen"))
    (out_dir / "eval.txt").write_text(line + "\n")
    export_histogram(result.scores, result.is_outlier, args.bins, out_dir / "histogram.csv")
    print(line)
    return 0


def cmd_ablate(args) -> int:
    """Train the consistency term on and off under one seed, pseudo-label
    loss disabled in both runs, and report the AUROC pair."""
    spec = resolve_spec(args.config, seed_override=args.seed, out_override=args.out)
    if spec.train.lam_oc == 0.0:
        raise ConfigError(f"{args.config}: lam_oc = 0 leaves ablate nothing to compare; it needs lam_oc > 0")
    dataset = load_spec_dataset(spec, args.config, "ablate")
    out_dir = Path(spec.out_dir)
    rows = []
    for name, lam_oc in (("with_socr", spec.train.lam_oc), ("without_socr", 0.0)):
        variant = replace(spec, train=replace(spec.train, lam_oc=lam_oc, lam_fm=0.0))
        history = _train_and_save(variant, dataset, out_dir / name)
        rows.append((name, spec.train.seed, lam_oc, history.records[-1].auroc_seen))
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "ablation.csv", "w") as fh:
        fh.write("variant,seed,lam_oc,auroc_seen\n")
        for name, seed, lam_oc, score in rows:
            fh.write(f"{name},{seed},{repr(lam_oc)},{repr(score)}\n")
    for name, seed, lam_oc, score in rows:
        print(f"{name}: seed={seed} lam_oc={lam_oc} auroc_seen={score:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="openset-ssl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    p.add_argument("--config", required=True, help="generator config (gen_* keys)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seed", type=int, default=None, help="override gen_seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model from an experiment spec")
    p.add_argument("--config", required=True, help="experiment spec file")
    p.add_argument("--out", default=None, help="override out_dir")
    p.add_argument("--seed", type=int, default=None, help="override the training seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset CSV with a test split")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--bins", type=int, default=20, help="histogram bin count")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="compare training with and without the consistency term")
    p.add_argument("--config", required=True, help="experiment spec file")
    p.add_argument("--out", default=None, help="override out_dir")
    p.add_argument("--seed", type=int, default=None, help="override the training seed")
    p.set_defaults(func=cmd_ablate)
    return parser


# glibc keeps free heap resident up to twice the largest array freed so far,
# how much of it by heap layout; main returns it after each command.
try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OpenSetSSLError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if _malloc_trim is not None:
            _malloc_trim(0)


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
