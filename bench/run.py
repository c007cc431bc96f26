#!/usr/bin/env python3
"""Benchmark of the openset-ssl command line: three workloads, timings
guarded by correctness and quality checks, per-layer numbers from an
outside tracer.

Run from the repository root; the package is imported from ./src:

    python3 bench/run.py --workload train_default --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see bench/METRICS.md). Every metric is printed as `name = value unit`;
the last line is one JSON object with keys correct, attempted, failed and
metrics. End-to-end times are given at a fixed reference speed of the
host (see bench/refclock.py); per-layer times are wall-clock. Spans of a
traced run go to .bench_out/.
"""

import os

# Set before numpy loads: the BLAS thread count of every workload process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from refclock import REF_KERNEL_MS, RefClock  # noqa: E402
from tracer import Tracer, layer_metrics, step_intervals, wrap_points  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 5  # set-up runs per benchmark run; setup_s is their median
STEP_POINTS = ("trainer.sample_batches", "trainer.sgd_step")

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "step_ms_p50": "ms", "step_ms_p99": "ms", "peak_rss_mb": "MB",
    "ok_frac": "ratio", "acc_inlier": "ratio", "auroc_unseen": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_ms") or "_ms_" in metric:
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.rsplit(".", 1)[-1] in ("fm_mask_rate", "k_precision", "coverage", "auroc_seen"):
        return "ratio"
    return "count"


def load_package() -> SimpleNamespace:
    if not (SRC / "openset_ssl" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'openset_ssl'}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    names = ("autodiff", "data", "model", "losses", "evaluation", "trainer", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"openset_ssl.{n}") for n in names})


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "openset_ssl").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": blas_threads(),
    }


def checked(check, *args) -> list[str]:
    """Run a check; a check that raises on the program's output has failed."""
    try:
        return check(*args)
    except Exception as e:  # malformed or missing output is a failed check, not a crashed benchmark
        return [f"{check.__name__} raised {e!r}"]


def percentiles(times_ms: list[float]) -> tuple[float, float]:
    """p50 and p99. Below 100 samples a p99 has no sample beyond it, so
    p50 stands in."""
    p50 = float(np.percentile(times_ms, 50))
    return p50, float(np.percentile(times_ms, 99)) if len(times_ms) >= 100 else p50


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    pkg = load_package()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    runner = Runner(WORKLOADS[name], seed, work, pkg, SRC)
    try:
        return measure(runner, pkg, env, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def timed_setup(runner: Runner, ref: RefClock) -> tuple[float, float]:
    """One set-up: (wall seconds, seconds at the reference speed)."""
    start = time.perf_counter()
    runner.setup()
    end = time.perf_counter()
    ref.sample()
    return end - start, ref.ref_s(start, end)


def measure(runner: Runner, pkg, env: dict, seconds: float, trace: bool) -> dict:
    ref = RefClock()
    ref.sample()
    setups = [timed_setup(runner, ref)]
    points = wrap_points(pkg)
    step_points = [p for p in points if p[0] in STEP_POINTS]
    tracer = Tracer()
    # One operation before timing. Peak memory is read after it, because the
    # samples taken inside later operations fragment the heap that the
    # program's large arrays come and go in: on csv_eval they raised the
    # peak by a tenth.
    failures = [checked(runner.check_operation, runner.operation()[3])]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref.sample()
    untraced, traced, layers = [], [], []  # wall seconds, per-layer numbers of traced operations
    run_ref, step_ref, step_wall = [], [], []  # seconds at reference speed, step ms at reference speed, wall

    # Start another operation only if a typical one still fits in the time.
    # The later set-ups go between the first operations, so that they meet
    # the host's slow and fast stretches as the operations do; their time
    # does not count against --seconds.
    start = time.perf_counter()
    while not (untraced and (traced or not trace)) or (
        time.perf_counter() - start - sum(wall for wall, _ in setups[1:]) + median(untraced + traced) <= seconds
    ):
        if untraced and not trace and len(setups) < SETUPS:
            setups.append(timed_setup(runner, ref))
        tracing = trace and len(traced) < len(untraced)
        if tracing:
            tracer.run += 1
            tracer.install(points)
        else:
            clock = Tracer()
            clock.install(step_points)
        try:
            # A traced operation is timed as it runs, with no samples inside it.
            with contextlib.nullcontext() if tracing else ref.sampling():
                op_start, op_end, evals, calls = runner.operation()
        finally:
            (tracer if tracing else clock).uninstall()
        ref.sample()
        failures.append(checked(runner.check_operation, calls))
        if tracing:
            traced.append(op_end - op_start)
            layers.append(layer_metrics(tracer, tracer.run, traced[-1]))
        else:
            untraced.append(op_end - op_start - ref.sampled_s(op_start, op_end))
            run_ref.append(ref.ref_s(op_start, op_end))
            intervals = step_intervals(clock.spans) if runner.w.trains else evals
            step_ref += [ref.ref_s(s, e) * 1e3 for s, e in intervals]
            step_wall += [(e - s - ref.sampled_s(s, e)) * 1e3 for s, e in intervals]
    while not trace and len(setups) < SETUPS:
        setups.append(timed_setup(runner, ref))

    final = checked(runner.check_final) if any(not f for f in failures) else ["no operation succeeded"]
    for problem in final + [p for f in failures for p in f]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    attempted = len(failures)
    failed = attempted if final else sum(1 for f in failures if f)
    quality = runner.quality

    if trace:
        metrics = {key: median(m[key] for m in layers) for key in layers[0] if all(key in m for m in layers)}
        metrics["trace.run_s"] = median(traced)
        metrics["trace.untraced_run_s"] = median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        metrics["evaluation.auroc_seen"] = float(quality.get("auroc_seen", 0.0))
        for point in sorted(tracer.absent):
            print(f"bench: wrap point {point} is absent; its metrics are left out", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{runner.w.name}-seed{runner.seed}.jsonl.gz",
                     {"workload": runner.w.name, "seed": runner.seed, "env": env, "metrics": metrics})
    else:
        step_ref = step_ref or [0.0]  # every operation failed before its first step
        p50, p99 = percentiles(step_ref)
        metrics = {
            "setup_s": median(r for _, r in setups),
            "run_s": median(run_ref),
            "step_ms_p50": p50,
            "step_ms_p99": p99,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
            "acc_inlier": 1.0 - float(quality.get("err_inlier", 1.0)),
            "auroc_unseen": float(quality.get("auroc_unseen", 0.0)),
        }
        wall50, wall99 = percentiles(step_wall or [0.0])
        print(f"samples: {len(untraced)} operations, {len(step_ref)} steps, {len(setups)} set-ups, "
              f"{len(ref.kernel_ms)} reference samples")
        print(f"wall clock: setup {median(w for w, _ in setups):.4g} s, run {median(untraced):.4g} s, "
              f"step p50 {wall50:.4g} ms, p99 {wall99:.4g} ms; reference kernel median "
              f"{median(ref.kernel_ms):.4g} ms against {REF_KERNEL_MS} ms")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in a fresh process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"bench: workload {name} exited with {proc.returncode}")
        print(f"== {name}")
        print("\n".join(line for line in lines[:-1] if " = " not in line))  # metrics are printed merged
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="training seed of the workload")
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat the operation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
