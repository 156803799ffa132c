#!/usr/bin/env python3
"""Benchmark for stst; run from the root of a checkout.

    python3 perfbench/run.py --workload {predict,pipeline,theory} --seed N --seconds S --trace {0,1}

Inputs are generated from --seed; the program under test is imported from
./src. With --trace 0 the run prints the end-to-end metrics (setup_s,
peak_rss_mb, task_ref); with --trace 1 a separate run wraps each layer's
public functions in spans and prints the per-layer metrics and the tracing
overhead. The last stdout line is the result object; the line before it
holds the environment and the workload's own detail figures. --size smoke
shrinks every input for a fast check that the metrics are emitted.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
import time

import layers
from common import (
    BLAS_THREAD_VARS, Checks, cpu_count, environment, fresh_import_s, peak_rss_mb, reference_s, timed,
)
from tracer import Tracer

WORKLOADS = ("predict", "pipeline", "theory")
END_TO_END = [("setup_s", "s"), ("peak_rss_mb", "MB"), ("task_ref", "x_ref")]
SETUP_REPEATS = 5
WORK_DIR = ".perfbench_work"


class Context:
    """What a workload gets from the runner."""

    def __init__(self, args, root, workdir, tracer):
        self.seed = args.seed
        self.size = args.size
        self.root = root
        self.workdir = workdir
        self.tracer = tracer
        self.checks = Checks()


def _workload(name: str, ctx: Context):
    if name == "predict":
        from predict import Predict as cls
    elif name == "pipeline":
        from pipeline import Pipeline as cls
    else:
        from theory import Theory as cls
    return cls(ctx)


def _end_to_end(wl, ctx: Context, seconds: float) -> tuple[dict, dict]:
    import stst.cli  # noqa: F401  (in-process imports stay out of the set-up samples)

    setups = [fresh_import_s(ctx.root) + timed(wl.setup) for _ in range(SETUP_REPEATS)]
    passes, refs = [], [reference_s()]
    start = time.perf_counter()
    while len(passes) < wl.min_passes or time.perf_counter() - start < seconds:
        passes.append(wl.task())
        refs.append(reference_s())
    wl.finish()
    # each pass in units of the reference block timed just before and after it
    ratios = [t / ((a + b) / 2) for t, a, b in zip(passes, refs, refs[1:])]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "task_ref": statistics.median(ratios),
    }
    return values, {"setup_s": setups, "task_s": passes, "reference_s": refs}


def _traced(wl, ctx: Context, seconds: float) -> tuple[dict, dict]:
    tracer = ctx.tracer
    untraced, traced = [], []
    with layers.patches(tracer):
        tracer.enabled, tracer.phase = True, "setup"
        try:
            wl.setup()
        finally:
            tracer.enabled = False
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(wl.task())
            tracer.enabled, tracer.phase = True, "task"
            try:
                traced.append(wl.task())
            finally:
                tracer.enabled = False
        wl.finish()
    values = layers.per_layer_metrics(tracer.spans, len(traced))
    for name in layers.WORKLOAD_LAYER_METRICS:
        values[name] = wl.layer_extras.get(name, 0.0)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values["trace.spans"] = len(tracer.spans)
    return values, {"untraced_task_s": untraced, "traced_task_s": traced}


def run(args, root: str, workdir: str) -> tuple[dict, dict]:
    ctx = Context(args, root, workdir, Tracer())
    wl = _workload(args.workload, ctx)
    if args.trace:
        values, samples = _traced(wl, ctx, args.seconds)
        units = [(name, unit) for name, unit, _ in layers.PER_LAYER]
    else:
        values, samples = _end_to_end(wl, ctx, args.seconds)
        units = END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units}
    bad = [name for name, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    checks = ctx.checks
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "samples": samples,
        "detail": wl.detail(),
        "check_failures": checks.failures,
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="input seed (>= 0); 0 is the default seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "stst", "__init__.py")):
        print(f"error: {root} holds no src/stst; run from the root of an stst checkout", file=sys.stderr)
        return 2
    # cap BLAS pools before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cpu_count())
    sys.path.insert(0, os.path.join(root, "src"))

    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, WORK_DIR))
    try:
        result, detail = run(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass  # another run still has its directory there
    detail["env"] = environment()
    for failure in detail["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
