"""Where each layer of stst is wrapped, and the per-layer metrics read from spans.

Span names are "<layer>.<operation>"; the layer is the stst module the
wrapped function lives in. stst.core is left out: its closed forms are O(1)
and sit on no hot path. The CLI layer's spans are opened by the workloads
around each stst.cli.main call.
"""

import inspect
import os
import statistics

from tracer import Patches, self_times

LAYERS = ("predictor", "bench", "data", "trainer", "calibration", "simulator", "cli")

# (name, unit, better) of every per-layer metric a traced run reports.
# "count_ratio" is a ratio of exact counts; "MB_computed" is derived from
# array shapes, not measured.
PER_LAYER = [
    ("predictor.attentive_call_ms", "ms", "lower"),
    ("predictor.attentive_call_p99_ms", "ms", "lower"),
    ("predictor.attentive_terms_per_s", "1/s", "higher"),
    ("predictor.full_call_ms", "ms", "lower"),
    ("predictor.terms_fraction", "count_ratio", "lower"),
    ("predictor.stop_error_rate", "count_ratio", "lower"),
    ("predictor.prefix_s", "s", "lower"),
    ("predictor.prefix_mb", "MB_computed", "lower"),
    ("predictor.scan_s", "s", "lower"),
    ("predictor.batch_useful_ratio", "count_ratio", "higher"),
    ("bench.sweep_s", "s", "lower"),
    ("bench.sweep_point_ms", "ms", "lower"),
    ("bench.sweep_prefix_share", "ratio", "higher"),
    ("bench.pr_s", "s", "lower"),
    ("data.parse_s", "s", "lower"),
    ("data.parse_mb_per_s", "MB/s", "higher"),
    ("data.serialize_s", "s", "lower"),
    ("data.dense_s", "s", "lower"),
    ("data.dense_mb", "MB_computed", "lower"),
    ("trainer.train_s", "s", "lower"),
    ("trainer.sgd_steps_per_s", "1/s", "higher"),
    ("trainer.hinge_s", "s", "lower"),
    ("trainer.test_accuracy", "count_ratio", "higher"),
    ("calibration.calibrate_s", "s", "lower"),
    ("calibration.stop_error_s", "s", "lower"),
    ("calibration.stop_error_calls", "count", "lower"),
    ("simulator.bridge_s", "s", "lower"),
    ("simulator.stop_error_s", "s", "lower"),
    ("simulator.stopping_time_s", "s", "lower"),
    ("simulator.walk_steps", "count", "lower"),
    ("simulator.walk_steps_per_s", "1/s", "higher"),
    ("simulator.stopping_useful_ratio", "count_ratio", "higher"),
    ("cli.train_s", "s", "lower"),
    ("cli.calibrate_s", "s", "lower"),
    ("cli.sweep_s", "s", "lower"),
    ("cli.pr_s", "s", "lower"),
    ("cli.theory_s", "s", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]
# set by the workloads from their own outputs rather than from spans
WORKLOAD_LAYER_METRICS = ("predictor.terms_fraction", "predictor.stop_error_rate", "trainer.test_accuracy")


def _count_attentive(bound, result):
    return {"terms": result.terms_evaluated, "n": bound["model"].n}


def _count_nbytes(bound, result):
    return {"bytes": result.nbytes}


def _count_attentive_scan(bound, result):
    prefix = bound["prefix"]
    return {"terms": sum(p.terms_evaluated for p in result), "cells": prefix.size}


def _count_sweep(bound, result):
    return {"point_ms": [r.wall_time * 1e3 for r in result]}


def _count_file_bytes(bound, result):
    source = bound["source"]
    return {"bytes": os.path.getsize(source)} if isinstance(source, (str, os.PathLike)) else {}


def _count_sgd_steps(bound, result):
    return {"steps": bound["config"].epochs * bound["train"].n_examples}


def _count_walk_steps(bound, result):
    return {"steps": bound["spec"].n * bound["trials"]}


def _count_stopping(bound, result):
    # sum of first-crossing times, exact: mean_time is that sum over trials
    return {"steps": bound["spec"].n * bound["trials"], "stopped": round(result.mean_time * result.trials)}


def _bound_counter(fn, count):
    """Adapt count(bound_arguments, result) to the tracer's (args, kwargs, result)."""
    if count is None:
        return None
    signature = inspect.signature(fn)

    def counter(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return count(bound.arguments, result)

    return counter


def patches(tracer) -> Patches:
    """Traced wrappers at every binding site the workloads reach."""
    from stst import bench, calibration, cli, data, predictor, trainer

    points = [
        (predictor, "attentive_predict", "predictor.attentive", _count_attentive),
        (predictor, "full_predict", "predictor.full", None),
        (cli, "prefix_score_matrix", "predictor.prefix", _count_nbytes),
        (bench, "prefix_score_matrix", "predictor.prefix", _count_nbytes),
        (calibration, "term_matrix", "predictor.term_matrix", None),
        (cli, "attentive_from_prefix", "predictor.scan", _count_attentive_scan),
        (bench, "attentive_from_prefix", "predictor.scan", _count_attentive_scan),
        (cli, "full_from_prefix", "predictor.scan", None),
        (bench, "full_from_prefix", "predictor.scan", None),
        (bench, "budgeted_from_prefix", "predictor.scan", None),
        (cli, "load_model", "predictor.load_model", None),
        (cli, "save_model", "predictor.save_model", None),
        (bench, "run_sweep", "bench.sweep", _count_sweep),
        (bench, "sweep_csv", "bench.sweep_csv", None),
        (bench, "precision_recall", "bench.pr", None),
        (bench, "pr_csv", "bench.pr", None),
        (bench, "run_theory_suite", "bench.theory", None),
        (bench, "theory_csv", "bench.theory_csv", None),
        (bench, "measure_stop_error", "calibration.stop_error", None),
        (calibration, "calibrate", "calibration.calibrate", None),
        (data, "parse_sparse", "data.parse", _count_file_bytes),
        (data, "serialize_sparse", "data.serialize", None),
        (data.Dataset, "dense", "data.dense", _count_nbytes),
        (data.Dataset, "dense_rows", "data.dense", _count_nbytes),
        (data, "split", "data.split", None),
        (data, "generate_synthetic", "data.generate", None),
        (trainer, "train_linear", "trainer.train", _count_sgd_steps),
        (trainer, "hinge_objective", "trainer.hinge", None),
        (bench, "empirical_bridge_crossing_grid", "simulator.bridge", _count_walk_steps),
        (bench, "empirical_stop_error_grid", "simulator.stop_error", _count_walk_steps),
        (bench, "empirical_stopping_time", "simulator.stopping_time", _count_stopping),
    ]
    resolved = []
    for owner, attr, name, count in points:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        resolved.append((owner, attr, name, _bound_counter(fn, count)))
    return Patches(tracer, resolved)


class _Totals:
    """Span sums over one traced set-up plus the mean of the traced passes."""

    def __init__(self, spans, passes: int):
        self.spans = spans
        self.passes = passes

    def _sum(self, name, value) -> float:
        setup = sum(value(s) for s in self.spans if s.name == name and s.phase == "setup")
        task = sum(value(s) for s in self.spans if s.name == name and s.phase != "setup")
        return setup + task / self.passes

    def time(self, *names) -> float:
        return sum(self._sum(name, lambda s: s.duration) for name in names)

    def count(self, name, key) -> float:
        return self._sum(name, lambda s: s.counts.get(key, 0))

    def calls(self, name) -> float:
        return self._sum(name, lambda s: 1)

    def durations(self, name) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _p99(values) -> float:
    return statistics.quantiles(values, n=100)[98] if len(values) >= 100 else 0.0


def per_layer_metrics(spans, passes: int) -> dict:
    """Every per-layer metric; a layer the workload never reaches reads 0."""
    t = _Totals(spans, passes)
    own = self_times(spans)
    self_s = {layer: 0.0 for layer in LAYERS}
    for s, o in zip(spans, own):
        if s.layer in self_s:
            self_s[s.layer] += o if s.phase == "setup" else o / passes

    attentive = t.durations("predictor.attentive")
    sweeps = [i for i, s in enumerate(spans) if s.name == "bench.sweep"]
    sweep_ids = set(sweeps)
    sweep_prefix = sum(s.duration for s in spans if s.name == "predictor.prefix" and s.parent in sweep_ids)
    points = [ms for i in sweeps for ms in spans[i].counts.get("point_ms", [])]
    walk_names = ("simulator.bridge", "simulator.stop_error", "simulator.stopping_time")
    walk_steps = sum(t.count(name, "steps") for name in walk_names)
    stopping_steps = t.count("simulator.stopping_time", "steps")

    m = {
        "predictor.attentive_call_ms": _median(attentive) * 1e3,
        "predictor.attentive_call_p99_ms": _p99(attentive) * 1e3,
        "predictor.attentive_terms_per_s": _ratio(
            sum(s.counts.get("terms", 0) for s in spans if s.name == "predictor.attentive"), sum(attentive)
        ),
        "predictor.full_call_ms": _median(t.durations("predictor.full")) * 1e3,
        "predictor.prefix_s": t.time("predictor.prefix"),
        "predictor.prefix_mb": t.count("predictor.prefix", "bytes") / 1e6,
        "predictor.scan_s": t.time("predictor.scan"),
        "predictor.batch_useful_ratio": _ratio(
            t.count("predictor.scan", "terms"), t.count("predictor.scan", "cells")
        ),
        "bench.sweep_s": t.time("bench.sweep"),
        "bench.sweep_point_ms": _median(points),
        "bench.sweep_prefix_share": _ratio(sweep_prefix, sum(spans[i].duration for i in sweeps)),
        "bench.pr_s": t.time("bench.pr"),
        "data.parse_s": t.time("data.parse"),
        "data.parse_mb_per_s": _ratio(t.count("data.parse", "bytes") / 1e6, t.time("data.parse")),
        "data.serialize_s": t.time("data.serialize"),
        "data.dense_s": t.time("data.dense"),
        "data.dense_mb": t.count("data.dense", "bytes") / 1e6,
        "trainer.train_s": t.time("trainer.train"),
        "trainer.sgd_steps_per_s": _ratio(t.count("trainer.train", "steps"), t.time("trainer.train")),
        "trainer.hinge_s": t.time("trainer.hinge"),
        "calibration.calibrate_s": t.time("calibration.calibrate"),
        "calibration.stop_error_s": t.time("calibration.stop_error"),
        "calibration.stop_error_calls": t.calls("calibration.stop_error"),
        "simulator.bridge_s": t.time("simulator.bridge"),
        "simulator.stop_error_s": t.time("simulator.stop_error"),
        "simulator.stopping_time_s": t.time("simulator.stopping_time"),
        "simulator.walk_steps": walk_steps,
        "simulator.walk_steps_per_s": _ratio(walk_steps, t.time(*walk_names)),
        "simulator.stopping_useful_ratio": _ratio(t.count("simulator.stopping_time", "stopped"), stopping_steps),
        "cli.train_s": t.time("cli.train"),
        "cli.calibrate_s": t.time("cli.calibrate"),
        "cli.sweep_s": t.time("cli.sweep"),
        "cli.pr_s": t.time("cli.pr"),
        "cli.theory_s": t.time("cli.theory"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return m
