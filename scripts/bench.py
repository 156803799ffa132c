#!/usr/bin/env python3
"""Layer benchmark of stst at fixed sizes and seeds.

Times one call at a time on generated models and data, and writes the
medians as one labelled row of a BENCH_*.json file (a row with the same
label is replaced, other rows are kept):

    python scripts/bench.py --label change --out BENCH_9.json
    python scripts/bench.py --label parent --src ../parent/src --out BENCH_9.json

Every result row is declared once, with a comment on what it measures.
_rows() yields them in the order they are written, each a Row: a call
timed in this process on inputs built just before it, one call at a time.
FRESH declares what is measured in fresh child interpreters instead, each
Fresh row run by name through the one child entry point _run: the peak
resident set (peak_rss_mb) of one call of a row timed here, and the rows
that need a cold or altered interpreter. The children all run first,
while this process is small (see _child). Times are medians and quartiles
in ms, over LAYER_REPEATS calls unless a row says otherwise.

Only readings of one run compare safely: a row beside its "numpy
reference" row, or a cold row's first call beside its warm_median_ms. A
parent run and a change run read each row at different times, and the
host drifts between them, so a row that reaches no changed code can still
move from one run to the other.
"""

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import warnings
from collections.abc import Callable, Sequence
from functools import partial
from pathlib import Path
from typing import NamedTuple
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
COORDINATE_N = (1000, 4000, 16000, 64000)
RBF_N = (500, 2000, 8000)
RBF_DIM = 64
RBF_WIDTHS = ((RBF_DIM, 2_000), (784, 2_000), (5_000, 500))  # (dim, n) of the RBF distance rows
RBF_BATCH_M = 256
EXAMPLES = 16
CROSSING_ROWS = ("coordinate n=1000", "rbf n=2000")
REPEATS = 5
SEED = 20_240_004
BATCH_M, BATCH_N = 10_000, 1_000
SWEEP_SIZES = ((2_000, 200), (10_000, 1_000))
SWEEP_REPEATS = 3
EXHAUSTIVE_LIMIT_S = 120
LAYER_M, LAYER_DIM, LAYER_DENSITY = 4_000, 2_000, 0.02
LAYER_REPEATS = 3
MAPPED_EVERY = 64
TERM_M, TERM_N = 2_000, 2_000
CAL_N, CAL_DIM, CAL_ROWS = 4_000, 64, 500
WALK_N, WALK_TRIALS = 1_000, 16_384
BRIDGE_N = 2_000
STOPPING_N, STOPPING_TRIALS = 10_000, 10_000
PIPELINE_M, PIPELINE_DIM, PIPELINE_DENSITY = 3_000, 2_000, 0.02
PIPELINE_SEED = 20_240_008
THEORY_SEED = 20_240_001  # the pinned TheoryConfig base seed
COLD_IMPORTS = 20

# Row names shared by _rows() and FRESH. scipy.sparse.random stores exactly
# round(density * m * n) entries, the nnz of each generated data set.
LAYER = f"{LAYER_M}x{LAYER_DIM}"
LAYER_NNZ = f"{LAYER} nnz={round(LAYER_DENSITY * LAYER_M * LAYER_DIM)}"
SWEEP = "run_sweep grid={} m={} n={}".format
CALIBRATE = f"calibrate {{}} rbf n={CAL_N} dim={CAL_DIM} rows={CAL_ROWS}".format
PIPELINE_NNZ = round(PIPELINE_DENSITY * PIPELINE_M * PIPELINE_DIM)
PIPELINE = f"cli pipeline train-calibrate-sweep-pr {PIPELINE_M}x{PIPELINE_DIM} nnz={PIPELINE_NNZ}"
THEORY = f"cli theory default config seed={THEORY_SEED}"
THEORY_ARGV = ["theory", "--seed", str(THEORY_SEED), "-o"]  # and the output path
STOPPING = f"walk engine empirical_stopping_time rademacher n={STOPPING_N} trials={STOPPING_TRIALS}"
RBF_COLD = "rbf n={1} dim={0} full cold first call".format(*RBF_WIDTHS[0])


def _models():
    import numpy as np

    from stst import predictor

    rng = np.random.default_rng(SEED)
    for n in COORDINATE_N:
        model = predictor.coordinate_model(
            rng.standard_normal(n), mu=0.1 * rng.standard_normal(n), indices=rng.permutation(n), dim=n
        )
        yield f"coordinate n={n}", model, rng.standard_normal((EXAMPLES, n))
    for n in RBF_N:
        yield f"rbf n={n}", _rbf_model(rng, RBF_DIM, n), rng.standard_normal((EXAMPLES, RBF_DIM))


def _rbf_model(rng, dim: int, n: int):
    """An RBF model of n standard normal support vectors of dimension dim, sigma sqrt(dim)."""
    from stst import predictor

    return predictor.kernel_model(
        rng.standard_normal(n),
        rng.standard_normal((n, dim)),
        predictor.KernelSpec.rbf(math.sqrt(dim)),
        mu=0.1 * rng.standard_normal(n),
    )


def _cold(prepare: Callable) -> Callable:
    """prepare(work) with an empty build cache, so that the first call
    compiles the helper the row reaches."""

    def cold(work: str):
        os.environ["XDG_CACHE_HOME"] = tempfile.mkdtemp(dir=work)
        return prepare(work)

    return cold


def _switched_off(module, accessor: str):
    """A patch that makes module.<accessor>, a compiled helper's accessor,
    return None: the path taken without a C compiler. create=True, since a
    parent source tree measured by this script may predate the helper."""
    return mock.patch.object(module, accessor, lambda: None, create=True)


def _rbf_full(work: str):
    """full_predict of the first RBF_WIDTHS model on one example. Under
    _cold its first call compiles the RBF distance kernel (on a source tree
    without it, the first call imports scipy.spatial instead)."""
    import numpy as np

    from stst import predictor

    rng = np.random.default_rng(SEED + 5)
    model = _rbf_model(rng, *RBF_WIDTHS[0])
    return partial(predictor.full_predict, model, rng.standard_normal(RBF_DIM))


def _sweep_inputs(rng, m: int, n: int):
    """A coordinate model with nonzero mu and a dense test set labelled by it plus noise."""
    import numpy as np

    from stst import data, predictor

    weights = rng.standard_normal(n) / math.sqrt(n)
    model = predictor.coordinate_model(weights, mu=0.1 * rng.standard_normal(n), dim=n)
    X = rng.standard_normal((m, n))
    y = np.where(X @ weights + 0.3 * rng.standard_normal(m) >= 0.0, 1, -1)
    return model, data.Dataset(X=X, y=y)


def _sparse_dataset(rng, m: int, dim: int, density: float, noise: float):
    """CSR dataset labelled by a planted direction plus noise of that scale
    (noise 0 adds +0.0 to each score, which leaves every label as it is)."""
    import numpy as np
    from scipy import sparse

    from stst import data

    X = sparse.random(m, dim, density=density, format="csr", random_state=rng, data_rvs=rng.standard_normal)
    y = np.where(X @ rng.standard_normal(dim) + noise * rng.standard_normal(m) >= 0.0, 1, -1)
    return data.Dataset(X=X, y=y)


def _layer_dataset(rng):
    return _sparse_dataset(rng, LAYER_M, LAYER_DIM, LAYER_DENSITY, 0.3)


def _calibrate_inputs():
    """An RBF model of CAL_N terms and CAL_ROWS rows of class +1."""
    import numpy as np

    from stst import data, predictor

    rng = np.random.default_rng(SEED + 4)
    model = predictor.kernel_model(
        rng.standard_normal(CAL_N),
        rng.standard_normal((CAL_N, CAL_DIM)),
        predictor.KernelSpec.rbf(math.sqrt(CAL_DIM)),
    )
    return model, data.Dataset(X=rng.standard_normal((CAL_ROWS, CAL_DIM)), y=[1] * CAL_ROWS)


def _run_cli(argv: list[str]) -> None:
    from stst import cli

    if cli.main(argv) != 0:
        raise RuntimeError(f"stst {argv[0]} failed")


def _write_pipeline(work: str) -> None:
    """The pipeline's sparse text file, work/pipeline.txt."""
    import numpy as np

    from stst import data

    dataset = _sparse_dataset(np.random.default_rng(PIPELINE_SEED), PIPELINE_M, PIPELINE_DIM, PIPELINE_DENSITY, 0.0)
    data.serialize_sparse(dataset, os.path.join(work, "pipeline.txt"))


def _pipeline(work: str) -> None:
    """train -> calibrate -> sweep -> pr through the CLI on work/pipeline.txt,
    into a fresh directory."""
    import csv

    import numpy as np

    from stst.core import ConfidenceParams, Direction, make_stopping_rule
    from stst.predictor import load_model

    with tempfile.TemporaryDirectory() as out:
        p = lambda name: os.path.join(out, name)  # noqa: E731
        _run_cli([
            "train", "--data", os.path.join(work, "pipeline.txt"), "--test-fraction", "0.3", "--split-seed", "1",
            "--seed", "2", "--model-out", p("model.npz"), "--train-out", p("train.txt"), "--test-out", p("test.txt"),
            "-o", p("train.csv"),
        ])
        _run_cli([
            "calibrate", "--model", p("model.npz"), "--train", p("train.txt"), "--cal-fraction", "0.25",
            "--cal-seed", "3", "--mode", "per-term", "--model-out", p("calibrated.npz"), "-o", p("cal.csv"),
        ])
        # the calibrated score is shifted by sum(w * mu); theta moves with it
        model = load_model(p("calibrated.npz"))
        theta = model.theta - float(np.sum(model.weights * model.mu))
        with open(p("cal.csv"), newline="", encoding="utf-8") as handle:
            variance = float(next(csv.DictReader(handle))["variance_hat"])
        tau = make_stopping_rule(theta, ConfidenceParams(delta=0.1, variance=variance), Direction.REJECT_BELOW).tau
        _run_cli([
            "sweep", "--model", p("calibrated.npz"), "--data", p("test.txt"), "--theta", repr(theta),
            "--grid", "50", "-o", p("sweep.csv"),
        ])
        _run_cli([
            "pr", "--model", p("calibrated.npz"), "--data", p("test.txt"), "--theta", repr(theta),
            "--mode", "attentive", "--tau", repr(tau), "-o", p("pr.csv"),
        ])


def _stopping_time() -> None:
    from stst import simulator

    spec = simulator.WalkSpec(n=STOPPING_N, step="rademacher", scale=0.1, drift=0.1, seed=SEED)
    simulator.empirical_stopping_time(spec, 0.1, trials=STOPPING_TRIALS)


def _theory_reference(work: str):
    """stst theory with the walk kernels switched off, so that every block
    is reduced by the numpy reference."""
    from stst import simulator

    _switched_off(simulator, "_kernels").start()
    return partial(_run_cli, [*THEORY_ARGV, os.devnull])


def _write_layer(work: str) -> None:
    """The layer dataset as text, work/layer.txt, and as CSR arrays and
    labels, work/layer.npz."""
    import numpy as np

    from stst import data

    dataset = _layer_dataset(np.random.default_rng(SEED + 2))  # the layer rows' rng (_rows)
    data.serialize_sparse(dataset, os.path.join(work, "layer.txt"))
    X = dataset.X
    np.savez(os.path.join(work, "layer.npz"), data=X.data, indices=X.indices, indptr=X.indptr, y=dataset.y)


def _serialize_arrays(work: str):
    """serialize_sparse, to os.devnull, of the arrays in work/layer.npz."""
    import numpy as np
    from scipy import sparse

    from stst import data

    with np.load(os.path.join(work, "layer.npz")) as z:
        X = sparse.csr_matrix((z["data"], z["indices"], z["indptr"]), shape=(LAYER_M, LAYER_DIM))
        return partial(data.serialize_sparse, data.Dataset(X=X, y=z["y"]), os.devnull)


def _serialize_reference(dataset) -> None:
    """serialize_sparse of dataset, in memory, on the Python reference writer."""
    from stst import data

    with _switched_off(data, "_text_writer"):
        data.serialize_sparse(dataset, io.StringIO())


def _parse_file(work: str):
    from stst import data

    return partial(data.parse_sparse, os.path.join(work, "layer.txt"))


def _parse_text(work: str, compiled: bool = True):
    """parse_sparse of work/layer.txt, read into a string first; compiled=False
    switches the compiled line parser off, so that every line goes through
    the Python reference loop."""
    from stst import data

    if not compiled:
        _switched_off(data, "_text_parser").start()
    data._sparse()  # the first parse's import of scipy.sparse stays out of the times
    text = Path(work, "layer.txt").read_text(encoding="utf-8")
    return lambda: data.parse_sparse(io.StringIO(text))


def _parse_quietly(text: str) -> None:
    """parse_sparse of text, with its warnings ignored."""
    from stst import data

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        data.parse_sparse(io.StringIO(text))


def _sweep(m: int, n: int, grid):
    """run_sweep on _sweep_inputs of m rows and n terms, from seed SEED + 3."""
    import numpy as np

    from stst import bench

    model, test = _sweep_inputs(np.random.default_rng(SEED + 3), m, n)
    return lambda: bench.run_sweep(model, test, 0.0, grid=grid)


def _calibrate(mode: str):
    from stst import calibration

    model, cal_set = _calibrate_inputs()
    return partial(calibration.calibrate, model, cal_set, 1, mode=mode)


def _peak(peaks, times, spawner) -> dict:
    return {"peak_rss_mb": peaks[0]}


def _times(peaks, times, spawner) -> dict:
    return _quartiles([t for child in times for t in child])


def _cold_and_warm(peaks, times, spawner) -> dict:
    """Each child's first call, and the median of each child's second."""
    return {
        **_quartiles([first for first, _ in times]),
        "warm_median_ms": statistics.median(second for _, second in times) * 1e3,
    }


class Fresh(NamedTuple):
    """A row measured in fresh children, one after another (see _child).

    write(work), when given, first writes the row's input files into the
    directory work, in a child of its own, once for all rows that share it:
    building them then raises neither this process's peak nor the measured
    child's. Each of `children` children then calls prepare(work), which
    builds what the row needs untimed and returns the call that the child
    times `calls` times. A child still running after `limit` seconds (0: no
    limit) is stopped and ends the row. summary(peaks, times, spawner) makes
    the row's keys from each child's peak RSS in MiB, each child's call
    times in seconds and this process's own peak when it spawned them.
    """

    prepare: Callable
    write: Callable | None = None
    summary: Callable = _peak
    calls: int = 1
    children: int = 1
    limit: int = 0


FRESH = {
    # The peak_rss_mb of rows timed in this process: one call, alone in a
    # fresh interpreter. The sweep's dense test set alone is 80 MB.
    SWEEP(50, *SWEEP_SIZES[-1]): Fresh(lambda work: _sweep(*SWEEP_SIZES[-1], 50)),
    f"parse_sparse {LAYER_NNZ}": Fresh(_parse_file, _write_layer),
    f"serialize_sparse {LAYER_NNZ}": Fresh(_serialize_arrays, _write_layer),
    CALIBRATE("per-term"): Fresh(lambda work: _calibrate("per_term")),
    CALIBRATE("score"): Fresh(lambda work: _calibrate("score")),
    # spawner_peak_rss_mb is the floor under the child's reading (see _child)
    PIPELINE: Fresh(
        lambda work: partial(_pipeline, work),
        _write_pipeline,
        lambda peaks, times, spawner: {"peak_rss_mb": peaks[0], "spawner_peak_rss_mb": spawner},
    ),
    THEORY: Fresh(lambda work: partial(_run_cli, [*THEORY_ARGV, os.devnull])),
    # the theory suite's largest stopping-time run
    STOPPING: Fresh(lambda work: _stopping_time),
    # Rows measured only in children. On a source tree without a compiled
    # parser both parse rows time its only path. The Python reference loop,
    # LAYER_REPEATS calls in one child:
    f"parse_sparse reference loop {LAYER}": Fresh(
        lambda work: _parse_text(work, compiled=False), _write_layer, _times, calls=LAYER_REPEATS
    ),
    # The first call of LAYER_REPEATS children, each with an empty build
    # cache and scipy.sparse already imported, so the row holds the one-time
    # compile of the parser as set-up; warm_median_ms is each child's second.
    f"parse_sparse cold first call {LAYER}": Fresh(
        _cold(_parse_text), _write_layer, _cold_and_warm, calls=2, children=LAYER_REPEATS
    ),
    # The same for the RBF distance kernel: the first full_predict of
    # LAYER_REPEATS children, each with an empty build cache, so the row
    # holds the one-time compile of _terms.c; warm_median_ms is the second.
    RBF_COLD: Fresh(_cold(_rbf_full), summary=_cold_and_warm, calls=2, children=LAYER_REPEATS),
    # The same for the walk kernels: the first stopping-time run of
    # LAYER_REPEATS children, each with an empty build cache, so the row
    # holds the one-time compile of _walk.c; warm_median_ms is the second.
    # On a source tree without the kernels both walk rows time numpy.
    f"{STOPPING} cold first call": Fresh(
        _cold(lambda work: _stopping_time), summary=_cold_and_warm, calls=2, children=LAYER_REPEATS
    ),
    # stst theory on the numpy reference of the walk reductions, the path
    # taken without a C compiler, LAYER_REPEATS calls in one child
    f"{THEORY} numpy reference": Fresh(_theory_reference, summary=_times, calls=LAYER_REPEATS),
    # SWEEP_REPEATS children, each timing its own call: a sweep that
    # rescans a whole prefix matrix per grid point takes minutes here, and
    # the row then records the limit instead.
    SWEEP("exhaustive", *SWEEP_SIZES[-1]): Fresh(
        lambda work: _sweep(*SWEEP_SIZES[-1], "exhaustive"),
        summary=_times,
        children=SWEEP_REPEATS,
        limit=EXHAUSTIVE_LIMIT_S,
    ),
}


def _run(name: str, work: str) -> None:
    """The child entry point: FRESH[name]'s timed calls, printing each one's seconds."""
    row = FRESH[name]
    call = row.prepare(work)
    for _ in range(row.calls):
        t0 = time.perf_counter()
        call()
        print(time.perf_counter() - t0)


def _child(call: str, *args: str, timeout: int = 0) -> tuple[float, str] | None:
    """Run `bench.<call>(*args)` alone in a fresh child interpreter on the
    measured stst source: its peak RSS in MiB and its standard output, or
    None when a timeout (whole seconds, 0 for none) stopped it first.

    Call it before this process grows: a child's ru_maxrss starts at its
    parent's high-water mark (`python -c pass` spawned after a 200 MB
    allocation reads 218 MB), so this process's own peak when it spawns the
    child is a floor under the reading. The child's rusage comes from wait4,
    so each reading is that child's alone. A timeout is the child's own
    SIGALRM, whose default action ends it even inside a numpy call.
    """
    import signal
    import subprocess

    import stst

    src = str(Path(stst.__file__).resolve().parents[1])
    alarm = f"import signal; signal.alarm({timeout}); " if timeout else ""
    code = f"{alarm}import sys; sys.path[:0] = sys.argv[1:3]; import bench; bench.{call}(*sys.argv[3:])"
    child = subprocess.Popen(
        [sys.executable, "-c", code, src, str(Path(__file__).resolve().parent), *args], stdout=subprocess.PIPE, text=True
    )
    with child.stdout:
        out = child.stdout.read()  # to the end, when the child exits
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if timeout and child.returncode == -signal.SIGALRM:
        return None
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    return usage.ru_maxrss / 1024.0, out


def _measure_fresh() -> dict:
    """Every FRESH row's keys, by name."""
    rows = {}
    with tempfile.TemporaryDirectory() as work:
        written = set()
        for name, row in FRESH.items():
            if row.write and row.write not in written:
                _child(row.write.__name__, work)
                written.add(row.write)
            spawner = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            peaks, times = [], []
            for _ in range(row.children):
                done = _child("_run", name, work, timeout=row.limit)
                if done is None:
                    rows[name] = {"timed_out_after_s": row.limit, "calls": sum(map(len, times))}
                    break
                peaks.append(done[0])
                times.append([float(t) for t in done[1].split()])
            else:
                rows[name] = row.summary(peaks, times, spawner)
    return rows


class Row(NamedTuple):
    """A row timed in this process: call(x) for each x of inputs, over
    `repeats` passes, beside the fixed `keys`. A row named in FRESH adds its
    keys; one with no call has only those."""

    name: str
    call: Callable | None = None
    inputs: Sequence = (None,)
    repeats: int = LAYER_REPEATS
    keys: dict | None = None


def _rows():
    """Every row, in the order it is written. Each row's inputs are built as
    it comes, and measure() times it before the next, so the lambdas may
    read the loop's current model."""
    import subprocess

    import numpy as np

    import stst
    from stst import bench, calibration, data, predictor, simulator, trainer
    from stst.core import Direction, StoppingRule

    # COLD_IMPORTS fresh interpreters, one after another, each running
    # `import stst.cli` from the same source: the start-up every stst command
    # pays before it does any work. A bare interpreter, not _child, whose
    # imports of this script would add to the time.
    env = dict(os.environ, PYTHONPATH=str(Path(stst.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", "import stst.cli"]
    yield Row("cli cold import", lambda _: subprocess.run(argv, env=env, check=True), repeats=COLD_IMPORTS)
    yield Row(f"parse_sparse reference loop {LAYER}")
    yield Row(f"parse_sparse cold first call {LAYER}")

    # Coordinate models (dim n, terms in a seeded random order) and RBF
    # models (dim RBF_DIM, sigma 8), each called on the same EXAMPLES
    # examples, REPEATS passes: attentive with the no-stop sentinel
    # tau = -inf, attentive with the lowest finite tau (checked at every
    # term, never crossed) and full_predict. No early stop happens, so these
    # rows compare evaluation cost alone. The CROSSING_ROWS models are also
    # called attentive under _crossing's rule, so about half the examples
    # stop, with its terms_fraction and computed_fraction.
    attentive = predictor.attentive_predict
    no_stop = StoppingRule(0.0, -math.inf, Direction.REJECT_BELOW)
    never_crossed = StoppingRule(0.0, -sys.float_info.max, Direction.REJECT_BELOW)
    for name, model, X in _models():
        predictor.full_predict(model, X[0])  # warm caches and lazy imports
        yield Row(f"{name} attentive tau=-inf", lambda x: attentive(model, x, no_stop), X, REPEATS)
        yield Row(f"{name} attentive tau=finite", lambda x: attentive(model, x, never_crossed), X, REPEATS)
        yield Row(f"{name} full", lambda x: predictor.full_predict(model, x), X, REPEATS)
        if name in CROSSING_ROWS:
            crossed, keys = _crossing(model, X)
            yield Row(f"{name} attentive tau=crossing", lambda x: attentive(model, x, crossed), X, REPEATS, keys)

    # RBF evaluation at each of RBF_WIDTHS (the break-even map of the
    # compiled evaluator), full and attentive: per example on EXAMPLES
    # examples, REPEATS passes, and one predict_rows call on RBF_BATCH_M
    # rows, LAYER_REPEATS calls. The attentive rows stop at the median of
    # the rows' lowest partial sums S_1..S_{n-1}, so about half the rows
    # stop (_crossing). Each row is followed at once by its "numpy reference",
    # the same calls with predictor._kernels switched off: cdist and the
    # numpy scan, the path taken without a C compiler, so the two compare
    # within one run. On a source tree without the kernel both time cdist.
    # Then the cold first call.
    predictor._cdist()  # the reference rows' import of scipy.spatial stays out of the times
    rng = np.random.default_rng(SEED + 5)
    for dim, n in RBF_WIDTHS:
        rbf, X = _rbf_model(rng, dim, n), rng.standard_normal((EXAMPLES, dim))
        batch = rng.standard_normal((RBF_BATCH_M, dim))
        predictor.full_predict(rbf, X[0])  # packs the support vectors, outside the times
        size = f"m={RBF_BATCH_M} n={n} dim={dim}"
        (each, each_keys), (rows, rows_keys) = _crossing(rbf, X), _crossing(rbf, batch)
        for row in (
            Row(f"rbf n={n} dim={dim} full", lambda x: predictor.full_predict(rbf, x), X, REPEATS),
            Row(
                f"rbf n={n} dim={dim} attentive tau=crossing",
                lambda x: attentive(rbf, x, each),
                X,
                REPEATS,
                each_keys,
            ),
            Row(f"predict_rows full rbf {size}", lambda b: predictor.predict_rows(rbf, b, 0.0), [batch]),
            Row(
                f"predict_rows attentive rbf {size}",
                lambda b: predictor.predict_rows(rbf, b, 0.0, rows),
                [batch],
                keys=rows_keys,
            ),
        ):
            yield row
            with _switched_off(predictor, "_kernels"):
                yield row._replace(name=f"{row.name} numpy reference")
    yield Row(RBF_COLD)

    # Batch rows, REPEATS calls each, on one coordinate model and test set:
    # on its prefix matrix, attentive_from_prefix with tau at the median of
    # the rows' lowest partial sums (about half the rows stop) and
    # budgeted_from_prefix at b = n/2; then predict_rows from the features
    # (the chunked evaluator, no prefix matrix), attentive at that tau and
    # full.
    rng = np.random.default_rng(SEED + 1)
    model, test = _sweep_inputs(rng, BATCH_M, BATCH_N)
    prefix = predictor.prefix_score_matrix(model, test.X)
    rule = StoppingRule(0.0, float(np.median(prefix[:, :-1].min(axis=1))), Direction.REJECT_BELOW)
    size, b = f"m={BATCH_M} n={BATCH_N}", BATCH_N // 2
    yield Row(f"attentive_from_prefix {size}", lambda p: predictor.attentive_from_prefix(p, rule), [prefix], REPEATS)
    yield Row(
        f"budgeted_from_prefix {size} b={b}", lambda p: predictor.budgeted_from_prefix(p, b, 0.0), [prefix], REPEATS
    )
    del prefix
    predict = partial(predictor.predict_rows, model)
    yield Row(f"predict_rows attentive {size}", lambda X: predict(X, rule.theta, rule), [test.X], REPEATS)
    yield Row(f"predict_rows full {size}", lambda X: predict(X, rule.theta), [test.X], REPEATS)

    # run_sweep, SWEEP_REPEATS calls each, with grid 50 at both sizes and
    # with the exhaustive grid at the small one (the large one is in FRESH)
    for grid, (m, n) in ((50, SWEEP_SIZES[0]), (50, SWEEP_SIZES[-1]), ("exhaustive", SWEEP_SIZES[0])):
        model, test = _sweep_inputs(rng, m, n)
        yield Row(SWEEP(grid, m, n), lambda t: bench.run_sweep(model, t, 0.0, grid=grid), [test], SWEEP_REPEATS)
    yield Row(SWEEP("exhaustive", *SWEEP_SIZES[-1]))

    # Layer rows on one sparse dataset (labels from a planted direction):
    # parse_sparse of its text and serialize_sparse back to text, in memory,
    # the latter also on its Python reference writer (the path without a C
    # compiler; on a source tree without a compiled writer, its only path);
    # train_linear for one epoch on the dense and on the CSR copy; calibrate
    # of the trained model on the CSR copy (score mode, the default); both
    # calibrate modes of an RBF model at the perfbench predict workload's
    # shape (_calibrate_inputs).
    rng = np.random.default_rng(SEED + 2)
    dataset = _layer_dataset(rng)
    buf = io.StringIO()
    data.serialize_sparse(dataset, buf)
    text = buf.getvalue()
    data.parse_sparse(io.StringIO(text))  # builds or loads the compiled parser: the cold row times that
    yield Row(f"parse_sparse {LAYER_NNZ}", lambda t: data.parse_sparse(io.StringIO(t)), [text])
    # the same text with every MAPPED_EVERY-th label spelled 2 or -2: a
    # label mapped by sign, with a warning (ignored here), which the
    # compiled parser leaves to the Python one. At about 130 lines a block,
    # every block holds one.
    lines = text.splitlines(keepends=True)
    lines[::MAPPED_EVERY] = [f"{line[0]}2{line[2:]}" for line in lines[::MAPPED_EVERY]]
    yield Row(f"parse_sparse {LAYER} mapped label every {MAPPED_EVERY} lines", _parse_quietly, ["".join(lines)])
    yield Row(f"serialize_sparse {LAYER_NNZ}", lambda d: data.serialize_sparse(d, io.StringIO()), [dataset])
    yield Row(f"serialize_sparse reference {LAYER_NNZ}", _serialize_reference, [dataset])
    config = trainer.TrainConfig(lambda_reg=0.01, epochs=1, seed=0)
    dense = data.Dataset(X=dataset.dense(), y=dataset.y)
    for kind, ds in (("dense", dense), ("csr", dataset)):
        yield Row(f"train_linear {kind} {LAYER_NNZ} epochs=1", lambda d: trainer.train_linear(d, config), [ds])
    model = trainer.train_linear(dense, config)
    del dense
    yield Row(f"calibrate {LAYER_NNZ}", lambda d: calibration.calibrate(model, d, 1), [dataset])
    rbf, cal_set = _calibrate_inputs()
    for mode in ("per_term", "score"):
        yield Row(CALIBRATE(mode.replace("_", "-")), lambda d: calibration.calibrate(rbf, d, 1, mode=mode), [cal_set])

    # term_matrix of coordinate, linear-kernel and RBF models (kernel dim
    # RBF_DIM), and prefix_score_matrix of the coordinate one
    weights, mu = rng.standard_normal(TERM_N), 0.1 * rng.standard_normal(TERM_N)
    sv = rng.standard_normal((TERM_N, RBF_DIM))
    term_models = (
        ("coordinate", predictor.coordinate_model(weights, mu=mu, indices=rng.permutation(TERM_N), dim=TERM_N)),
        ("linear", predictor.kernel_model(weights, sv, predictor.KernelSpec.linear(), mu=mu)),
        ("rbf", predictor.kernel_model(weights, sv, predictor.KernelSpec.rbf(math.sqrt(RBF_DIM)), mu=mu)),
    )
    size = f"m={TERM_M} n={TERM_N}"
    for kind, term_model in term_models:
        X = rng.standard_normal((TERM_M, term_model.dim))
        yield Row(f"term_matrix {kind} {size}", lambda x: predictor.term_matrix(term_model, x), [X])
    coordinate, X = term_models[0][1], rng.standard_normal((TERM_M, TERM_N))
    yield Row(f"prefix_score_matrix coordinate {size}", lambda x: predictor.prefix_score_matrix(coordinate, x), [X])

    # The walk engine through empirical_stop_error_grid at one delta (the row
    # is named after the deleted one-delta wrapper, so that BENCH_*.json rows
    # line up), and through the exact bridge on the theory suite's
    # unit-variance gaussian walks and bridge boundaries.
    spec = simulator.WalkSpec(n=WALK_N, seed=SEED)
    stop_error = lambda s: simulator.empirical_stop_error_grid(s, [0.1], trials=WALK_TRIALS)[0]  # noqa: E731
    yield Row(f"walk engine empirical_stop_error n={WALK_N} trials={WALK_TRIALS}", stop_error, [spec])
    spec = simulator.WalkSpec(n=BRIDGE_N, scale=math.sqrt(1.0 / BRIDGE_N), seed=SEED)
    taus = [0.5, 1.0, 1.5, 2.0]  # the theory suite's bridge boundaries
    bridge = partial(simulator.empirical_bridge_crossing_grid, taus=taus, trials=WALK_TRIALS, mode="exact")
    yield Row(f"walk engine empirical_bridge exact n={BRIDGE_N} trials={WALK_TRIALS}", bridge, [spec])

    # End to end: the CLI flow train (0.3 test split) -> calibrate (per-term,
    # on a 0.25 slice of the training part) -> sweep (grid 50) -> pr
    # (attentive, at the delta = 0.1 tau) through stst.cli.main, each pass
    # into a fresh directory; and stst theory at the default TheoryConfig.
    with tempfile.TemporaryDirectory() as work:
        _write_pipeline(work)
        yield Row(PIPELINE, _pipeline, [work])
        yield Row(THEORY, _run_cli, [[*THEORY_ARGV, os.path.join(work, "theory.csv")]])
    yield Row(STOPPING, lambda _: _stopping_time())
    yield Row(f"{STOPPING} cold first call")
    yield Row(f"{THEORY} numpy reference")


def _crossing(model, X) -> tuple:
    """A rule that stops at the median of the rows of X's lowest partial
    sums S_1..S_{n-1}, so that about half of them stop, and its keys: the
    mean terms counted (the stop position) over n, terms_fraction, and the
    mean terms computed (to the end of the stop's chunk) over n,
    computed_fraction."""
    import numpy as np

    from stst import predictor
    from stst.core import Direction, StoppingRule

    n = model.n
    tau = float(np.median(predictor.prefix_score_matrix(model, X)[:, :-1].min(axis=1)))
    rule = StoppingRule(0.0, tau, Direction.REJECT_BELOW)
    terms = predictor.predict_rows(model, X, 0.0, rule).terms
    ends = [b for _, b in predictor._chunks(n, True)]
    computed = np.array(ends)[np.searchsorted(ends, terms)]
    return rule, {"terms_fraction": terms.mean() / n, "computed_fraction": computed.mean() / n}


def _call_ms(fn, X, repeats: int = REPEATS) -> dict:
    """Median and quartiles of single-call wall times over repeats passes of X."""
    times = []
    for _ in range(repeats):
        for x in X:
            t0 = time.perf_counter()
            fn(x)
            times.append(time.perf_counter() - t0)
    return _quartiles(times)


def _quartiles(times: list) -> dict:
    """Median and quartiles of wall times in seconds, in milliseconds."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": median * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3, "calls": len(times)}


def measure() -> dict:
    fresh = _measure_fresh()  # first, while this process is small (see _child)
    rows = {}
    for row in _rows():
        timed = _call_ms(row.call, row.inputs, row.repeats) if row.call else {}
        rows[row.name] = {**timed, **(row.keys or {}), **fresh.pop(row.name, {})}
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="row label, e.g. parent or change")
    parser.add_argument("--out", required=True, help="BENCH_*.json file to update")
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree whose stst is measured")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import numpy
    import scipy

    row = {
        "label": args.label,
        "environment": {
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "results": measure(),
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {
        "layer": (
            "predictor (per-example and batch), bench.run_sweep, sparse parse and serialize, "
            "train_linear, calibrate, term_matrix, prefix_score_matrix, walk engine, "
            "CLI pipeline and theory end to end, CLI cold import"
        ),
        "method": (
            f"single-call wall time, median and quartiles over {REPEATS} passes of {EXAMPLES} examples"
            f" (batch: {REPEATS} calls, run_sweep: {SWEEP_REPEATS} calls, layers: {LAYER_REPEATS} calls,"
            f" cold import: {COLD_IMPORTS} interpreters)"
        ),
        "rows": [],
    }
    doc["rows"] = [r for r in doc["rows"] if r["label"] != args.label] + [row]
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, r in row["results"].items():
        if "median_ms" in r:
            print(f"{name:64s} {r['median_ms']:10.3f} ms")
        else:
            print(f"{name:64s} timed out after {r['timed_out_after_s']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
