#!/usr/bin/env python3
"""Layer benchmark of stst at fixed sizes and seeds.

Times one call at a time on generated models and data, and writes the
medians as one labelled row of a BENCH_*.json file (a row with the same
label is replaced, other rows are kept):

    python scripts/bench.py --label change --out BENCH_9.json
    python scripts/bench.py --label parent --src ../parent/src --out BENCH_9.json

Models: coordinate models at n = 1k / 4k / 16k / 64k (dim n, terms in a
seeded random order) and RBF models at n = 0.5k / 2k / 8k (dim 64, sigma 8).
Each is called three ways on the same 16 examples: attentive with the
no-stop sentinel tau = -inf, attentive with the lowest finite tau (checked
at every term, never crossed) and full_predict. No early stop happens, so
every call evaluates all n terms and the rows compare evaluation cost alone.
The models in CROSSING_ROWS are also called attentive at a tau that is
crossed: the median of the 16 examples' lowest partial sums S_1..S_{n-1},
so about half of them stop. Those rows hold terms_fraction, the measured
mean of terms evaluated / n over the 16 examples.

Batch rows: on a fixed prefix matrix (coordinate model, m = 10000 examples,
n = 1000 terms), attentive_from_prefix with tau at the median of the rows'
lowest partial sums (about half the rows stop) and budgeted_from_prefix at
b = n/2; predict_rows in attentive mode on the same model, test set and tau,
and in full mode, from the features (the chunked evaluator, with no prefix
matrix); and run_sweep with grid 50 at m = 2000, n = 200 and m = 10000,
n = 1000, and with the exhaustive grid at m = 2000, n = 200 (SWEEP_REPEATS
calls each). The exhaustive grid at m = 10000, n = 1000 runs in
SWEEP_REPEATS fresh child interpreters, one after another, each timing its
own call; a child still running after EXHAUSTIVE_LIMIT_S seconds is stopped
and the row records the limit instead (a sweep that rescans a whole prefix
matrix per grid point takes minutes there).

Layer rows (LAYER_REPEATS calls each): on one sparse dataset of 4000 rows x
2000 dims at 2% density (160k nonzeros, labels from a planted direction),
parse_sparse of its text and serialize_sparse back to text; train_linear
for one epoch on the dense and on the CSR copy; calibrate of the trained
model on the CSR copy (score mode, the default); per-term and score-mode
calibrate of an RBF model at the perfbench predict workload's shape (CAL_N
terms, dim CAL_DIM, CAL_ROWS class rows);
term_matrix of coordinate, linear-kernel and RBF
models at m = 2000 examples and n = 2000 terms (kernel dim 64), and
prefix_score_matrix of the coordinate one; and the walk engine through
empirical_stop_error_grid at one delta, n = 1000, 16384 trials, and through
the exact bridge (empirical_bridge_crossing_grid, mode "exact") on the theory
suite's unit-variance gaussian walks and four boundaries at n = 2000,
16384 trials.

End-to-end rows (LAYER_REPEATS passes each): the CLI flow train ->
calibrate -> sweep -> pr through stst.cli.main, into a fresh temporary
directory per pass, on a sparse text file of 3000 rows x 2000 dims at 2%
density (labels from a planted direction, seed PIPELINE_SEED): train with a
0.3 test split, calibrate per-term on a 0.25 slice of the training part,
sweep with grid 50, and pr in attentive mode at the delta = 0.1 tau; and
stst theory at the default TheoryConfig with base seed THEORY_SEED.

Memory: the pipeline and theory rows, the run_sweep grid=50 row at
m = 10000, n = 1000 (whose dense test set alone is 80 MB), the
serialize_sparse row (its child loads the dataset's CSR arrays, written by
a child of its own, and writes the text to os.devnull), the parse_sparse
row (its child parses the dataset's text file, written by a child of its
own), the two RBF
calibrate rows, and a walk-engine row running empirical_stopping_time on
rademacher walks of STOPPING_N steps (the theory suite's largest
stopping-time run: scale 0.1, drift 0.1, delta 0.1, STOPPING_TRIALS
trials), each also hold peak_rss_mb:
the peak resident set of one more call, run alone in a fresh child
interpreter on the same stst source before any other row, read from that
child's own rusage (in MiB, as ru_maxrss / 1024). The pipeline's data file
is written by a child of its own first, and the pipeline row also holds
spawner_peak_rss_mb, this process's peak when it spawns the measured child:
the floor under that reading.

Cold-import row: COLD_IMPORTS fresh interpreters, one after another, each
running `import stst.cli` from the same stst source: the start-up every
stst command pays before it does any work.

Parse-path rows, on the layer dataset's text: parse_sparse with the
compiled line parser switched off (stst.data._text_parser returning None),
so every line goes through the Python reference loop, LAYER_REPEATS calls
in one fresh child; and the first parse_sparse call of LAYER_REPEATS fresh
children, one after another, each with an empty build cache
(XDG_CACHE_HOME) and scipy.sparse already imported, so the row holds the
one-time compile of the parser as set-up; warm_median_ms is each child's
second call. On a source tree
without a compiled parser both rows time its only path.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COORDINATE_N = (1000, 4000, 16000, 64000)
RBF_N = (500, 2000, 8000)
RBF_DIM = 64
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
TERM_M, TERM_N = 2_000, 2_000
CAL_N, CAL_DIM, CAL_ROWS = 4_000, 64, 500
WALK_N, WALK_TRIALS = 1_000, 16_384
BRIDGE_N = 2_000
STOPPING_N, STOPPING_TRIALS = 10_000, 10_000
PIPELINE_M, PIPELINE_DIM, PIPELINE_DENSITY = 3_000, 2_000, 0.02
PIPELINE_SEED = 20_240_008
THEORY_SEED = 20_240_001  # the pinned TheoryConfig base seed
COLD_IMPORTS = 20


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
        model = predictor.kernel_model(
            rng.standard_normal(n),
            rng.standard_normal((n, RBF_DIM)),
            predictor.KernelSpec.rbf(math.sqrt(RBF_DIM)),
            mu=0.1 * rng.standard_normal(n),
        )
        yield f"rbf n={n}", model, rng.standard_normal((EXAMPLES, RBF_DIM))


def _sweep_inputs(rng, m: int, n: int):
    """A coordinate model with nonzero mu and a dense test set labelled by it plus noise."""
    import numpy as np

    from stst import data, predictor

    weights = rng.standard_normal(n) / math.sqrt(n)
    model = predictor.coordinate_model(weights, mu=0.1 * rng.standard_normal(n), dim=n)
    X = rng.standard_normal((m, n))
    y = np.where(X @ weights + 0.3 * rng.standard_normal(m) >= 0.0, 1, -1)
    return model, data.Dataset(X=X, y=y)


def _layer_dataset(rng):
    """CSR dataset with 160k nonzeros, labelled by a planted direction plus noise."""
    import numpy as np
    from scipy import sparse

    from stst import data

    X = sparse.random(
        LAYER_M, LAYER_DIM, density=LAYER_DENSITY, format="csr", random_state=rng, data_rvs=rng.standard_normal
    )
    direction = rng.standard_normal(LAYER_DIM)
    y = np.where(X @ direction + 0.3 * rng.standard_normal(LAYER_M) >= 0.0, 1, -1)
    return data.Dataset(X=X, y=y)


def _write_layer_arrays(path: str) -> None:
    """Save the layer dataset's CSR arrays and labels to an .npz file."""
    import numpy as np

    dataset = _layer_dataset(np.random.default_rng(SEED + 2))  # the rng _layer_rows starts from
    X = dataset.X
    np.savez(path, data=X.data, indices=X.indices, indptr=X.indptr, y=dataset.y)


def _serialize_pass(path: str) -> None:
    """serialize_sparse of the dataset saved by _write_layer_arrays, to os.devnull."""
    import numpy as np
    from scipy import sparse

    from stst import data

    with np.load(path) as z:
        X = sparse.csr_matrix((z["data"], z["indices"], z["indptr"]), shape=(LAYER_M, LAYER_DIM))
        dataset = data.Dataset(X=X, y=z["y"])
    with open(os.devnull, "w", encoding="utf-8") as sink:
        data.serialize_sparse(dataset, sink)


def _serialize_memory() -> float:
    """Peak RSS of one serialize_sparse pass, after a child of its own saves the arrays."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "layer.npz")
        _child("_write_layer_arrays", path)
        return _child("_serialize_pass", path)[0]


def _write_layer_text(path: str) -> None:
    """Write the layer dataset in the sparse text format."""
    import numpy as np

    from stst import data

    data.serialize_sparse(_layer_dataset(np.random.default_rng(SEED + 2)), path)


def _parse_pass(path: str) -> None:
    from stst import data

    data.parse_sparse(path)


def _parse_reference_pass(path: str) -> None:
    """Prints the time of each of LAYER_REPEATS parse_sparse calls with the
    compiled line parser switched off."""
    from stst import data

    data._text_parser = lambda: None
    data._sparse()  # the first parse's import of scipy.sparse stays out of the times
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    for _ in range(LAYER_REPEATS):
        t0 = time.perf_counter()
        data.parse_sparse(io.StringIO(text))
        print(time.perf_counter() - t0)


def _parse_cold_pass(path: str) -> None:
    """Prints the times of the first and the second parse_sparse call of
    this interpreter, with an empty build cache."""
    from stst import data

    data._sparse()  # the first parse's import of scipy.sparse stays out of the times
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    with tempfile.TemporaryDirectory() as cache:
        os.environ["XDG_CACHE_HOME"] = cache
        for _ in range(2):
            t0 = time.perf_counter()
            data.parse_sparse(io.StringIO(text))
            print(time.perf_counter() - t0)


def _parse_children() -> tuple[float, dict]:
    """The peak RSS of one parse_sparse pass, and the reference-loop and
    cold-first-call rows (see the module docstring), each in fresh children
    after a child of its own writes the text file."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "layer.txt")
        _child("_write_layer_text", path)
        peak_rss_mb = _child("_parse_pass", path)[0]
        reference = [float(t) for t in _child("_parse_reference_pass", path)[1].split()]
        cold = [[float(t) for t in _child("_parse_cold_pass", path)[1].split()] for _ in range(LAYER_REPEATS)]
    size = f"{LAYER_M}x{LAYER_DIM}"
    return peak_rss_mb, {
        f"parse_sparse reference loop {size}": _quartiles(reference),
        f"parse_sparse cold first call {size}": {
            **_quartiles([first for first, _ in cold]),
            "warm_median_ms": statistics.median(second for _, second in cold) * 1e3,
        },
    }


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


def _calibrate_pass(mode: str) -> None:
    from stst import calibration

    calibration.calibrate(*_calibrate_inputs(), 1, mode=mode)


def _layer_rows(rng, memory: dict) -> dict:
    from stst import calibration, data, predictor, simulator, trainer

    rows = {}
    dataset = _layer_dataset(rng)
    size = f"{LAYER_M}x{LAYER_DIM} nnz={dataset.X.nnz}"
    buf = io.StringIO()
    data.serialize_sparse(dataset, buf)
    text = buf.getvalue()
    data.parse_sparse(io.StringIO(text))  # builds or loads the compiled parser: the cold row times that
    rows[f"parse_sparse {size}"] = {
        **_call_ms(lambda t: data.parse_sparse(io.StringIO(t)), [text], LAYER_REPEATS),
        "peak_rss_mb": memory["parse"],
    }
    rows[f"serialize_sparse {size}"] = {
        **_call_ms(lambda d: data.serialize_sparse(d, io.StringIO()), [dataset], LAYER_REPEATS),
        "peak_rss_mb": memory["serialize"],
    }
    config = trainer.TrainConfig(lambda_reg=0.01, epochs=1, seed=0)
    dense = data.Dataset(X=dataset.dense(), y=dataset.y)
    for kind, ds in (("dense", dense), ("csr", dataset)):
        rows[f"train_linear {kind} {size} epochs=1"] = _call_ms(
            lambda d: trainer.train_linear(d, config), [ds], LAYER_REPEATS
        )
    model = trainer.train_linear(dense, config)
    del dense
    rows[f"calibrate {size}"] = _call_ms(lambda d: calibration.calibrate(model, d, 1), [dataset], LAYER_REPEATS)
    rbf, cal_set = _calibrate_inputs()
    for mode in ("per_term", "score"):
        rows[f"calibrate {mode.replace('_', '-')} rbf n={CAL_N} dim={CAL_DIM} rows={CAL_ROWS}"] = {
            **_call_ms(lambda d: calibration.calibrate(rbf, d, 1, mode=mode), [cal_set], LAYER_REPEATS),
            "peak_rss_mb": memory[f"calibrate {mode}"],
        }

    weights, mu = rng.standard_normal(TERM_N), 0.1 * rng.standard_normal(TERM_N)
    sv = rng.standard_normal((TERM_N, RBF_DIM))
    term_models = (
        ("coordinate", predictor.coordinate_model(weights, mu=mu, indices=rng.permutation(TERM_N), dim=TERM_N)),
        ("linear", predictor.kernel_model(weights, sv, predictor.KernelSpec.linear(), mu=mu)),
        ("rbf", predictor.kernel_model(weights, sv, predictor.KernelSpec.rbf(math.sqrt(RBF_DIM)), mu=mu)),
    )
    for kind, term_model in term_models:
        X = rng.standard_normal((TERM_M, term_model.dim))
        rows[f"term_matrix {kind} m={TERM_M} n={TERM_N}"] = _call_ms(
            lambda x: predictor.term_matrix(term_model, x), [X], LAYER_REPEATS
        )

    coordinate = term_models[0][1]
    X = rng.standard_normal((TERM_M, TERM_N))
    rows[f"prefix_score_matrix coordinate m={TERM_M} n={TERM_N}"] = _call_ms(
        lambda x: predictor.prefix_score_matrix(coordinate, x), [X], LAYER_REPEATS
    )

    spec = simulator.WalkSpec(n=WALK_N, seed=SEED)
    # named after the deleted one-delta wrapper, so that BENCH_*.json rows line up
    rows[f"walk engine empirical_stop_error n={WALK_N} trials={WALK_TRIALS}"] = _call_ms(
        lambda s: simulator.empirical_stop_error_grid(s, [0.1], trials=WALK_TRIALS)[0], [spec], LAYER_REPEATS
    )
    spec = simulator.WalkSpec(n=BRIDGE_N, scale=math.sqrt(1.0 / BRIDGE_N), seed=SEED)
    taus = [0.5, 1.0, 1.5, 2.0]  # the theory suite's bridge boundaries
    rows[f"walk engine empirical_bridge exact n={BRIDGE_N} trials={WALK_TRIALS}"] = _call_ms(
        lambda s: simulator.empirical_bridge_crossing_grid(s, taus, trials=WALK_TRIALS, mode="exact"),
        [spec],
        LAYER_REPEATS,
    )
    return rows


def _run_cli(argv: list[str]) -> None:
    from stst import cli

    if cli.main(argv) != 0:
        raise RuntimeError(f"stst {argv[0]} failed")


def _pipeline_pass(data_path: str) -> None:
    """train -> calibrate -> sweep -> pr through the CLI, into a fresh directory."""
    import csv

    import numpy as np

    from stst.core import ConfidenceParams, Direction, make_stopping_rule
    from stst.predictor import load_model

    with tempfile.TemporaryDirectory() as out:
        p = lambda name: os.path.join(out, name)  # noqa: E731
        _run_cli([
            "train", "--data", data_path, "--test-fraction", "0.3", "--split-seed", "1", "--seed", "2",
            "--model-out", p("model.npz"), "--train-out", p("train.txt"), "--test-out", p("test.txt"),
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


def _write_pipeline_data(path: str) -> str:
    """Write the pipeline's sparse text file; returns the row name."""
    import numpy as np
    from scipy import sparse

    from stst import data

    rng = np.random.default_rng(PIPELINE_SEED)
    X = sparse.random(
        PIPELINE_M, PIPELINE_DIM, density=PIPELINE_DENSITY, format="csr", random_state=rng,
        data_rvs=rng.standard_normal,
    )
    y = np.where(X @ rng.standard_normal(PIPELINE_DIM) >= 0.0, 1, -1)
    data.serialize_sparse(data.Dataset(X=X, y=y), path)
    return f"cli pipeline train-calibrate-sweep-pr {PIPELINE_M}x{PIPELINE_DIM} nnz={X.nnz}"


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


def _pipeline_memory() -> dict:
    """Peak RSS of one pipeline pass, and this process's own peak when it
    spawns that pass, the floor under the reading. A child of its own writes
    the data file, so building the data set does not raise that floor."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "data.txt")
        _child("_write_pipeline_data", path)
        spawner = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {"peak_rss_mb": _child("_pipeline_pass", path)[0], "spawner_peak_rss_mb": spawner}


def _pipeline_row(memory: dict) -> dict:
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "data.txt")
        name = _write_pipeline_data(path)
        return {name: {**_call_ms(_pipeline_pass, [path], LAYER_REPEATS), **memory}}


def _sweep_pass(m: str, n: str, grid: str) -> None:
    """run_sweep on generated inputs of m rows and n terms; prints the
    seconds the call took."""
    import numpy as np

    from stst import bench

    model, test = _sweep_inputs(np.random.default_rng(SEED + 3), int(m), int(n))
    t0 = time.perf_counter()
    bench.run_sweep(model, test, 0.0, grid=grid if grid == "exhaustive" else int(grid))
    print(time.perf_counter() - t0)


def _child_sweep_row(m: int, n: int, grid: str) -> dict:
    """Single-call times of _sweep_pass, one fresh child interpreter each;
    a child past EXHAUSTIVE_LIMIT_S is stopped and ends the row."""
    times = []
    for _ in range(SWEEP_REPEATS):
        done = _child("_sweep_pass", str(m), str(n), grid, timeout=EXHAUSTIVE_LIMIT_S)
        if done is None:
            return {"timed_out_after_s": EXHAUSTIVE_LIMIT_S, "calls": len(times)}
        times.append(float(done[1].split()[-1]))
    return _quartiles(times)


def _theory_pass(path: str) -> None:
    _run_cli(["theory", "--seed", str(THEORY_SEED), "-o", path])


def _theory_row(peak_rss_mb: float) -> dict:
    with tempfile.TemporaryDirectory() as out:
        name = f"cli theory default config seed={THEORY_SEED}"
        timing = _call_ms(_theory_pass, [os.path.join(out, "theory.csv")], LAYER_REPEATS)
        return {name: {**timing, "peak_rss_mb": peak_rss_mb}}


def _stopping_time_pass() -> None:
    from stst import simulator

    spec = simulator.WalkSpec(n=STOPPING_N, step="rademacher", scale=0.1, drift=0.1, seed=SEED)
    simulator.empirical_stopping_time(spec, 0.1, trials=STOPPING_TRIALS)


def _stopping_time_row(peak_rss_mb: float) -> dict:
    name = f"walk engine empirical_stopping_time rademacher n={STOPPING_N} trials={STOPPING_TRIALS}"
    timing = _call_ms(lambda _: _stopping_time_pass(), [None], LAYER_REPEATS)
    return {name: {**timing, "peak_rss_mb": peak_rss_mb}}


def _cold_import_row() -> dict:
    import subprocess

    import stst

    env = dict(os.environ, PYTHONPATH=str(Path(stst.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", "import stst.cli"]
    return {"cli cold import": _call_ms(lambda _: subprocess.run(argv, env=env, check=True), [None], COLD_IMPORTS)}


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
    import numpy as np

    from stst import bench, predictor
    from stst.core import Direction, StoppingRule

    # the children run first, while this process is small (see _child)
    theory_peak_rss_mb = _child("_theory_pass", os.devnull)[0]
    stopping_peak_rss_mb = _child("_stopping_time_pass")[0]
    pipeline_memory = _pipeline_memory()
    m, n = SWEEP_SIZES[-1]
    sweep_peak_rss_mb = _child("_sweep_pass", str(m), str(n), "50")[0]
    parse_peak_rss_mb, parse_rows = _parse_children()
    layer_memory = {
        "serialize": _serialize_memory(),
        "parse": parse_peak_rss_mb,
        "calibrate per_term": _child("_calibrate_pass", "per_term")[0],
        "calibrate score": _child("_calibrate_pass", "score")[0],
    }
    rows = {**_cold_import_row(), **parse_rows}
    no_stop = StoppingRule(0.0, -math.inf, Direction.REJECT_BELOW)
    never_crossed = StoppingRule(0.0, -sys.float_info.max, Direction.REJECT_BELOW)
    for name, model, X in _models():
        predictor.full_predict(model, X[0])  # warm caches and lazy imports
        rows[f"{name} attentive tau=-inf"] = _call_ms(lambda x: predictor.attentive_predict(model, x, no_stop), X)
        rows[f"{name} attentive tau=finite"] = _call_ms(
            lambda x: predictor.attentive_predict(model, x, never_crossed), X
        )
        rows[f"{name} full"] = _call_ms(lambda x: predictor.full_predict(model, x), X)
        if name in CROSSING_ROWS:
            tau = float(np.median(predictor.prefix_score_matrix(model, X)[:, :-1].min(axis=1)))
            crossed = StoppingRule(0.0, tau, Direction.REJECT_BELOW)
            terms = [predictor.attentive_predict(model, x, crossed).terms_evaluated for x in X]
            rows[f"{name} attentive tau=crossing"] = {
                **_call_ms(lambda x: predictor.attentive_predict(model, x, crossed), X),
                "terms_fraction": sum(terms) / (len(terms) * model.n),
            }

    rng = np.random.default_rng(SEED + 1)
    model, test = _sweep_inputs(rng, BATCH_M, BATCH_N)
    prefix = predictor.prefix_score_matrix(model, test.X)
    tau = float(np.median(prefix[:, :-1].min(axis=1)))
    rule = StoppingRule(0.0, tau, Direction.REJECT_BELOW)
    size = f"m={BATCH_M} n={BATCH_N}"
    rows[f"attentive_from_prefix {size}"] = _call_ms(lambda p: predictor.attentive_from_prefix(p, rule), [prefix])
    rows[f"budgeted_from_prefix {size} b={BATCH_N // 2}"] = _call_ms(
        lambda p: predictor.budgeted_from_prefix(p, BATCH_N // 2, 0.0), [prefix]
    )
    del prefix
    rows[f"predict_rows attentive {size}"] = _call_ms(
        lambda X: predictor.predict_rows(model, X, rule.theta, rule), [test.X]
    )
    rows[f"predict_rows full {size}"] = _call_ms(lambda X: predictor.predict_rows(model, X, rule.theta), [test.X])
    for m, n in SWEEP_SIZES:
        model, test = _sweep_inputs(rng, m, n)
        rows[f"run_sweep grid=50 m={m} n={n}"] = _call_ms(
            lambda t: bench.run_sweep(model, t, 0.0, grid=50), [test], SWEEP_REPEATS
        )
    rows[f"run_sweep grid=50 m={m} n={n}"]["peak_rss_mb"] = sweep_peak_rss_mb
    m, n = SWEEP_SIZES[0]
    model, test = _sweep_inputs(rng, m, n)
    rows[f"run_sweep grid=exhaustive m={m} n={n}"] = _call_ms(
        lambda t: bench.run_sweep(model, t, 0.0, grid="exhaustive"), [test], SWEEP_REPEATS
    )
    m, n = SWEEP_SIZES[-1]
    rows[f"run_sweep grid=exhaustive m={m} n={n}"] = _child_sweep_row(m, n, "exhaustive")
    rows.update(_layer_rows(np.random.default_rng(SEED + 2), layer_memory))
    rows.update(_pipeline_row(pipeline_memory))
    rows.update(_theory_row(theory_peak_rss_mb))
    rows.update(_stopping_time_row(stopping_peak_rss_mb))
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
