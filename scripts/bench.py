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

Batch rows: on a fixed prefix matrix (coordinate model, m = 10000 examples,
n = 1000 terms), attentive_from_prefix with tau at the median of the rows'
lowest partial sums (about half the rows stop) and budgeted_from_prefix at
b = n/2; and run_sweep with grid 50 at m = 2000, n = 200 and m = 10000,
n = 1000 (SWEEP_REPEATS calls each).

Layer rows (LAYER_REPEATS calls each): on one sparse dataset of 4000 rows x
2000 dims at 2% density (160k nonzeros, labels from a planted direction),
parse_sparse of its text and serialize_sparse back to text; train_linear
for one epoch on the dense and on the CSR copy; calibrate of the trained
model on the CSR copy; term_matrix of coordinate, linear-kernel and RBF
models at m = 2000 examples and n = 2000 terms (kernel dim 64), and
prefix_score_matrix of the coordinate one; and the walk engine through
empirical_stop_error_grid at one delta, n = 1000, 16384 trials.

End-to-end rows (LAYER_REPEATS passes each): the CLI flow train ->
calibrate -> sweep -> pr through stst.cli.main, into a fresh temporary
directory per pass, on a sparse text file of 3000 rows x 2000 dims at 2%
density (labels from a planted direction, seed PIPELINE_SEED): train with a
0.3 test split, calibrate per-term on a 0.25 slice of the training part,
sweep with grid 50, and pr in attentive mode at the delta = 0.1 tau; and
stst theory at the default TheoryConfig with base seed THEORY_SEED.

Memory: the pipeline and theory rows, and a walk-engine row running
empirical_stopping_time on rademacher walks of STOPPING_N steps (the
theory suite's largest stopping-time run: scale 0.1, drift 0.1,
delta 0.1, STOPPING_TRIALS trials), each also hold peak_rss_mb: the peak
resident set of one more call, run alone in a fresh child interpreter on
the same stst source before any other row, read from that child's own
rusage (in MiB, as ru_maxrss / 1024).

Cold-import row: COLD_IMPORTS fresh interpreters, one after another, each
running `import stst.cli` from the same stst source: the start-up every
stst command pays before it does any work.
"""

import argparse
import io
import json
import math
import os
import platform
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
REPEATS = 5
SEED = 20_240_004
BATCH_M, BATCH_N = 10_000, 1_000
SWEEP_SIZES = ((2_000, 200), (10_000, 1_000))
SWEEP_REPEATS = 3
LAYER_M, LAYER_DIM, LAYER_DENSITY = 4_000, 2_000, 0.02
LAYER_REPEATS = 3
TERM_M, TERM_N = 2_000, 2_000
WALK_N, WALK_TRIALS = 1_000, 16_384
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


def _layer_rows(rng) -> dict:
    from stst import calibration, data, predictor, simulator, trainer

    rows = {}
    dataset = _layer_dataset(rng)
    size = f"{LAYER_M}x{LAYER_DIM} nnz={dataset.X.nnz}"
    buf = io.StringIO()
    data.serialize_sparse(dataset, buf)
    text = buf.getvalue()
    rows[f"parse_sparse {size}"] = _call_ms(lambda t: data.parse_sparse(io.StringIO(t)), [text], LAYER_REPEATS)
    rows[f"serialize_sparse {size}"] = _call_ms(
        lambda d: data.serialize_sparse(d, io.StringIO()), [dataset], LAYER_REPEATS
    )
    config = trainer.TrainConfig(lambda_reg=0.01, epochs=1, seed=0)
    dense = data.Dataset(X=dataset.dense(), y=dataset.y)
    for kind, ds in (("dense", dense), ("csr", dataset)):
        rows[f"train_linear {kind} {size} epochs=1"] = _call_ms(
            lambda d: trainer.train_linear(d, config), [ds], LAYER_REPEATS
        )
    model = trainer.train_linear(dense, config)
    del dense
    rows[f"calibrate {size}"] = _call_ms(lambda d: calibration.calibrate(model, d, 1), [dataset], LAYER_REPEATS)

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


def _child_peak_rss_mb(call: str, *args: str) -> float:
    """Peak RSS of `bench.<call>(*args)` run alone in a fresh child interpreter.

    Call it before this process grows: a child's ru_maxrss starts at its
    parent's high-water mark (`python -c pass` spawned after a 200 MB
    allocation reads 218 MB), so this process's own peak when it spawns the
    child is a floor under the reading. The child's rusage comes from wait4,
    so each reading is that child's alone.
    """
    import subprocess

    import stst

    src = str(Path(stst.__file__).resolve().parents[1])
    code = f"import sys; sys.path[:0] = sys.argv[1:3]; import bench; bench.{call}(*sys.argv[3:])"
    child = subprocess.Popen([sys.executable, "-c", code, src, str(Path(__file__).resolve().parent), *args])
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    return usage.ru_maxrss / 1024.0


def _pipeline_peak_rss_mb() -> float:
    """Peak RSS of one pipeline pass; about 73 MB of this process (numpy 2.4,
    after writing the data file) is the floor under the reading."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "data.txt")
        _write_pipeline_data(path)
        return _child_peak_rss_mb("_pipeline_pass", path)


def _pipeline_row(peak_rss_mb: float) -> dict:
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "data.txt")
        name = _write_pipeline_data(path)
        return {name: {**_call_ms(_pipeline_pass, [path], LAYER_REPEATS), "peak_rss_mb": peak_rss_mb}}


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
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_ms": median * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3, "calls": len(times)}


def measure() -> dict:
    import numpy as np

    from stst import bench, predictor
    from stst.core import Direction, StoppingRule

    # the children run first, while this process is small (see _child_peak_rss_mb)
    theory_peak_rss_mb = _child_peak_rss_mb("_theory_pass", os.devnull)
    stopping_peak_rss_mb = _child_peak_rss_mb("_stopping_time_pass")
    pipeline_peak_rss_mb = _pipeline_peak_rss_mb()
    rows = _cold_import_row()
    no_stop = StoppingRule(0.0, -math.inf, Direction.REJECT_BELOW)
    never_crossed = StoppingRule(0.0, -sys.float_info.max, Direction.REJECT_BELOW)
    for name, model, X in _models():
        predictor.full_predict(model, X[0])  # warm caches and lazy imports
        rows[f"{name} attentive tau=-inf"] = _call_ms(lambda x: predictor.attentive_predict(model, x, no_stop), X)
        rows[f"{name} attentive tau=finite"] = _call_ms(
            lambda x: predictor.attentive_predict(model, x, never_crossed), X
        )
        rows[f"{name} full"] = _call_ms(lambda x: predictor.full_predict(model, x), X)

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
    for m, n in SWEEP_SIZES:
        model, test = _sweep_inputs(rng, m, n)
        rows[f"run_sweep grid=50 m={m} n={n}"] = _call_ms(
            lambda t: bench.run_sweep(model, t, 0.0, grid=50), [test], SWEEP_REPEATS
        )
    rows.update(_layer_rows(np.random.default_rng(SEED + 2)))
    rows.update(_pipeline_row(pipeline_peak_rss_mb))
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
        print(f"{name:64s} {r['median_ms']:10.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
