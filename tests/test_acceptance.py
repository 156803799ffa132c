"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. All
randomness is seeded, so every number here is a deterministic regression
value. Criterion 2 measures the stop-error conditioned on the sign of the
full score and asserts the [0.5 delta, 1.5 delta] band. It places the
boundary with conditioning="sign", the placement solved for that
conditioning; the paper's default placement is exact only for an endpoint
pinned at theta and measures about 0.3x delta here (its conservativeness is
checked in test_simulator.py and by the theory suite's stop_error rows).
"""

import io
import math
import time

import numpy as np
import pytest

from stst import (
    ConfidenceParams,
    Dataset,
    Direction,
    KernelSpec,
    StoppingRule,
    WalkSpec,
    attentive_predict,
    budgeted_predict,
    coordinate_model,
    crossing_magnitude,
    empirical_stopping_time,
    full_predict,
    kernel_model,
    load_model,
    parse_sparse,
    permute_terms,
    run_sweep,
    save_model,
    serialize_sparse,
)
from stst.calibration import measure_stop_error
from stst.cli import main as cli_main
from stst.predictor import attentive_from_prefix, full_from_prefix, prefix_score_matrix
from stst.simulator import empirical_bridge_crossing_grid, empirical_stop_error_grid

from conftest import BENCH_DELTA, BENCH_THETA


def report(number, name, ok, detail=""):
    print(f"[acceptance {number}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


def test_criterion_1_bridge_crossing_closed_form():
    taus = (0.5, 1.0, 1.5, 2.0)
    targets = (0.6065306597126334, 0.1353352832366127, 0.011108996538242306, 0.00033546262790251185)
    n, trials = 2000, 100_000
    spec = WalkSpec(n=n, step="gaussian", scale=math.sqrt(1.0 / n), seed=20_240_001)
    start = time.perf_counter()
    estimates = empirical_bridge_crossing_grid(spec, taus, theta=0.0, trials=trials, mode="exact")
    elapsed = time.perf_counter() - start
    all_ok = True
    details = []
    for tau, target, est in zip(taus, targets, estimates):
        assert target == pytest.approx(math.exp(-2.0 * tau * tau), rel=1e-12)
        tol = max(0.02, 4.0 * est.standard_error)
        ok = abs(est.probability_hat - target) <= tol
        all_ok &= ok
        details.append(f"tau={tau}: {est.probability_hat:.5f} vs {target:.5f} (tol {tol:.4f})")
    all_ok &= elapsed < 30.0
    report(1, "bridge crossing probability", all_ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert elapsed < 30.0
    for tau, target, est in zip(taus, targets, estimates):
        assert abs(est.probability_hat - target) <= max(0.02, 4.0 * est.standard_error)


def test_criterion_2_delta_calibration_sign_conditioned():
    deltas = (0.05, 0.1, 0.2)
    n, trials = 2000, 120_000
    spec = WalkSpec(n=n, step="gaussian", scale=math.sqrt(1.0 / n), seed=20_240_002)
    estimates = empirical_stop_error_grid(spec, deltas, theta=0.0, trials=trials, conditioning="sign")
    assert all(est.accepted >= 50_000 for est in estimates)
    details = []
    in_band = []
    for delta, est in zip(deltas, estimates):
        lo, hi = 0.5 * delta, 1.5 * delta
        ok = lo <= est.probability_hat <= hi
        in_band.append(ok)
        details.append(
            f"delta={delta}: rate={est.probability_hat:.4f} band=[{lo:.3f},{hi:.3f}] "
            f"gap={est.probability_hat / delta:.2f}x"
        )
    report(2, "delta calibration under sign conditioning", all(in_band), "; ".join(details))
    assert all(in_band), (
        "sign-conditioned stop-error at the sign-placed boundary "
        "(2*Phi(-2m/sd) = delta) left the [0.5 delta, 1.5 delta] band: " + "; ".join(details)
    )


def test_criterion_3_stopping_time_scaling():
    ns = (100, 1_000, 10_000)
    delta, trials = 0.1, 10_000
    log_n, log_t = [], []
    all_ok = True
    details = []
    for i, n in enumerate(ns):
        spec = WalkSpec(n=n, step="rademacher", scale=0.1, drift=0.1, seed=20_240_003 + i)
        summary = empirical_stopping_time(spec, delta, trials=trials)
        censor_ok = summary.censored_fraction < 0.01
        wald_ok = abs(summary.wald_gap) <= 3.0 * summary.wald_gap_se
        all_ok &= censor_ok and wald_ok
        details.append(
            f"n={n}: E[T]={summary.mean_time:.2f} censored={summary.censored_fraction:.4f} "
            f"wald_gap={summary.wald_gap:+.4f} (3se {3 * summary.wald_gap_se:.4f})"
        )
        log_n.append(math.log(n))
        log_t.append(math.log(summary.mean_time))
        assert censor_ok
        assert wald_ok
    slope = float(np.polyfit(log_n, log_t, 1)[0])
    slope_ok = 0.4 <= slope <= 0.6
    all_ok &= slope_ok
    report(3, "sqrt(n) stopping time", all_ok, f"slope={slope:.4f}; " + "; ".join(details))
    assert slope_ok


def _random_models(rng, count):
    models = []
    for k in range(count):
        n = int(rng.integers(2, 40))
        kind = ("coordinate", "rbf", "linear")[k % 3]
        if kind == "coordinate":
            models.append(
                coordinate_model(
                    rng.standard_normal(n), mu=0.2 * rng.standard_normal(n), dim=n
                )
            )
        else:
            dim = int(rng.integers(2, 7))
            kernel = KernelSpec.rbf(float(rng.uniform(0.5, 2.0))) if kind == "rbf" else KernelSpec.linear()
            models.append(
                kernel_model(
                    rng.standard_normal(n),
                    rng.standard_normal((n, dim)),
                    kernel,
                    mu=0.2 * rng.standard_normal(n),
                )
            )
    return models


@pytest.mark.usefixtures("term_kernels")  # kernel models on both RBF distance bodies
def test_criterion_4_algorithmic_equivalences():
    rng = np.random.default_rng(20_240_004)
    pairs = 0
    models = _random_models(rng, 36)
    for model in models:
        sentinel = StoppingRule(theta=0.0, tau=-math.inf, direction=Direction.REJECT_BELOW)
        shuffled = permute_terms(model, seed=int(rng.integers(2**31)))
        for _ in range(30):
            x = rng.standard_normal(model.dim)
            full = full_predict(model, x, 0.0)
            att = attentive_predict(model, x, sentinel)
            assert att.label == full.label
            assert att.reported_score == full.reported_score
            assert att.terms_evaluated == model.n and not att.stopped_early
            bud = budgeted_predict(model, x, model.n, 0.0)
            assert bud.label == full.label
            assert bud.reported_score == full.reported_score
            perm_score = full_predict(shuffled, x, 0.0).reported_score
            assert perm_score == pytest.approx(full.reported_score, rel=1e-9)
            pairs += 1
    ok = pairs >= 1000
    report(4, "algorithmic equivalences", ok, f"{pairs} randomized (model, example) pairs")
    assert ok


# measured once on the pinned benchmark seeds and frozen as a regression value
PINNED_CRITERION_5_STOP_ERROR = 0.0


def test_criterion_5_live_stop_error(synthetic_bench):
    model, report_cal, test = synthetic_bench.model, synthetic_bench.report, synthetic_bench.test
    magnitude = crossing_magnitude(ConfidenceParams(delta=BENCH_DELTA, variance=report_cal.variance_hat))
    rule = StoppingRule(theta=BENCH_THETA, tau=BENCH_THETA - magnitude, direction=Direction.REJECT_BELOW)
    prefix = prefix_score_matrix(model, test.dense())
    attentive = attentive_from_prefix(prefix, rule)
    full = full_from_prefix(prefix, BENCH_THETA)
    rate = measure_stop_error(attentive, full, condition=1)
    mean_terms = float(np.mean([p.terms_evaluated for p in attentive]))
    ok = rate <= 2.0 * BENCH_DELTA and rate == pytest.approx(PINNED_CRITERION_5_STOP_ERROR, abs=1e-12)
    report(
        5,
        "live predictor stop-error",
        ok,
        f"rate={rate:.4f} (bound {2 * BENCH_DELTA}), tau={rule.tau:.3f}, mean_terms={mean_terms:.2f}/{model.n}",
    )
    assert rate <= 2.0 * BENCH_DELTA
    assert rate == pytest.approx(PINNED_CRITERION_5_STOP_ERROR, abs=1e-12)


@pytest.fixture(scope="module")
def bench_sweep(synthetic_bench):
    return run_sweep(synthetic_bench.model, synthetic_bench.test, theta=BENCH_THETA, grid=50)


def test_criterion_6_attentive_dominates_matched_budget(bench_sweep):
    attentive = [r for r in bench_sweep if r.mode == "attentive"]
    budgeted = [r for r in bench_sweep if r.mode == "budgeted"]
    eligible = 0
    wins = 0
    for a, b in zip(attentive, budgeted):
        if a.stop_error_rate < 0.30:
            eligible += 1
            if a.stop_error_rate <= b.stop_error_rate:
                wins += 1
    ok = eligible > 0 and wins >= 0.8 * eligible
    report(6, "attentive vs matched budget", ok, f"{wins}/{eligible} grid points below 0.30 stop-error")
    assert eligible > 0
    assert wins >= 0.8 * eligible


def test_criterion_7_computation_savings(bench_sweep, synthetic_bench):
    n = synthetic_bench.model.n
    m = synthetic_bench.test.n_examples
    full = bench_sweep[0]
    full_acc = (full.tp + full.tn) / m
    best = None
    for r in bench_sweep:
        if r.mode != "attentive":
            continue
        acc = (r.tp + r.tn) / m
        if r.mean_terms <= 0.5 * n and acc >= full_acc - 0.02:
            if best is None or r.mean_terms < best[0]:
                best = (r.mean_terms, acc, r.tau)
    ok = best is not None
    detail = (
        f"mean_terms={best[0]:.2f}/{n} acc={best[1]:.4f} (full {full_acc:.4f}) at tau={best[2]:.3f}"
        if best
        else f"no grid point with mean_terms <= {0.5 * n} and accuracy within 2pp"
    )
    report(7, "computation savings", ok, detail)
    assert ok


@pytest.mark.usefixtures("term_kernels")  # kernel models on both RBF distance bodies
def test_criterion_8_serialization_round_trips(tmp_path):
    rng = np.random.default_rng(20_240_008)
    # sparse text format: 1000 random datasets
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 10))
        X = rng.standard_normal((m, dim)) * 10.0 ** rng.integers(-6, 7)
        X[rng.random((m, dim)) < 0.4] = 0.0
        y = rng.choice([-1, 1], size=m)
        ds = Dataset(X=X, y=y)
        buf = io.StringIO()
        serialize_sparse(ds, buf)
        again = parse_sparse(io.StringIO(buf.getvalue()), dim=dim)
        assert np.array_equal(ds.dense(), again.dense())
        assert np.array_equal(ds.y, again.y)
    # model containers: scores must survive bit for bit
    for kind in ("coordinate", "rbf", "linear"):
        if kind == "coordinate":
            model = coordinate_model(rng.standard_normal(15), mu=rng.standard_normal(15), dim=15)
        else:
            kernel = KernelSpec.rbf(0.8) if kind == "rbf" else KernelSpec.linear()
            model = kernel_model(rng.standard_normal(12), rng.standard_normal((12, 4)), kernel)
        path = tmp_path / f"{kind}.npz"
        save_model(model, path)
        loaded = load_model(path)
        for _ in range(25):
            x = rng.standard_normal(model.dim)
            assert full_predict(loaded, x).reported_score == full_predict(model, x).reported_score
    report(8, "serialization round trips", True, "1000 datasets exact; container scores bit-exact")


def test_criterion_9_cli_byte_determinism(tmp_path):
    synth = "dim=10,n_pos=60,n_neg=60,sep=4,std=1,seed=9"
    model = tmp_path / "m.npz"
    test_file = tmp_path / "test.txt"
    calibrated = tmp_path / "cal.npz"

    def launch(args):
        assert cli_main(args) == 0

    outputs = {}
    for tag in ("a", "b"):
        launch(
            [
                "train", "--synthetic", synth, "--test-fraction", "0.3", "--split-seed", "1",
                "--epochs", "3", "--seed", "2", "--model-out", str(model),
                "--test-out", str(test_file), "-o", str(tmp_path / f"train_{tag}.csv"),
            ]
        )
        launch(
            [
                "calibrate", "--model", str(model), "--train", str(test_file),
                "--cal-fraction", "0.5", "--cal-seed", "3",
                "--model-out", str(calibrated), "-o", str(tmp_path / f"cal_{tag}.csv"),
            ]
        )
        launch(
            [
                "sweep", "--model", str(calibrated), "--data", str(test_file),
                "--grid", "7", "-o", str(tmp_path / f"sweep_{tag}.csv"),
            ]
        )
        launch(
            [
                "pr", "--model", str(calibrated), "--data", str(test_file),
                "--mode", "attentive", "--tau", "-1.5", "-o", str(tmp_path / f"pr_{tag}.csv"),
            ]
        )
        launch(
            [
                "theory", "--bridge-trials", "4000", "--stop-error-trials", "4000",
                "--stopping-trials", "400", "-o", str(tmp_path / f"theory_{tag}.csv"),
            ]
        )
        launch(
            [
                "simulate", "--experiment", "bridge", "--n", "400", "--step", "gaussian",
                "--scale", "0.05", "--tau", "0.5", "--trials", "4000", "--mode", "exact",
                "--seed", "6", "-o", str(tmp_path / f"sim_{tag}.csv"),
            ]
        )
    names = ("train", "cal", "sweep", "pr", "theory", "sim")
    for name in names:
        a = (tmp_path / f"{name}_a.csv").read_bytes()
        b = (tmp_path / f"{name}_b.csv").read_bytes()
        assert a == b, f"{name} output differs between identical runs"
    report(9, "CLI byte determinism", True, f"{len(names)} subcommands byte-identical")
