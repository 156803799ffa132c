import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from stst import Dataset, Direction, StoppingRule, bench, coordinate_model, data, precision_recall, run_sweep
from stst.bench import SweepRecord, TheoryConfig, pr_csv, run_theory_suite, sweep_csv, theory_csv
from stst.calibration import measure_stop_error
from stst.errors import ParameterError, UndefinedRateError
from stst.predictor import attentive_from_prefix, budgeted_from_prefix, full_from_prefix, prefix_score_matrix

from conftest import BENCH_THETA


@pytest.fixture(scope="module")
def sweep_records(synthetic_bench):
    return run_sweep(synthetic_bench.model, synthetic_bench.test, theta=BENCH_THETA, grid=50)


class TestRunSweep:
    def test_layout(self, sweep_records, synthetic_bench):
        assert sweep_records[0].mode == "full"
        attentive = [r for r in sweep_records if r.mode == "attentive"]
        budgeted = [r for r in sweep_records if r.mode == "budgeted"]
        assert len(attentive) == len(budgeted) == 50
        m = synthetic_bench.test.n_examples
        for r in sweep_records:
            assert r.tp + r.fp + r.tn + r.fn == m
            assert 1 <= r.mean_terms <= synthetic_bench.model.n

    def test_lowest_grid_point_matches_full(self, sweep_records):
        # the grid starts at the observed minimum partial score; a strict
        # crossing below it never happens, so the pass reduces to full
        full = sweep_records[0]
        first_att = next(r for r in sweep_records if r.mode == "attentive")
        assert first_att.mean_terms == full.mean_terms
        assert first_att.stop_error_rate == 0.0
        assert (first_att.tp, first_att.fp, first_att.tn, first_att.fn) == (
            full.tp,
            full.fp,
            full.tn,
            full.fn,
        )

    def test_budget_pairing(self, sweep_records):
        attentive = [r for r in sweep_records if r.mode == "attentive"]
        budgeted = [r for r in sweep_records if r.mode == "budgeted"]
        n = int(sweep_records[0].mean_terms)
        for a, b in zip(attentive, budgeted):
            assert b.budget == min(max(round(a.mean_terms), 1), n)

    def test_mean_terms_monotone_in_tau(self, sweep_records):
        attentive = [r for r in sweep_records if r.mode == "attentive"]
        taus = [r.tau for r in attentive]
        assert taus == sorted(taus)
        terms = [r.mean_terms for r in attentive]
        assert all(a >= b for a, b in zip(terms, terms[1:]))

    def test_csv_deterministic_and_excludes_wall_time(self, synthetic_bench, sweep_records):
        buf1 = io.StringIO()
        sweep_csv(sweep_records, buf1)
        again = run_sweep(synthetic_bench.model, synthetic_bench.test, theta=BENCH_THETA, grid=50)
        buf2 = io.StringIO()
        sweep_csv(again, buf2)
        assert buf1.getvalue() == buf2.getvalue()
        assert "wall_time" not in buf1.getvalue().splitlines()[0]

    def test_int_theta_written_as_float(self, synthetic_bench, sweep_records):
        # a float column stays a float when the caller passes an int
        buf_int, buf_float = io.StringIO(), io.StringIO()
        sweep_csv(run_sweep(synthetic_bench.model, synthetic_bench.test, theta=0, grid=5), buf_int)
        sweep_csv(run_sweep(synthetic_bench.model, synthetic_bench.test, theta=0.0, grid=5), buf_float)
        assert buf_int.getvalue() == buf_float.getvalue()
        assert all(line.split(",")[3] == "0.0" for line in buf_int.getvalue().splitlines()[1:])

    def test_exhaustive_grid(self, synthetic_bench):
        records = run_sweep(synthetic_bench.model, synthetic_bench.test, theta=BENCH_THETA, grid="exhaustive")
        attentive = [r for r in records if r.mode == "attentive"]
        assert len(attentive) >= 10
        assert all(r.tau < BENCH_THETA for r in attentive)

    def test_uncalibrated_model_warns(self, synthetic_bench):
        with pytest.warns(UserWarning, match="mu is all zero"):
            run_sweep(synthetic_bench.raw_model, synthetic_bench.test, theta=0.0, grid=3)

    def test_empty_grid_rejected(self):
        from stst import Dataset

        model = coordinate_model([1.0, 1.0], mu=[0.0, 0.1], dim=2)
        ds = Dataset(X=np.ones((4, 2)), y=np.array([1, 1, -1, -1]))
        with pytest.raises(ParameterError, match="nothing to sweep"):
            run_sweep(model, ds, theta=-10.0, grid=5)

    def test_no_full_positive_row_rejected(self):
        # every row's S = (1.0, 1.9) ends below theta: the stop-error rate has no denominator
        model = coordinate_model([1.0, 1.0], mu=[0.0, 0.1], dim=2)
        ds = Dataset(X=np.ones((4, 2)), y=np.array([1, 1, -1, -1]))
        with pytest.raises(UndefinedRateError, match="no examples with full label"):
            run_sweep(model, ds, theta=5.0, grid=5)

    @pytest.mark.parametrize("grid", [2.7, 3.0, True, False, "abc", "50", 0, -1, None])
    def test_grid_must_be_a_whole_count_or_exhaustive(self, synthetic_bench, monkeypatch, grid):
        def refused(*args, **kwargs):
            raise AssertionError("a block of prefix scores was evaluated for a bad grid")

        monkeypatch.setattr(bench, "_prefix_rows", refused)
        with pytest.raises(ParameterError, match="grid must be an integer >= 1 or 'exhaustive'"):
            run_sweep(synthetic_bench.model, synthetic_bench.test, theta=BENCH_THETA, grid=grid)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_theta_must_be_finite(self, synthetic_bench, monkeypatch, theta):
        def refused(*args, **kwargs):
            raise AssertionError("a block of prefix scores was evaluated for a non-finite theta")

        monkeypatch.setattr(bench, "_prefix_rows", refused)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's linspace warning on inf came first
            with pytest.raises(ParameterError, match="theta must be finite"):
                run_sweep(synthetic_bench.model, synthetic_bench.test, theta=theta, grid=50)

    def test_numpy_integer_grid(self, synthetic_bench):
        records = run_sweep(synthetic_bench.model, synthetic_bench.test, theta=BENCH_THETA, grid=np.int64(5))
        want = run_sweep(synthetic_bench.model, synthetic_bench.test, theta=BENCH_THETA, grid=5)
        assert [r.tau for r in records] == [r.tau for r in want]


def reference_sweep(model, test, theta, grid):
    """The sweep as one whole prefix matrix decides it: the grid between its
    lowest cell and theta (or every distinct row minimum below theta), and
    per tau an attentive pass and a budgeted pass at its rounded mean."""
    prefix = prefix_score_matrix(model, test.X)
    n = prefix.shape[1]
    full = full_from_prefix(prefix, theta)

    def record(mode, preds, mean_terms, tau=None, budget=None, stop_error_rate=0.0):
        pos, pred_pos = test.y == 1, preds.label == 1
        tp, fp = int((pred_pos & pos).sum()), int((pred_pos & ~pos).sum())
        tn, fn = int((~pred_pos & ~pos).sum()), int((~pred_pos & pos).sum())
        return SweepRecord(mode, tau, budget, theta, tp, fp, tn, fn, mean_terms, stop_error_rate, 0.0)

    if grid == "exhaustive":
        taus = np.unique(prefix.min(axis=1))
        taus = taus[taus < theta]
    else:
        taus = np.linspace(prefix.min(), theta, num=grid, endpoint=False)
    records = [record("full", full, float(n))]
    for tau in taus.tolist():
        att = attentive_from_prefix(prefix, StoppingRule(theta, tau, Direction.REJECT_BELOW))
        mean_terms = float(np.mean(att.terms))
        records.append(record("attentive", att, mean_terms, tau=tau, stop_error_rate=measure_stop_error(att, full, 1)))
        budget = min(max(round(mean_terms), 1), n)
        bud = budgeted_from_prefix(prefix, budget, theta)
        err = measure_stop_error(bud, full, 1) if budget < n else 0.0
        records.append(record("budgeted", bud, float(budget), budget=budget, stop_error_rate=err))
    return records


def sweep_fields(records):
    """Every SweepRecord field but wall_time, with its type."""
    names = [f.name for f in dataclasses.fields(SweepRecord) if f.name != "wall_time"]
    return [tuple((type(getattr(r, name)), getattr(r, name)) for name in names) for r in records]


# halves are exact in binary, so partial sums tie with each other, with
# grid taus (the exhaustive grid is made of row minima) and with theta
HALVES = st.integers(-4, 4).map(lambda v: v / 2)


@st.composite
def sweep_cases(draw):
    n = draw(st.sampled_from([1, 2]) | st.integers(3, 70))
    m = draw(st.integers(1, 24))
    X = np.array(draw(st.lists(HALVES, min_size=m * n, max_size=m * n))).reshape(m, n)
    weights = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.5, 1.0, 2.0]), min_size=n, max_size=n))
    mu = draw(st.lists(HALVES, min_size=n, max_size=n))
    y = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=m, max_size=m)))
    if draw(st.booleans()):
        X = sparse.csr_matrix(X)
    return coordinate_model(weights, mu=mu, dim=n), Dataset(X=X, y=y), draw(HALVES)


class TestStreamedSweep:
    """run_sweep streams its test set; every field but wall_time matches the
    whole-prefix-matrix reference, whatever the blocks and record chunks."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=sweep_cases(),
        grid=st.sampled_from([1, 50, "exhaustive"]),
        block_cells=st.sampled_from([1, 5, 64, data._BLOCK_CELLS]),
        record_chunk=st.sampled_from([1, 3, bench._RECORD_CHUNK]),
    )
    # a single row whose first score ties the one exhaustive tau
    @example(
        case=(coordinate_model([1.0, 1.0], mu=[0.5, -0.5], dim=2), Dataset(X=np.array([[0.0, 1.0]]), y=np.array([1])), 0.0),
        grid="exhaustive", block_cells=1, record_chunk=1,
    )
    # a row falling to its lowest score at S_n, and one whose S_n ties theta
    @example(
        case=(
            coordinate_model([1.0, 1.0], mu=[0.5, -0.5], dim=2),
            Dataset(X=np.array([[0.0, -1.0], [0.0, 1.0]]), y=np.array([1, -1])),
            1.0,
        ),
        grid=50, block_cells=1, record_chunk=1,
    )
    def test_matches_the_whole_prefix_reference(self, case, grid, block_cells, record_chunk):
        model, test, theta = case
        prefix = prefix_score_matrix(model, test.X)
        # cases the sweep refuses: nothing below theta, or no full +1 row
        if not prefix.min() < theta or not (prefix[:, -1] >= theta).any():
            return
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("ignore")  # mu may be all zero
            patch.setattr(data, "_BLOCK_CELLS", block_cells)
            patch.setattr(bench, "_RECORD_CHUNK", record_chunk)
            got = run_sweep(model, test, theta, grid)
        want = reference_sweep(model, test, theta, grid)
        assert sweep_fields(got) == sweep_fields(want)

    def test_peak_memory_below_a_quarter_of_the_prefix_matrix(self):
        # a 4000 x 1000 prefix matrix is 32 MB; the streamed sweep holds one
        # row block, per-row scalars and about 36 record lows a row
        rng = np.random.default_rng(18)
        m, n = 4000, 1000
        weights = rng.standard_normal(n) / math.sqrt(n)
        model = coordinate_model(weights, mu=0.1 * rng.standard_normal(n), dim=n)
        X = rng.standard_normal((m, n))
        test = Dataset(X=X, y=np.where(X @ weights + 0.3 * rng.standard_normal(m) >= 0.0, 1, -1))
        tracemalloc.start()
        try:
            run_sweep(model, test, 0.0, grid=50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * 8 / 4


class TestPrecisionRecall:
    def test_perfect_separation_has_unit_average_precision(self):
        scores = np.array([5.0, 4.0, 3.0, -1.0, -2.0])
        truth = np.array([1, 1, 1, -1, -1])
        points = precision_recall(scores, truth)
        # average precision: sum precision * recall increment
        ap = 0.0
        prev_recall = 0.0
        for p in points:
            ap += p.precision * (p.recall - prev_recall)
            prev_recall = p.recall
        assert ap == pytest.approx(1.0)

    def test_all_scores_equal_single_point(self):
        points = precision_recall(np.zeros(8), np.array([1, 1, -1, -1, -1, -1, -1, -1]))
        assert len(points) == 1
        assert points[0].recall == 1.0
        assert points[0].precision == pytest.approx(0.25)

    def test_against_quadratic_brute_force(self):
        rng = np.random.default_rng(51)
        scores = np.round(rng.standard_normal(300), 2)  # force some ties
        truth = rng.choice([-1, 1], size=300)
        if not (truth == 1).any():
            truth[0] = 1
        points = precision_recall(scores, truth)
        positives = (truth == 1).sum()
        brute = []
        for t in sorted(set(scores), reverse=True):
            pred = scores >= t
            tp = int((pred & (truth == 1)).sum())
            brute.append((float(t), tp / int(pred.sum()), tp / int(positives)))
        got = [(p.threshold, p.precision, p.recall) for p in points]
        assert got == pytest.approx(brute)

    def test_thresholds_descend(self):
        rng = np.random.default_rng(52)
        points = precision_recall(rng.standard_normal(50), rng.choice([-1, 1], size=50))
        ts = [p.threshold for p in points]
        assert ts == sorted(ts, reverse=True)

    @pytest.mark.parametrize(
        "scores,truth", [([1.0, 2.0, 3.0], [1, -1]), ([[1.0, 2.0]], [[1, -1]]), (1.0, 1)]
    )
    def test_misaligned_inputs_rejected(self, scores, truth):
        with pytest.raises(ParameterError, match="aligned 1-d arrays"):
            precision_recall(scores, truth)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scores_rejected(self, bad):
        # a NaN score gave a threshold=nan point
        with pytest.raises(ParameterError, match="scores must be finite"):
            precision_recall([0.1, bad, 0.3], [1, -1, 1])

    @pytest.mark.parametrize("label", [0, 2, 0.5, 1.5])
    def test_truth_outside_plus_minus_one_rejected(self, label):
        # a label 0 was counted as a negative, and 1.5 cast to 1
        with pytest.raises(ParameterError, match="truth labels must be \\+1 or -1"):
            precision_recall([0.1, 0.2, 0.3], [1, label, -1])

    def test_no_positives_signaled(self):
        with pytest.raises(UndefinedRateError):
            precision_recall(np.array([1.0, 2.0]), np.array([-1, -1]))

    def test_point_mass_cliff_from_early_stops(self, synthetic_bench):
        # early-stopped examples all report tau, putting a point mass in the
        # score distribution: one PR point carries a large recall jump
        from stst import Direction, StoppingRule
        from stst.predictor import attentive_from_prefix, prefix_score_matrix

        prefix = prefix_score_matrix(synthetic_bench.model, synthetic_bench.test.dense())
        rule = StoppingRule(theta=0.0, tau=-1.0, direction=Direction.REJECT_BELOW)
        preds = attentive_from_prefix(prefix, rule)
        scores = np.array([p.reported_score for p in preds])
        assert (scores == -1.0).sum() > 10
        points = precision_recall(scores, synthetic_bench.test.y)
        jumps = np.diff([0.0] + [p.recall for p in points])
        assert jumps.max() > 0.05

    def test_csv_shape(self):
        points = precision_recall(np.array([2.0, 1.0]), np.array([1, -1]))
        buf = io.StringIO()
        pr_csv(points, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "threshold,precision,recall"
        assert len(lines) == 3


@pytest.fixture(scope="module")
def quick_results():
    # n stays at 2000: the discrete-walk undershoot at tau = 0.5 only fits
    # the 0.02 tolerance for walks this long
    config = TheoryConfig(
        bridge_trials=20_000,
        stop_error_trials=30_000,
        stopping_ns=(100, 1_000),
        stopping_trials=2_000,
    )
    return run_theory_suite(config)


class TestTheorySuite:
    def test_row_structure(self, quick_results):
        experiments = [row.experiment for row, _ in quick_results]
        assert experiments.count("bridge_crossing") == 4
        assert experiments.count("stop_error") == 3
        assert experiments.count("stopping_time") == 2
        assert experiments.count("wald_identity") == 2
        assert experiments[-1] == "stopping_time_slope"

    def test_bridge_rows_pass(self, quick_results):
        assert all(ok for row, ok in quick_results if row.experiment == "bridge_crossing")

    def test_wald_rows_pass(self, quick_results):
        assert all(ok for row, ok in quick_results if row.experiment == "wald_identity")

    def test_csv_has_passed_column(self, quick_results):
        buf = io.StringIO()
        theory_csv(quick_results, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].endswith(",passed")
        assert all(line.endswith(("true", "false")) for line in lines[1:])


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"n": 0}, "n must be >= 1"),
        ({"n": 2.5}, "n must be an integer"),
        ({"n": True}, "n must be an integer"),
        ({"bridge_trials": 0}, "bridge_trials must be >= 1"),
        ({"stop_error_trials": 0}, "stop_error_trials must be >= 1"),
        ({"stopping_trials": 1}, "stopping_trials must be >= 2"),
        ({"stopping_ns": (100,)}, "two or more distinct lengths"),
        ({"stopping_ns": (100, 100)}, "two or more distinct lengths"),
        ({"stopping_ns": (0, 100)}, "two or more distinct lengths >= 1"),
        ({"stopping_ns": (100, 2.5)}, "stopping_ns must hold integers"),
        ({"stopping_ns": (True, 100)}, "stopping_ns must hold integers"),
        ({"seed": -1}, "seed must be >= 0"),
    ],
    ids=["n", "float-n", "bool-n", "bridge-trials", "stop-error-trials", "stopping-trials", "one-length",
         "repeated-length", "zero-length", "float-length", "bool-length", "seed"],
)
def test_theory_config_checked_before_any_walk(monkeypatch, fields, message):
    def refused(*args, **kwargs):
        raise AssertionError("a walk ran before the config was checked")

    for walk in ("empirical_bridge_crossing_grid", "empirical_stop_error_grid", "empirical_stopping_time"):
        monkeypatch.setattr(bench, walk, refused)
    with pytest.raises(ParameterError, match=message):
        run_theory_suite(TheoryConfig(**fields))


def test_theory_config_takes_numpy_integers():
    config = TheoryConfig(n=np.int64(50), stopping_ns=(np.int32(10), 20))
    assert config.n == 50 and config.stopping_ns == (10, 20)
