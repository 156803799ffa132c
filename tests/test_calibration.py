from dataclasses import fields, replace

import numpy as np
import pytest

from stst import (
    Dataset,
    KernelSpec,
    Predictions,
    calibrate,
    coordinate_model,
    kernel_model,
    measure_stop_error,
)
from stst import data
from stst.calibration import CalibrationReport
from stst.errors import CalibrationError, DegenerateDataError, ParameterError, UndefinedRateError
from stst.predictor import _raw, predict_rows, term_matrix


def small_dataset(X, y):
    return Dataset(X=np.asarray(X, dtype=float), y=np.asarray(y))


def calibrated_mu(model, ds, class_used):
    return calibrate(model, ds, class_used)[0].mu


def variance_hat(model, ds, class_used, mode="score"):
    return calibrate(model, ds, class_used, mode=mode)[1].variance_hat


class TestCalibrateMu:
    def test_linear_coordinate_mean(self):
        model = coordinate_model([1.0, 1.0], dim=2)
        ds = small_dataset([[1.0, 5.0], [3.0, 7.0], [100.0, 100.0]], [1, 1, -1])
        mu = calibrated_mu(model, ds, class_used=1)
        assert mu.tolist() == [2.0, 6.0]

    def test_constant_kernel_values(self):
        # both calibration points lie at the same distance from the first two
        # support vectors, so those kernel values are constant over the class;
        # the third keeps the score variance above zero
        sv = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -2.0]])
        model = kernel_model([1.0, 1.0, 1.0], sv, KernelSpec.rbf(1.0))
        points = np.array([[0.75, 0.25], [0.25, 0.75]])
        ds = small_dataset(points, [1, 1])
        mu = calibrated_mu(model, ds, class_used=1)
        expected = np.exp(-np.sum((sv[:2] - points[0]) ** 2, axis=1) / 2.0)
        assert mu[:2] == pytest.approx(expected, rel=1e-12)

    def test_rbf_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        sv = rng.standard_normal((5, 3))
        model = kernel_model(rng.standard_normal(5), sv, KernelSpec.rbf(0.8))
        cal = rng.standard_normal((3, 3))
        ds = small_dataset(cal, [1, 1, 1])
        mu = calibrated_mu(model, ds, class_used=1)
        for i in range(5):
            vals = [np.exp(-np.sum((sv[i] - c) ** 2) / (2 * 0.8**2)) for c in cal]
            assert mu[i] == pytest.approx(sum(vals) / 3.0, rel=1e-12)

    def test_empty_class(self):
        model = coordinate_model([1.0], dim=1)
        ds = small_dataset([[1.0], [2.0]], [1, 1])
        with pytest.raises(CalibrationError):
            calibrate(model, ds, class_used=-1)

    def test_corrected_terms_center_at_zero(self):
        rng = np.random.default_rng(8)
        model = coordinate_model(rng.standard_normal(6), dim=6)
        ds = small_dataset(rng.standard_normal((40, 6)), [1] * 40)
        corrected, _ = calibrate(model, ds, class_used=1)
        means = term_matrix(corrected, ds.X).mean(axis=0)
        assert np.all(np.abs(means) < 1e-9)


class TestCalibrateVariance:
    def test_two_scores(self):
        # scores -1 and +1: unbiased variance (divisor n-1) is 2
        model = coordinate_model([1.0], dim=1)
        ds = small_dataset([[-1.0], [1.0]], [1, 1])
        assert variance_hat(model, ds, class_used=1) == pytest.approx(2.0, rel=1e-14)

    def test_identical_scores_degenerate(self):
        model = coordinate_model([1.0], dim=1)
        ds = small_dataset([[2.0], [2.0], [2.0]], [1, 1, 1])
        with pytest.raises(DegenerateDataError):
            calibrate(model, ds, class_used=1)

    def test_against_two_pass_brute_force(self):
        rng = np.random.default_rng(15)
        model = coordinate_model(rng.standard_normal(8), mu=rng.standard_normal(8), dim=8)
        ds = small_dataset(rng.standard_normal((100, 8)), [1] * 100)
        got = variance_hat(model, ds, class_used=1)
        scores = [sum(model.weights[i] * (x[i] - model.mu[i]) for i in range(8)) for x in ds.X]
        mean = sum(scores) / len(scores)
        brute = sum((s - mean) ** 2 for s in scores) / (len(scores) - 1)
        assert got == pytest.approx(brute, rel=1e-10)

    def test_per_term_mode(self):
        rng = np.random.default_rng(16)
        model = coordinate_model(rng.standard_normal(5), dim=5)
        X = rng.standard_normal((50, 5))
        ds = small_dataset(X, [1] * 50)
        got = variance_hat(model, ds, class_used=1, mode="per_term")
        brute = sum(model.weights[i] ** 2 * np.var(X[:, i], ddof=1) for i in range(5))
        assert got == pytest.approx(brute, rel=1e-10)

    def test_variance_ignores_mu_shift(self):
        rng = np.random.default_rng(17)
        model = coordinate_model(rng.standard_normal(4), dim=4)
        ds = small_dataset(rng.standard_normal((30, 4)), [1] * 30)
        shifted = replace(model, mu=rng.standard_normal(4))
        for mode in ("score", "per_term"):
            c0, r0 = calibrate(model, ds, class_used=1, mode=mode)
            c1, r1 = calibrate(shifted, ds, class_used=1, mode=mode)
            assert c0.mu.tobytes() == c1.mu.tobytes()
            assert r0.variance_hat == r1.variance_hat

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["score", "per_term"])
    def test_non_finite_variance_refused(self, mode):
        # scores of about 1e200 have a variance past the double range
        model = coordinate_model([1e200, 1.0], dim=2)
        ds = small_dataset([[0.5, 1.0], [-1.0, 2.0], [2.0, 0.0], [0.0, 0.0]], [1, 1, 1, -1])
        with pytest.raises(DegenerateDataError, match="class \\+1 have variance inf"):
            calibrate(model, ds, class_used=1, mode=mode)

    def test_needs_two_examples(self):
        model = coordinate_model([1.0], dim=1)
        ds = small_dataset([[1.0], [5.0]], [1, -1])
        with pytest.raises(CalibrationError):
            calibrate(model, ds, class_used=1)

    @pytest.mark.parametrize(
        "fields,match",
        [
            (dict(variance_hat=0.0), "variance_hat must be positive"),
            (dict(variance_hat=float("nan")), "variance_hat must be positive"),
            (dict(variance_hat=float("inf")), "variance_hat must be positive"),
            (dict(n_calibration=1), "n_calibration must be >= 2"),
            (dict(class_used=0), "class_used must be \\+1 or -1"),
        ],
    )
    def test_report_fields_checked(self, fields, match):
        with pytest.raises(ParameterError, match=match):
            CalibrationReport(**{**dict(variance_hat=1.0, n_calibration=2, class_used=1), **fields})

    def test_bad_mode(self):
        model = coordinate_model([1.0], dim=1)
        ds = small_dataset([[1.0], [2.0]], [1, 1])
        with pytest.raises(ParameterError):
            calibrate(model, ds, class_used=1, mode="bogus")


class TestCalibrate:
    def test_report_fields(self):
        rng = np.random.default_rng(19)
        model = coordinate_model(rng.standard_normal(4), dim=4)
        ds = small_dataset(rng.standard_normal((25, 4)), [1] * 20 + [-1] * 5)
        corrected, report = calibrate(model, ds, class_used=1)
        assert report.n_calibration == 20
        assert report.class_used == 1
        assert report.variance_hat > 0
        # the corrected model carries the class mean; the report has no mu of its own
        assert np.allclose(corrected.mu, ds.X[:20].mean(axis=0), rtol=1e-12, atol=1e-15)
        assert [f.name for f in fields(report)] == ["variance_hat", "n_calibration", "class_used"]


    def test_densifies_class_rows_once(self, monkeypatch):
        rng = np.random.default_rng(23)
        model = coordinate_model(rng.standard_normal(4), dim=4)
        ds = small_dataset(rng.standard_normal((25, 4)), [1] * 20 + [-1] * 5)
        calls = []
        dense_rows = Dataset.dense_rows

        def counting(self, idx):
            calls.append(idx)
            return dense_rows(self, idx)

        monkeypatch.setattr(Dataset, "dense_rows", counting)
        for mode in ("score", "per_term"):
            calls.clear()
            calibrate(model, ds, class_used=1, mode=mode)
            assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["coordinate", "rbf"])
    @pytest.mark.parametrize("mode", ["score", "per_term"])
    def test_matches_separate_estimators_bit_for_bit(self, kind, mode):
        rng = np.random.default_rng(29)
        X = rng.standard_normal((60, 5))
        if kind == "coordinate":
            model = coordinate_model(rng.standard_normal(5), dim=5)
        else:
            model = kernel_model(rng.standard_normal(7), rng.standard_normal((7, 5)), KernelSpec.rbf(1.3))
        y = rng.choice([1, -1], size=60)
        corrected, report = calibrate(model, small_dataset(X, y), class_used=-1, mode=mode)
        # with unit weights and zero mu, the term matrix is the raw block
        X_class = X[y == -1]
        raw = term_matrix(replace(model, weights=np.ones(model.n), mu=np.zeros(model.n)), X_class)
        mu = raw.mean(axis=0)
        assert corrected.mu.tobytes() == mu.tobytes()
        if mode == "score":
            variance = float(np.var(predict_rows(corrected, X_class, corrected.theta).score, ddof=1))
        else:
            variance = float(np.sum(corrected.weights**2 * np.var(raw, axis=0, ddof=1)))
        assert report.variance_hat == variance

    def test_error_order_kept(self):
        model = coordinate_model([1.0], dim=1)
        # the mode is checked first, then that the class has two rows
        with pytest.raises(ParameterError, match="unknown variance mode"):
            calibrate(model, small_dataset([[1.0], [2.0]], [1, 1]), class_used=-1, mode="bogus")
        with pytest.raises(ParameterError, match="unknown variance mode"):
            calibrate(model, small_dataset([[1.0], [2.0]], [1, -1]), class_used=1, mode="bogus")
        with pytest.raises(ParameterError, match="class_used"):
            calibrate(model, small_dataset([[1.0], [2.0]], [1, 1]), class_used=0)
        for labels in ([1, 1], [1, -1]):
            with pytest.raises(CalibrationError, match="at least 2"):
                calibrate(model, small_dataset([[1.0], [2.0]], labels), class_used=-1)


class TestTermBlocks:
    """calibrate evaluates its terms once, in blocks of about _BLOCK_CELLS
    cells, in both modes: mu and per-term variances have the bits of one
    pass over the whole raw array, and score mode's scores are the
    evaluator's."""

    @staticmethod
    def _model(kind, rng, n, dim):
        if kind == "coordinate":
            return coordinate_model(rng.standard_normal(n), indices=rng.integers(0, dim, n), dim=dim)
        spec = KernelSpec.rbf(1.3) if kind == "rbf" else KernelSpec.linear()
        return kernel_model(rng.standard_normal(n), rng.standard_normal((n, dim)), spec)

    @pytest.mark.parametrize("mode", ["per_term", "score"])
    @pytest.mark.parametrize("kind", ["coordinate", "linear", "rbf"])
    @pytest.mark.parametrize("sparse_input", [False, True], ids=["dense", "csr"])
    @pytest.mark.parametrize("width", [1, 2, 3, None])
    def test_blocks_match_whole_array_bit_for_bit(self, monkeypatch, kind, sparse_input, width, mode):
        # 37 terms in blocks of 1, 2 or 3 columns leave a trailing single
        # column; None keeps the default budget, one block. numpy sums a
        # C-ordered row of 8 or more cells pairwise, so for kernel models a
        # row sum of the whole corrected array is not the evaluator's score
        from scipy import sparse

        rng = np.random.default_rng(51)
        n, dim = 37, 5
        model = self._model(kind, rng, n, dim)
        X = rng.standard_normal((90, dim))
        X[rng.random(X.shape) < 0.3] = 0.0
        y = rng.choice([1, -1], size=90)
        X_class = np.ascontiguousarray(X[y == 1])
        if width is not None:
            monkeypatch.setattr(data, "_BLOCK_CELLS", width * len(X_class))
        ds = Dataset(X=sparse.csr_matrix(X) if sparse_input else X, y=y)
        corrected, report = calibrate(model, ds, class_used=1, mode=mode)
        # the reference: the whole raw array, as one unblocked pass holds it
        raw = _raw(model, X_class, 0, n)
        assert corrected.mu.tobytes() == raw.mean(axis=0).tobytes()
        if mode == "per_term":
            assert report.variance_hat == float(np.sum(model.weights**2 * np.var(raw, axis=0, ddof=1)))
        else:
            scores = predict_rows(corrected, X_class, corrected.theta).score
            assert report.variance_hat == float(np.var(scores, ddof=1))

    @pytest.mark.parametrize("mode", ["per_term", "score"])
    def test_each_term_evaluated_once(self, monkeypatch, mode):
        from stst import calibration

        rng = np.random.default_rng(57)
        model = self._model("rbf", rng, 11, 4)
        ds = small_dataset(rng.standard_normal((30, 4)), [1] * 30)
        monkeypatch.setattr(data, "_BLOCK_CELLS", 3 * 30)
        columns = []

        def counting(model, X, a, b):
            columns.append((a, b))
            return _raw(model, X, a, b)

        monkeypatch.setattr(calibration, "_raw", counting)
        calibrate(model, ds, class_used=1, mode=mode)
        assert columns == [(0, 3), (3, 6), (6, 9), (9, 11)]

    @pytest.mark.parametrize("width", [3, None])
    @pytest.mark.parametrize(
        "sparse_input,expected", [(False, "0x1.f83273d8120d5p+4"), (True, "0x1.642aa46b15addp+3")], ids=["dense", "csr"]
    )
    def test_coordinate_score_variance_pinned(self, monkeypatch, sparse_input, expected, width):
        # taken from the whole-array score path this replaced, whose
        # F-ordered coordinate gather summed each row in order
        from scipy import sparse

        rng = np.random.default_rng(61)
        model = coordinate_model(rng.standard_normal(40), indices=rng.integers(0, 30, 40), dim=30)
        dense = rng.standard_normal((120, 30))
        X = rng.standard_normal((150, 30))
        X[rng.random(X.shape) < 0.7] = 0.0
        y_dense, y_sparse = rng.choice([1, -1], size=120), rng.choice([1, -1], size=150)
        ds = Dataset(X=sparse.csr_matrix(X), y=y_sparse) if sparse_input else Dataset(X=dense, y=y_dense)
        if width is not None:
            monkeypatch.setattr(data, "_BLOCK_CELLS", width * int((ds.y == 1).sum()))
        assert calibrate(model, ds, class_used=1)[1].variance_hat.hex() == expected

    @pytest.mark.parametrize("mode", ["per_term", "score"])
    def test_peak_memory_within_block_budget(self, mode):
        # RBF, 4000 terms, dim 64, 500 class rows: the whole raw array is
        # 16 MB; blocks of about _BLOCK_CELLS cells (and score mode's one
        # F-ordered copy of a block) hold a few MB whatever n is
        import tracemalloc

        rng = np.random.default_rng(59)
        model = kernel_model(rng.standard_normal(4000), rng.standard_normal((4000, 64)), KernelSpec.rbf(8.0))
        ds = small_dataset(rng.standard_normal((500, 64)), [1] * 500)
        tracemalloc.start()
        try:
            calibrate(model, ds, class_used=1, mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * data._BLOCK_CELLS + (1 << 20)


def _preds(*rows):
    """Predictions from (label, stopped) pairs; scores and term counts are not read."""
    return Predictions(
        label=np.array([label for label, _ in rows], dtype=np.int64),
        score=np.zeros(len(rows)),
        terms=np.ones(len(rows), dtype=np.int64),
        stopped=np.array([stopped for _, stopped in rows], dtype=bool),
    )


class TestMeasureStopError:
    def test_identical_lists_zero(self):
        full = _preds((1, False), (-1, False), (1, False))
        assert measure_stop_error(full, full, condition=1) == 0.0

    def test_one_in_ten(self):
        full = _preds(*[(1, False)] * 10)
        attentive = _preds(*[(1, False)] * 9, (-1, True))
        assert measure_stop_error(attentive, full, condition=1) == pytest.approx(0.1)

    def test_non_stopped_disagreement_not_counted(self):
        # a label flip without an early stop is not a stop-error
        full = _preds((1, False))
        attentive = _preds((-1, False))
        assert measure_stop_error(attentive, full, condition=1) == 0.0

    def test_misaligned(self):
        with pytest.raises(ParameterError):
            measure_stop_error(_preds((1, False)), _preds(), condition=1)

    def test_empty_denominator(self):
        full = _preds((-1, False))
        with pytest.raises(UndefinedRateError):
            measure_stop_error(full, full, condition=1)

    def test_bad_condition(self):
        with pytest.raises(ParameterError):
            measure_stop_error(_preds(), _preds(), condition=0)
