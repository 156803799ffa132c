"""The shared argument checks, and every entry point that counts on them."""

import io
import math
import re

import numpy as np
import pytest

from stst import data, predictor, simulator, trainer
from stst.bench import TheoryConfig, precision_recall
from stst.calibration import CalibrationReport, calibrate, measure_stop_error
from stst.errors import (
    ModelFormatError,
    ParameterError,
    check_count,
    check_finite,
    check_label,
    check_labels,
    check_real,
)


class TestCheckCount:
    @pytest.mark.parametrize("value", [0, 1, 7, np.int64(3), np.int32(0), np.uint8(5), 2**70])
    def test_integers_in_bounds_are_returned_as_int(self, value):
        got = check_count("k", value, 0)
        assert type(got) is int and got == int(value)

    @pytest.mark.parametrize("value", [2.5, 2.0, np.float64(2.0), True, False, np.bool_(True), "3", None, 1j])
    def test_non_integers_are_refused(self, value):
        with pytest.raises(ParameterError, match=r"^k must be an integer, got "):
            check_count("k", value, 0)

    def test_lower_bound(self):
        assert check_count("k", 2, 2) == 2
        with pytest.raises(ParameterError, match=r"^k must be >= 2, got 1$"):
            check_count("k", 1, 2)
        with pytest.raises(ParameterError, match=r"^k must be >= 0, got -3$"):
            check_count("k", np.int64(-3), 0)

    def test_both_bounds(self):
        assert [check_count("k", v, 1, 3) for v in (1, 2, np.int16(3))] == [1, 2, 3]
        for value in (0, 4, np.int64(-1)):
            with pytest.raises(ParameterError, match=rf"^k must be in \[1, 3\], got {int(value)}$"):
                check_count("k", value, 1, 3)


class TestCheckFinite:
    @pytest.mark.parametrize("value", [0.0, -1.5, 3, np.float64(2.5), np.float32(1.0), np.int64(4), -1e308])
    def test_finite_values_are_returned(self, value):
        assert check_finite("theta", value) is value

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf")])
    def test_nan_and_infinities_are_refused(self, value):
        with pytest.raises(ParameterError, match=r"^theta must be finite, got "):
            check_finite("theta", value)


class TestCheckLabel:
    @pytest.mark.parametrize("value", [1, -1, np.int64(1), np.int8(-1)])
    def test_plus_minus_one_integers_returned_as_int(self, value):
        got = check_label("class_used", value)
        assert type(got) is int and got == int(value)

    @pytest.mark.parametrize("value", [1.0, -1.0, np.float64(1.0), True, np.bool_(True), 2, 0, "1", None])
    def test_others_refused(self, value):
        with pytest.raises(ParameterError, match=rf"^class_used must be \+1 or -1, got {re.escape(repr(value))}$"):
            check_label("class_used", value)

    @staticmethod
    def _entry_points():
        ds = data.Dataset(X=[[1.0], [2.0], [4.0], [3.0]], y=[1, 1, -1, -1])
        model = predictor.coordinate_model([1.0], dim=1)
        preds = predictor.predict_rows(model, ds.X, 2.5)
        return {
            "calibrate": lambda v: calibrate(model, ds, v)[1].class_used,
            "CalibrationReport": lambda v: CalibrationReport(1.0, 2, v).class_used,
            "measure_stop_error": lambda v: measure_stop_error(preds, preds, v),
        }

    @pytest.mark.parametrize("value", [1.0, True, 2, "1"])
    @pytest.mark.parametrize("entry", ["calibrate", "CalibrationReport", "measure_stop_error"])
    def test_entry_points_refuse(self, entry, value):
        name = "condition" if entry == "measure_stop_error" else "class_used"
        with pytest.raises(ParameterError, match=rf"^{name} must be \+1 or -1, got "):
            self._entry_points()[entry](value)

    @pytest.mark.parametrize("entry", ["calibrate", "CalibrationReport", "measure_stop_error"])
    def test_entry_points_accept_numpy_integers(self, entry):
        got = self._entry_points()[entry](np.int64(1))
        if entry == "measure_stop_error":
            assert got == 0.0
        else:
            assert got == 1


class TestCheckLabels:
    def test_plus_minus_one_cast_to_int64(self):
        for y in ([1, -1, 1], np.array([1.0, -1.0]), np.array([1, -1], np.int8)):
            got = check_labels("labels", y)
            assert got.dtype == np.int64 and got.tolist() == list(np.asarray(y).astype(int))

    @pytest.mark.parametrize("bad", [0, 2, 1.5, 0.999, math.nan])
    def test_other_values_refused_before_the_cast(self, bad):
        with pytest.raises(ParameterError, match=r"^truth labels must be \+1 or -1; offending values"):
            check_labels("truth labels", [1, bad, -1])

    def test_a_bool_array_is_refused_whole(self):
        # only a False was refused: True == 1, so [True, True] read as +1 labels
        with pytest.raises(ParameterError, match=r"^labels must be \+1 or -1, got bools$"):
            check_labels("labels", np.array([True, True]))
        with pytest.raises(ParameterError, match=r"^labels must be \+1 or -1, got bools$"):
            data.Dataset(X=[[1.0], [2.0]], y=[True, True])
        with pytest.raises(ParameterError, match=r"^truth labels must be \+1 or -1, got bools$"):
            precision_recall([0.5, 0.2], [True, True])

    def test_dataset_and_precision_recall_share_it(self):
        with pytest.raises(ParameterError, match=r"^labels must be \+1 or -1; offending values \[1.9\]"):
            data.Dataset(X=np.zeros((2, 1)), y=[1.9, -1])
        with pytest.raises(ParameterError, match=r"^truth labels must be \+1 or -1; offending values \[1.9\]"):
            precision_recall([0.5, 0.1], [1.9, -1])


# -- numbers spelled as strings ------------------------------------------------
#
# A float64 cast reads the string "1.5" as 1.5. Every entry point that takes
# an array of numbers refuses text through check_real, as it refuses a
# complex value.

_STRING_NUMBERS = {
    "coordinate_model": (lambda: predictor.coordinate_model(["1.5", "2"]), "weights"),
    "coordinate_model-mu": (lambda: predictor.coordinate_model([1.5, 2.0], mu=["0", "0"]), "mu"),
    "kernel_model": (
        lambda: predictor.kernel_model([1.0], [["0.5", "1"]], predictor.KernelSpec.rbf(1.0)),
        "support vectors",
    ),
    "full_predict": (
        lambda: predictor.full_predict(predictor.coordinate_model([1.0, 2.0]), np.array(["1", "2"])),
        "feature vector",
    ),
    "Dataset": (lambda: data.Dataset(X=np.array([["1.5", "2"]]), y=[1]), "features"),
    "precision_recall": (lambda: precision_recall(["0.5", "0.2"], [1, -1]), "scores"),
}


@pytest.mark.parametrize("entry", _STRING_NUMBERS)
def test_numbers_spelled_as_strings_are_refused(entry):
    call, name = _STRING_NUMBERS[entry]
    with pytest.raises(ParameterError, match=f"^{name} must be real numbers, got dtype <U"):
        call()


@pytest.mark.parametrize("dtype", [bool, np.int8, np.uint64, np.float32, np.float64])
def test_check_real_takes_bools_integers_and_floats(dtype):
    values = np.zeros(2, dtype=dtype)
    assert check_real("x", values) is values


@pytest.mark.parametrize(
    "dtype, match",
    [
        (complex, "^x must be real, got a complex value$"),
        (str, "^x must be real numbers, got dtype <U1$"),
        (object, "^x must be real numbers, got dtype object$"),
        ("M8[s]", r"^x must be real numbers, got dtype datetime64\[s\]$"),
    ],
)
def test_check_real_refuses_the_rest(dtype, match):
    with pytest.raises(ParameterError, match=match):
        check_real("x", np.empty(0, dtype=dtype))


# -- entry points -------------------------------------------------------------
#
# Each case calls one entry point with `value` in one count argument. The
# argument was compared with a bound, or not checked at all, before the
# shared check: a float or a bool then ran (or escaped as a bare numpy
# TypeError or IndexError) where it is now a ParameterError naming the
# argument. `valid` is a numpy integer the call must accept.

_MODEL = predictor.coordinate_model([1.0, -2.0, 0.5], dim=3)
_X = np.array([0.5, 1.0, -1.0])
_DATASET = data.Dataset(X=np.arange(8.0).reshape(4, 2), y=[1, -1, 1, -1])
_WALK = simulator.WalkSpec(n=4, seed=1)
_DRIFTING = simulator.WalkSpec(n=4, step="rademacher", scale=0.1, drift=0.1, seed=1)
_SYNTHETIC = dict(dim=2, n_pos=2, n_neg=2, mean_separation=1.0, noise_std=1.0, seed=0)


def _theory(field):
    return lambda v: TheoryConfig(**{field: v})


def _synthetic(field):
    return lambda v: data.SyntheticSpec(**{**_SYNTHETIC, field: v})


ENTRY_POINTS = {
    "WalkSpec.seed": ("seed", 1, lambda v: simulator.WalkSpec(n=4, seed=v)),
    "bridge trials": (
        "trials", 2, lambda v: simulator.empirical_bridge_crossing_grid(_WALK, [1.0], band=10.0, trials=v)
    ),
    "bridge exact trials": (
        "trials", 2, lambda v: simulator.empirical_bridge_crossing_grid(_WALK, [1.0], trials=v, mode="exact")
    ),
    "stop-error trials": ("trials", 2, lambda v: simulator.empirical_stop_error_grid(_WALK, [0.5], trials=v)),
    "stopping-time trials": ("trials", 2, lambda v: simulator.empirical_stopping_time(_DRIFTING, 0.1, trials=v)),
    "TheoryConfig.bridge_trials": ("bridge_trials", 2, _theory("bridge_trials")),
    "TheoryConfig.stop_error_trials": ("stop_error_trials", 2, _theory("stop_error_trials")),
    "TheoryConfig.stopping_trials": ("stopping_trials", 2, _theory("stopping_trials")),
    "TheoryConfig.seed": ("seed", 2, _theory("seed")),
    "TrainConfig.epochs": ("epochs", 2, lambda v: trainer.TrainConfig(lambda_reg=0.1, epochs=v, seed=0)),
    "TrainConfig.seed": ("seed", 2, lambda v: trainer.TrainConfig(lambda_reg=0.1, epochs=1, seed=v)),
    "SyntheticSpec.dim": ("dim", 2, _synthetic("dim")),
    "SyntheticSpec.n_pos": ("n_pos", 2, _synthetic("n_pos")),
    "SyntheticSpec.n_neg": ("n_neg", 2, _synthetic("n_neg")),
    "SyntheticSpec.seed": ("seed", 2, _synthetic("seed")),
    "split seed": ("seed", 2, lambda v: data.split(_DATASET, 0.5, v)),
    "permute_terms seed": ("seed", 2, lambda v: predictor.permute_terms(_MODEL, v)),
    "budgeted_predict budget": ("budget", 2, lambda v: predictor.budgeted_predict(_MODEL, _X, v, 0.0)),
    "budgeted_from_prefix budget": (
        "budget", 2, lambda v: predictor.budgeted_from_prefix(predictor.prefix_score_matrix(_MODEL, _X[None]), v, 0.0)
    ),
    "score_term index": ("term index", 2, lambda v: predictor.score_term(_MODEL, v, _X)),
    "CalibrationReport.n_calibration": (
        "n_calibration", 2, lambda v: CalibrationReport(variance_hat=1.0, n_calibration=v, class_used=1)
    ),
    "parse_sparse dim": ("dim", 2, lambda v: data.parse_sparse(io.StringIO("+1 1:0.5\n-1 2:1.5\n"), dim=v)),
    "WeightedModel.dim": ("dim", 3, lambda v: predictor.coordinate_model([1.0, 1.0], dim=v)),
}


@pytest.mark.parametrize("value", [2.5, np.float64(2.0), True], ids=["float", "numpy-float", "bool"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_a_non_integer_count_is_a_parameter_error_naming_it(entry, value):
    name, _, call = ENTRY_POINTS[entry]
    with pytest.raises(ParameterError, match=rf"^{name} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_a_numpy_integer_count_is_accepted(entry):
    _, valid, call = ENTRY_POINTS[entry]
    assert call(np.int64(valid)) is not None


def test_numpy_integer_count_gives_the_int_result():
    model = predictor.permute_terms(_MODEL, np.int64(2))
    assert model.weights.tolist() == predictor.permute_terms(_MODEL, 2).weights.tolist()
    assert predictor.budgeted_predict(_MODEL, _X, np.int64(2), 0.0) == predictor.budgeted_predict(_MODEL, _X, 2, 0.0)
    a = simulator.empirical_stop_error_grid(_WALK, [0.5], trials=np.int64(50))
    assert a == simulator.empirical_stop_error_grid(_WALK, [0.5], trials=50)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_walk_grids_refuse_a_non_finite_theta(theta):
    # a NaN theta accepted every exact-bridge walk and reported p = 0
    with pytest.raises(ParameterError, match="^theta must be finite"):
        simulator.empirical_bridge_crossing_grid(_WALK, [1.0], theta=theta, trials=10, mode="exact")
    with pytest.raises(ParameterError, match="^theta must be finite"):
        simulator.empirical_stop_error_grid(_WALK, [0.5], theta=theta, trials=10)


def test_bridge_grid_refuses_a_nan_tau():
    # a NaN tau passed the `tau <= theta` test and read p = 0
    with pytest.raises(ParameterError, match="^every tau must exceed theta"):
        simulator.empirical_bridge_crossing_grid(_WALK, [1.0, math.nan], trials=10, mode="exact")


# -- the verification set -----------------------------------------------------

_RBF = predictor.kernel_model([1.0, -0.5], np.eye(2, 3), predictor.KernelSpec.rbf(1.5))


@pytest.mark.parametrize(
    "inputs,scores,match",
    [
        (np.zeros((2, 3)), None, "provided together"),
        (np.zeros((2, 3)), np.zeros((2, 1)), "align row for row"),
        (np.zeros((0, 3)), np.zeros(0), "no rows"),
        (np.zeros((2, 3)).astype(str), np.zeros(2), "real numbers"),
        (np.zeros((2, 4)), np.zeros(2), r"feature matrix must have shape \(m, 3\)"),
        (np.array([[0.0, np.nan, 0.0]]), np.zeros(1), "feature matrix has a NaN or infinite value"),
    ],
)
def test_save_and_import_refuse_the_same_verification_sets(tmp_path, inputs, scores, match):
    path = tmp_path / "m.npz"
    with pytest.raises(ParameterError, match=match):
        predictor.save_model(_RBF, path, verify_inputs=inputs, verify_scores=scores)
    assert not path.exists()
    # the same payload written by hand is refused on import, with the same words
    predictor.save_model(_RBF, path)
    with np.load(path) as z:
        fields = {k: z[k] for k in z.files}
    fields["verify_inputs"] = inputs
    if scores is not None:
        fields["verify_scores"] = scores
    np.savez(path, **fields)
    with pytest.raises(ModelFormatError, match=f"^malformed verification payload: .*{match}"):
        trainer.import_kernel_model(path)
