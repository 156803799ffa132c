"""Estimate the drift correction mu, the score variance, and stop-error rates.

Centering each term on its class-conditional mean makes the conditioned score
walk driftless, which is what the constant-boundary calibration assumes. The
class to center on is the one opposite the rejection direction: when early
stopping rejects negatives, mu comes from positives, so the surviving class
walks like a bridge.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import CalibrationError, DegenerateDataError, ParameterError, UndefinedRateError
from .predictor import Predictions, WeightedModel, _check_X, _raw, term_matrix

__all__ = [
    "CalibrationReport",
    "estimate_mu",
    "estimate_variance",
    "calibrate",
    "measure_stop_error",
]


@dataclass(frozen=True, eq=False)
class CalibrationReport:
    """Per-term corrections plus the estimated full-score variance."""

    mu: np.ndarray
    variance_hat: float
    n_calibration: int
    class_used: int

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=np.float64))
        if not self.variance_hat > 0.0:
            raise ParameterError(f"variance_hat must be positive, got {self.variance_hat!r}")
        if self.n_calibration < 2:
            raise ParameterError(f"n_calibration must be >= 2, got {self.n_calibration}")
        if self.class_used not in (1, -1):
            raise ParameterError(f"class_used must be +1 or -1, got {self.class_used!r}")


def _class_rows(dataset: Dataset, class_used: int, minimum: int) -> np.ndarray:
    if class_used not in (1, -1):
        raise ParameterError(f"class_used must be +1 or -1, got {class_used!r}")
    sel = np.nonzero(dataset.y == class_used)[0]
    if sel.size < minimum:
        raise CalibrationError(
            f"need at least {minimum} calibration example(s) of class {class_used:+d}, found {sel.size}"
        )
    return sel


def _check_mode(mode: str) -> None:
    if mode not in ("score", "per_term"):
        raise ParameterError(f"unknown variance mode {mode!r}")


def estimate_mu(model: WeightedModel, calibration_set: Dataset, class_used: int) -> np.ndarray:
    """Per-term mean raw evaluator value over the chosen class."""
    sel = _class_rows(calibration_set, class_used, minimum=1)
    X = _check_X(model, calibration_set.dense_rows(sel))
    return _raw(model, X, 0, model.n).mean(axis=0)


def _variance(model: WeightedModel, terms: np.ndarray, class_used: int, mode: str) -> float:
    """var(S_n) over some rows: terms holds their corrected term values in
    score mode, their raw ones in per_term mode."""
    if mode == "score":
        var = float(np.var(terms.sum(axis=1), ddof=1))
    else:
        var = float(np.sum(model.weights**2 * np.var(terms, axis=0, ddof=1)))
    if var == 0.0:
        raise DegenerateDataError(
            f"calibration scores of class {class_used:+d} have zero variance; stopping rule undefined"
        )
    return var


def estimate_variance(
    model: WeightedModel,
    calibration_set: Dataset,
    class_used: int,
    mode: str = "score",
) -> float:
    """Unbiased estimate of var(S_n) over the chosen class.

    "score" (default): sample variance of the corrected full scores, which
    needs no independence assumption. "per_term": sum of w_i^2 * var(raw_i),
    valid when terms are independent (e.g. after a random permutation).
    """
    _check_mode(mode)
    sel = _class_rows(calibration_set, class_used, minimum=2)
    X = calibration_set.dense_rows(sel)
    terms = term_matrix(model, X) if mode == "score" else _raw(model, _check_X(model, X), 0, model.n)
    return _variance(model, terms, class_used, mode)


def calibrate(
    model: WeightedModel,
    calibration_set: Dataset,
    class_used: int,
    mode: str = "score",
) -> tuple[WeightedModel, CalibrationReport]:
    """Estimate mu and variance, returning the corrected model and a report.

    The class rows are densified once and their raw terms evaluated once.
    mu and the per-term variance read that one array, and score mode
    corrects it in place with term_matrix's operations, so the results are
    estimate_mu's and estimate_variance's bit for bit.
    """
    sel = _class_rows(calibration_set, class_used, minimum=1)
    X = _check_X(model, calibration_set.dense_rows(sel))
    raw = _raw(model, X, 0, model.n)
    mu = raw.mean(axis=0)
    corrected = model.with_mu(mu)
    _check_mode(mode)
    _class_rows(calibration_set, class_used, minimum=2)  # the variance's error, after mu's
    if mode == "score":
        raw -= mu
        raw *= corrected.weights
    variance = _variance(corrected, raw, class_used, mode)
    report = CalibrationReport(mu=mu, variance_hat=variance, n_calibration=int(sel.size), class_used=class_used)
    return corrected, report


def measure_stop_error(attentive: Predictions, full: Predictions, condition: int) -> float:
    """Fraction of condition-class examples flipped by early stopping.

    Both must cover the same examples in the same order; the denominator is
    the set of examples the full pass labeled as `condition`.
    """
    if condition not in (1, -1):
        raise ParameterError(f"condition must be +1 or -1, got {condition!r}")
    if len(attentive) != len(full):
        raise ParameterError(
            f"prediction lists are misaligned: {len(attentive)} attentive vs {len(full)} full"
        )
    in_class = full.label == condition
    denom = int(in_class.sum())
    flipped = int((in_class & attentive.stopped & (attentive.label != condition)).sum())
    if denom == 0:
        raise UndefinedRateError(f"no examples with full label {condition:+d}; stop-error rate undefined")
    return flipped / denom
