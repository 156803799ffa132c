"""Calibrate a model on one class, and measure stop-error rates.

calibrate is the one estimator: from one pass over the chosen class's rows
it returns the drift correction mu, as a corrected model, and the score
variance var(S_n) that places the delta boundary. Centering each term on
its class-conditional mean makes the conditioned score walk driftless,
which is what the constant-boundary calibration assumes. The class to
center on is the one opposite the rejection direction: when early stopping
rejects negatives, mu comes from positives, so the surviving class walks
like a bridge.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import CalibrationError, DegenerateDataError, ParameterError, UndefinedRateError
from .predictor import Predictions, WeightedModel, _check_X, _raw
# unused here: perfbench/layers.py wraps calibration.term_matrix by name, and
# the import goes once that binding moves to stst.predictor (ROADMAP item 10)
from .predictor import term_matrix  # noqa: F401

__all__ = [
    "CalibrationReport",
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


def calibrate(
    model: WeightedModel,
    calibration_set: Dataset,
    class_used: int,
    mode: str = "score",
) -> tuple[WeightedModel, CalibrationReport]:
    """Estimate mu and var(S_n) over the chosen class, returning the
    corrected model and a report.

    mu is the per-term mean raw evaluator value over the class; the model's
    own mu is ignored. The variance is unbiased (divisor N - 1) and comes in
    two modes. "score" (default) is the sample variance of the corrected
    full scores, which needs no independence assumption. "per_term" is the
    sum of w_i^2 * var(raw_i), valid when terms are independent (e.g. after
    a random permutation).

    The class rows are densified once and their raw terms evaluated once.
    mu and the per-term variance read that one array, and score mode
    corrects it in place with term_matrix's operations, so its scores are
    term_matrix(corrected, X).sum(axis=1) bit for bit.
    """
    if mode not in ("score", "per_term"):
        raise ParameterError(f"unknown variance mode {mode!r}")
    if class_used not in (1, -1):
        raise ParameterError(f"class_used must be +1 or -1, got {class_used!r}")
    sel = np.nonzero(calibration_set.y == class_used)[0]
    if sel.size < 2:
        raise CalibrationError(
            f"need at least 2 calibration examples of class {class_used:+d}, found {sel.size}"
        )
    X = _check_X(model, calibration_set.dense_rows(sel))
    raw = _raw(model, X, 0, model.n)
    mu = raw.mean(axis=0)
    corrected = model.with_mu(mu)
    if mode == "score":
        raw -= mu
        raw *= corrected.weights
        variance = float(np.var(raw.sum(axis=1), ddof=1))
    else:
        variance = float(np.sum(corrected.weights**2 * np.var(raw, axis=0, ddof=1)))
    if variance == 0.0:
        raise DegenerateDataError(
            f"calibration scores of class {class_used:+d} have zero variance; stopping rule undefined"
        )
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
