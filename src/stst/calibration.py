"""Calibrate a model on one class, and measure stop-error rates.

calibrate is the one estimator: from one pass over the chosen class's rows
it returns the corrected model, whose mu is the drift correction and the
only copy of it, and a CalibrationReport holding the score variance
var(S_n) that places the delta boundary. Centering each term on
its class-conditional mean makes the conditioned score walk driftless,
which is what the constant-boundary calibration assumes. The class to
center on is the one opposite the rejection direction: when early stopping
rejects negatives, mu comes from positives, so the surviving class walks
like a bridge. Both variance modes evaluate each term once, in term
blocks sized by the one block budget of stst.data (_BLOCK_CELLS, through
_block_rows), and hold no (N, n) array. Score mode's S_n is the
evaluator's, bit for bit: the sequential sum predict_rows carries.
"""

from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, _block_rows
from .errors import CalibrationError, DegenerateDataError, ParameterError, UndefinedRateError, check_count, check_label
from .predictor import Predictions, WeightedModel, _check_X, _raw
# unused here: perfbench/layers.py wraps calibration.term_matrix by name, and
# the import goes once that binding moves to stst.predictor (ROADMAP item 18)
from .predictor import term_matrix  # noqa: F401

__all__ = [
    "CalibrationReport",
    "calibrate",
    "measure_stop_error",
]


@dataclass(frozen=True, eq=False)
class CalibrationReport:
    """The estimated full-score variance and the class rows it came from.
    The per-term corrections are the mu of the model calibrate returns."""

    variance_hat: float
    n_calibration: int
    class_used: int

    def __post_init__(self):
        if not 0.0 < self.variance_hat < np.inf:
            raise ParameterError(f"variance_hat must be positive and finite, got {self.variance_hat!r}")
        check_count("n_calibration", self.n_calibration, 2)
        check_label("class_used", self.class_used)


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

    The class rows are densified once, and each raw term is evaluated once,
    in blocks of _block_rows(N) columns (at least two), within the one block
    budget of stst.data. mu is each block's column means, the same bits as
    over the whole raw array. Per-term mode takes the variance of each
    block's columns, again the whole array's bits. Score mode corrects each
    block in place and carries every row's running score into the block's
    first column, as the evaluator does, so its scores are
    predict_rows(corrected, X, corrected.theta).score bit for bit. A zero,
    infinite or NaN variance is a DegenerateDataError.
    """
    if mode not in ("score", "per_term"):
        raise ParameterError(f"unknown variance mode {mode!r}")
    class_used = check_label("class_used", class_used)
    sel = np.nonzero(calibration_set.y == class_used)[0]
    if sel.size < 2:
        raise CalibrationError(
            f"need at least 2 calibration examples of class {class_used:+d}, found {sel.size}"
        )
    X = _check_X(model, calibration_set.dense_rows(sel))
    # A kernel block is C-ordered, and numpy sums a column of a wider block
    # row by row but a block one column wide pairwise, in other bits. So
    # blocks are at least two columns wide, and the last one takes in a
    # single trailing column, unless n = 1.
    width = max(2, _block_rows(sel.size))
    bounds = [0, *range(width, model.n - 1, width), model.n]
    mu, var, score = np.empty(model.n), np.empty(model.n), -0.0
    for a, b in zip(bounds, bounds[1:]):
        raw = _raw(model, X, a, b)
        mu[a:b] = raw.mean(axis=0)
        if mode == "per_term":
            var[a:b] = np.var(raw, axis=0, ddof=1)
        else:
            # _evaluate's carried sum, with -0.0 as the additive identity:
            # numpy sums each row of an F-ordered block column by column
            raw -= mu[a:b]
            with np.errstate(over="ignore"):  # see the variance below
                raw *= model.weights[a:b]
                raw[:, 0] += score
                score = np.asfortranarray(raw).sum(axis=1)
    corrected = replace(model, mu=mu)
    # an overflow here or in the weighted scores ends as the non-finite
    # variance refused next, which says all a warning would
    with np.errstate(over="ignore"):
        variance = float(np.var(score, ddof=1) if mode == "score" else np.sum(corrected.weights**2 * var))
    if not 0.0 < variance < np.inf:
        raise DegenerateDataError(
            f"calibration scores of class {class_used:+d} have variance {variance!r}; stopping rule undefined"
        )
    return corrected, CalibrationReport(variance, int(sel.size), class_used)


def measure_stop_error(attentive: Predictions, full: Predictions, condition: int) -> float:
    """Fraction of condition-class examples flipped by early stopping.

    Both must cover the same examples in the same order; the denominator is
    the set of examples the full pass labeled as `condition`.
    """
    condition = check_label("condition", condition)
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
