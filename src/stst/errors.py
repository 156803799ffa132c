"""Exception types shared across the package, and the one check of each
kind of argument: a count (check_count: a Python or numpy integer, never a
bool or a float such as 2.0), a finite scalar (check_finite), one +1/-1
class label (check_label, integers only, like check_count) and an array of
+1/-1 labels (check_labels).
"""

import math

import numpy as np


class StstError(Exception):
    """Base class for all package errors."""


class ParameterError(StstError, ValueError):
    """An argument is outside its mathematical or structural domain."""


class DegenerateRuleError(ParameterError):
    """A stopping rule would place the stop threshold on the prediction
    threshold (delta = 1), which never stops anything strictly."""


class CalibrationError(StstError):
    """The calibration set cannot support the requested estimate."""


class DegenerateDataError(CalibrationError):
    """Calibration scores have zero variance; no stopping rule is defined."""


class UndefinedRateError(StstError):
    """A rate has an empty denominator (no examples in the conditioning class)."""


class ParseError(StstError):
    """Malformed input text; the message carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptyDatasetError(StstError):
    """A dataset source contained no examples."""


class ModelFormatError(StstError):
    """A serialized model container is malformed or fails verification."""


class InsufficientAcceptanceError(StstError):
    """Rejection sampling accepted no trials; widen the band or add trials."""


class TrainingError(StstError):
    """The training set cannot produce a classifier (e.g. a single class)."""


def check_count(name: str, value, low, high=None) -> int:
    """value as an int: a Python or numpy integer, not a bool, in [low, high]
    (no upper bound when high is None)."""
    # a fifth of the cost of numbers.Integral; full_predict runs it once a call
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if high is None:
        if value < low:
            raise ParameterError(f"{name} must be >= {low}, got {value}")
    elif not low <= value <= high:
        raise ParameterError(f"{name} must be in [{low}, {high}], got {value}")
    return int(value)


def check_finite(name: str, value):
    """value, refused if NaN or infinite: a threshold such as theta would
    send every comparison one way."""
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be finite, got {value!r}")
    return value


def check_label(name: str, value) -> int:
    """value as an int: a Python or numpy integer, not a bool, equal to +1
    or -1. A float such as 1.0 is refused: it would be stored as given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value not in (1, -1):
        raise ParameterError(f"{name} must be +1 or -1, got {value!r}")
    return int(value)


def check_labels(name: str, y) -> np.ndarray:
    """y as an int64 array, refused unless every entry is +1 or -1. Checked
    before the cast, which would truncate a label of 1.9 to 1."""
    y = np.asarray(y)
    bad = ~np.isin(y, (1, -1))
    if bad.any():
        raise ParameterError(f"{name} must be +1 or -1; offending values {np.unique(y[bad])}")
    return y.astype(np.int64, copy=False)
