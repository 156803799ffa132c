"""Stochastic-gradient linear SVM training and kernel-model import.

The linear trainer follows the standard stochastic subgradient recipe for the
regularized hinge objective: at step t a random example is drawn, the weight
vector decays by (1 - 1/t), and hinge violations add eta_t * y * x with
eta_t = 1/(lambda*t). No projection step is applied. The bias is trained as
an extra always-1 coordinate but folded into the model's prediction threshold
(theta = -bias) rather than kept as a term: a constant term has zero variance
and would break the random-walk picture that early stopping relies on.

A step costs O(nnz) of its example: a CSR row is read as its stored
(indices, values), and only those weights are read and updated. A dense row
is used as its own view with every index.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ModelFormatError, ParameterError, TrainingError, check_count
from .predictor import WeightedModel, _load, _verification_set, coordinate_model, predict_rows

__all__ = [
    "TrainConfig",
    "train_linear",
    "hinge_objective",
    "import_kernel_model",
]


@dataclass(frozen=True)
class TrainConfig:
    lambda_reg: float
    epochs: int
    seed: int
    use_bias: bool = True

    def __post_init__(self):
        if not self.lambda_reg > 0.0 or math.isinf(self.lambda_reg):
            raise ParameterError(f"lambda_reg must be positive and finite, got {self.lambda_reg!r}")
        check_count("epochs", self.epochs, 1)
        check_count("seed", self.seed, 0)


def train_linear(train: Dataset, config: TrainConfig) -> WeightedModel:
    """Train a linear model by seeded stochastic subgradient descent.

    Deterministic given config.seed. The returned coordinate model has one
    term per feature, mu = 0 (calibrate separately), and theta = -bias.

    The same data as CSR or dense makes the same updates, but the margin
    sums a CSR row's stored entries and a dense row's every entry, in
    different orders. The margin only decides `margin < 1.0`, so the two
    give bit-identical weights unless some step's margin lies within
    rounding of 1.0.
    """
    if len(np.unique(train.y)) < 2:
        raise TrainingError("training set contains a single class")
    m, dim = train.n_examples, train.dim
    X = train.X
    if isinstance(X, np.ndarray):

        def row(j):
            return slice(None), X[j]

    else:
        indptr, indices, values = X.indptr, X.indices, X.data

        def row(j):
            a, b = indptr[j], indptr[j + 1]
            return indices[a:b], values[a:b]

    rng = np.random.default_rng(config.seed)
    labels = train.y.astype(np.float64).tolist()
    lam = config.lambda_reg
    # w is kept as scale * v so the per-step decay is O(1)
    try:
        v = np.zeros(dim)
    except MemoryError:
        # a sparse file declares its dimension by its largest index
        raise TrainingError(f"dimension {dim} is too large: its weight vector needs {8 * dim} bytes") from None
    v_bias = 0.0
    scale = 1.0
    t = 0
    for _ in range(config.epochs):
        # one draw of m indices is the same stream as m draws of one
        for j in rng.integers(m, size=m).tolist():
            t += 1
            idx, x = row(j)
            y = labels[j]
            margin = y * scale * (v[idx] @ x + (v_bias if config.use_bias else 0.0))
            eta = 1.0 / (lam * t)
            if t > 1:  # the decay at t = 1 zeroes w, which is still zero
                scale *= 1.0 - 1.0 / t
            if margin < 1.0:
                # a canonical CSR row has no repeated index, so += loses nothing
                v[idx] += (eta * y / scale) * x
                if config.use_bias:
                    v_bias += eta * y / scale
    weights = scale * v
    bias = scale * v_bias if config.use_bias else 0.0
    return coordinate_model(weights, theta=-bias, dim=dim)


def hinge_objective(model: WeightedModel, dataset: Dataset, lambda_reg: float) -> float:
    """Regularized hinge objective of a trained linear model on a dataset.

    CSR margins are X @ w on the stored entries, with no dense copy; they
    may round differently from a dense product in the last bits (about
    1e-15 relative). Dense input is used as it is.
    """
    if model.indices is None:
        raise ParameterError("hinge objective is defined for coordinate models")
    w = np.zeros(model.dim)
    w[model.indices] = model.weights
    bias = -model.theta
    margins = dataset.y * (dataset.X @ w + bias)
    hinge = np.maximum(0.0, 1.0 - margins).mean()
    return float(0.5 * lambda_reg * (w @ w + bias * bias) + hinge)


def import_kernel_model(path) -> WeightedModel:
    """Load an externally trained kernel model and verify bundled scores.

    The container may carry a verification set (inputs plus the exporter's
    decision values, net of any intercept the exporter folded into theta).
    When present, the loaded model's full scores must match within 1e-6
    relative; disagreement rejects the import, as does a malformed payload
    (inputs without scores or scores without inputs, an array that is not
    real numbers, no rows, shapes that do not fit the model, or a
    non-finite input). The container is read once.
    """
    model, fields = _load(path)
    if not model.is_kernel:
        raise ModelFormatError("container holds a coordinate model, not a kernel model")
    try:
        verify = _verification_set(model, fields.get("verify_inputs"), fields.get("verify_scores"))
    except ParameterError as exc:
        raise ModelFormatError(f"malformed verification payload: {exc}") from exc
    if verify is not None:
        inputs, expected = verify
        got = predict_rows(model, inputs, model.theta).score
        if not np.allclose(got, expected, rtol=1e-6, atol=1e-12):
            worst = float(np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1e-30)))
            raise ModelFormatError(
                f"imported model disagrees with exporter scores (max relative error {worst:.3e})"
            )
    return model
