"""Early-stopping evaluation of weighted score sums behind a constant
stopping boundary, with calibration, training, and Monte-Carlo verification.
"""

from .core import (
    ConfidenceParams,
    Direction,
    StoppingRule,
    crossing_magnitude,
    crossing_probability,
    expected_stop_bound,
    make_stopping_rule,
)
from .predictor import (
    KernelSpec,
    Prediction,
    Predictions,
    WeightedModel,
    attentive_predict,
    budgeted_predict,
    coordinate_model,
    full_predict,
    kernel_model,
    load_model,
    permute_terms,
    save_model,
    score_term,
)
from .calibration import CalibrationReport, calibrate, estimate_mu, estimate_variance, measure_stop_error
from .data import Dataset, SyntheticSpec, generate_synthetic, parse_sparse, serialize_sparse, split
from .simulator import (
    CrossingEstimate,
    StoppingTimeSummary,
    WalkSpec,
    empirical_bridge_crossing,
    empirical_stop_error,
    empirical_stopping_time,
)
from .trainer import TrainConfig, hinge_objective, import_kernel_model, train_linear
from .bench import PRPoint, SweepRecord, TheoryConfig, precision_recall, run_sweep, run_theory_suite

__version__ = "0.1.0"
