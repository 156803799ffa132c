"""Benchmark harness: threshold sweeps, matched-budget comparison, PR curves,
and the theory verification suite.

A sweep scores the whole test set once (one prefix matrix), then replays the
attentive scan for each stop threshold on a grid between the lowest observed
partial score and theta. Each attentive pass is paired with a budgeted pass
whose budget is the attentive pass's mean evaluated-term count, rounded
half-to-even. Early-stopped predictions all report the stop threshold itself
as their score, so PR curves over attentive scores show a cliff at tau.

Per-example work inside a pass is vectorized and rows are independent; passes
are sequential because each budgeted pass depends on its attentive partner.
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from .calibration import measure_stop_error
from .core import ConfidenceParams, Direction, StoppingRule, crossing_magnitude, crossing_probability
from .data import Dataset, write_csv
from .errors import ParameterError, UndefinedRateError
from .predictor import (
    WeightedModel,
    attentive_from_prefix,
    budgeted_from_prefix,
    full_from_prefix,
    prefix_score_matrix,
)
from .simulator import (
    THEORY_COLUMNS,
    TheoryRow,
    WalkSpec,
    empirical_bridge_crossing_grid,
    empirical_stop_error_grid,
    empirical_stopping_time,
)

__all__ = [
    "SweepRecord",
    "run_sweep",
    "sweep_csv",
    "SWEEP_COLUMNS",
    "PRPoint",
    "precision_recall",
    "pr_csv",
    "TheoryConfig",
    "run_theory_suite",
    "theory_csv",
]


@dataclass(frozen=True)
class SweepRecord:
    """One benchmark row: a full, attentive, or budgeted pass over the test set.

    wall_time is informational only and never serialized; evaluated-term
    counts are the machine-independent cost metric.
    """

    mode: str  # "full" | "attentive" | "budgeted"
    tau: float | None
    budget: int | None
    theta: float
    tp: int
    fp: int
    tn: int
    fn: int
    mean_terms: float
    stop_error_rate: float
    wall_time: float


def _confusion(pred_labels: np.ndarray, truth: np.ndarray) -> tuple[int, int, int, int]:
    pos = truth == 1
    pred_pos = pred_labels == 1
    tp = int((pred_pos & pos).sum())
    fp = int((pred_pos & ~pos).sum())
    tn = int((~pred_pos & ~pos).sum())
    fn = int((~pred_pos & pos).sum())
    return tp, fp, tn, fn


def _grid_values(prefix: np.ndarray, theta: float, grid) -> np.ndarray:
    low = float(prefix.min())
    if not low < theta:
        raise ParameterError(
            f"no partial score below theta={theta!r}; nothing to sweep (min partial {low!r})"
        )
    if grid == "exhaustive":
        per_example_min = prefix.min(axis=1)
        values = np.unique(per_example_min)
        values = values[values < theta]
        if values.size == 0:
            raise ParameterError("exhaustive grid is empty below theta")
        return values
    # theta itself is excluded: tau = theta is a degenerate rule
    return np.linspace(low, theta, num=grid, endpoint=False)


def run_sweep(
    model: WeightedModel,
    test: Dataset,
    theta: float,
    grid=50,
) -> list[SweepRecord]:
    """Full pass, then an (attentive, budgeted) record pair per grid point.

    The sweep rejects below: each grid tau sits under theta and stops predict
    -1. Stop-error rates for both modes are measured against the single full
    pass, conditioned on full label +1, the class opposite the rejection
    direction. grid is a point count (an int >= 1, not a bool) or
    "exhaustive", every distinct per-example minimum below theta.
    """
    whole = isinstance(grid, (int, np.integer)) and not isinstance(grid, bool) and grid >= 1
    if not (whole or isinstance(grid, str) and grid == "exhaustive"):
        raise ParameterError(f"grid must be an integer >= 1 or 'exhaustive', got {grid!r}")
    if not np.any(model.mu):
        warnings.warn("model mu is all zero; sweeping uncorrected scores voids the delta calibration")
    theta = float(theta)  # an int theta still writes as a float in the CSV

    def record(mode, preds, t0, mean_terms, tau=None, budget=None, stop_error_rate=0.0):
        # wall_time covers the pass, not the confusion counts
        wall_time = time.perf_counter() - t0
        tp, fp, tn, fn = _confusion(preds.label, test.y)
        return SweepRecord(mode, tau, budget, theta, tp, fp, tn, fn, mean_terms, stop_error_rate, wall_time)

    t0 = time.perf_counter()
    prefix = prefix_score_matrix(model, test.X)
    n = prefix.shape[1]
    full = full_from_prefix(prefix, theta)
    records = [record("full", full, t0, float(n))]

    for tau in _grid_values(prefix, theta, grid):
        t0 = time.perf_counter()
        rule = StoppingRule(theta=theta, tau=float(tau), direction=Direction.REJECT_BELOW)
        att = attentive_from_prefix(prefix, rule)
        mean_terms = float(np.mean(att.terms))
        att_err = measure_stop_error(att, full, 1)
        records.append(record("attentive", att, t0, mean_terms, tau=float(tau), stop_error_rate=att_err))

        t0 = time.perf_counter()
        budget = min(max(round(mean_terms), 1), n)
        bud = budgeted_from_prefix(prefix, budget, theta)
        bud_err = measure_stop_error(bud, full, 1) if budget < n else 0.0
        records.append(record("budgeted", bud, t0, float(budget), budget=budget, stop_error_rate=bud_err))
    return records


SWEEP_COLUMNS = (
    "mode",
    "tau",
    "budget",
    "theta",
    "tp",
    "fp",
    "tn",
    "fn",
    "mean_terms",
    "stop_error_rate",
)


def sweep_csv(records, stream) -> None:
    """Serialize sweep records; wall_time is deliberately omitted so output
    is byte-identical across runs with the same flags and seeds."""
    write_csv(stream, SWEEP_COLUMNS, ([getattr(r, c) for c in SWEEP_COLUMNS] for r in records))


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float


def precision_recall(scores, truth) -> list[PRPoint]:
    """PR curve points from per-example scores, descending threshold order.

    An example is predicted positive when its score >= threshold; thresholds
    run over the distinct observed scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.int64)
    if scores.shape != truth.shape or scores.ndim != 1:
        raise ParameterError("scores and truth labels must be aligned 1-d arrays")
    positives = int((truth == 1).sum())
    if positives == 0:
        raise UndefinedRateError("no positive examples in truth; recall undefined")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    tp_cum = np.cumsum(truth[order] == 1)
    # last occurrence of each distinct score = the point where threshold == s
    boundary = np.nonzero(np.diff(s) != 0)[0]
    cut = np.concatenate([boundary, [s.size - 1]])
    points = []
    for k in cut:
        tp = int(tp_cum[k])
        predicted = int(k) + 1
        points.append(
            PRPoint(threshold=float(s[k]), precision=tp / predicted, recall=tp / positives)
        )
    return points


def pr_csv(points, stream) -> None:
    write_csv(stream, ("threshold", "precision", "recall"), ((p.threshold, p.precision, p.recall) for p in points))


# the theory suite's fixed design: bridge boundaries, calibration deltas,
# and the stopping-time delta and walk law
_BRIDGE_TAUS = (0.5, 1.0, 1.5, 2.0)
_STOP_ERROR_DELTAS = (0.05, 0.1, 0.2)
_STOPPING_DELTA = 0.1
_STOPPING_SCALE = 0.1
_STOPPING_DRIFT = 0.1


@dataclass(frozen=True)
class TheoryConfig:
    """Walk lengths, trial counts and the base seed of the theory suite.

    Defaults match the acceptance-scale runs: unit-total-variance gaussian
    walks of n = 2000 steps for the bridge and calibration checks, and
    drift-0.1 rademacher walks (scale 0.1, steps in {0, 0.2}) of each length
    in stopping_ns for the stopping-time scaling. seed is the base seed of
    every walk stream (see run_theory_suite).
    """

    n: int = 2000
    bridge_trials: int = 100_000
    stop_error_trials: int = 120_000
    stopping_ns: tuple = (100, 1_000, 10_000)
    stopping_trials: int = 10_000
    seed: int = 20_240_001

    def __post_init__(self):
        # every field is checked here, so a bad one fails before any walk
        # runs rather than when its own experiment starts
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.bridge_trials < 1:
            raise ParameterError(f"bridge_trials must be >= 1, got {self.bridge_trials}")
        if self.stop_error_trials < 1:
            raise ParameterError(f"stop_error_trials must be >= 1, got {self.stop_error_trials}")
        if self.stopping_trials < 2:
            raise ParameterError(f"stopping_trials must be >= 2, got {self.stopping_trials}")
        # the sqrt(n) slope is fitted through one point per distinct length
        if len(set(self.stopping_ns)) < 2 or min(self.stopping_ns) < 1:
            raise ParameterError(f"stopping_ns needs two or more distinct lengths >= 1, got {self.stopping_ns!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")


def run_theory_suite(config: TheoryConfig = TheoryConfig()) -> list[tuple[TheoryRow, bool]]:
    """Run all three experiments; each row carries its acceptance verdict.

    Seeds: the bridge walks draw from config.seed, the stop-error walks from
    config.seed + 1, and the i-th stopping-time length from
    config.seed + 2 + i.

    Pass rules: bridge rows agree with the closed form within
    max(0.02, 4 standard errors); calibration rows land in [0.5, 1.5] times
    the nominal delta; stopping-time rows are censored on fewer than 1% of
    trials, Wald rows balance within 3 standard errors, and the aggregate
    log-log slope row lies in [0.4, 0.6].

    The stop_error rows measure the default (pinned) placement, the paper's
    formula, under sign conditioning. They fail by design: the rate lands
    near 0.3x delta, which documents how conservative that placement is
    there. The placement solved for sign conditioning
    (crossing_magnitude(..., conditioning="sign")) is checked by acceptance
    criterion 2 and has no rows here.
    """
    results: list[tuple[TheoryRow, bool]] = []

    # 1. pinned-endpoint crossing probability vs closed form
    scale = math.sqrt(1.0 / config.n)  # unit total variance
    spec = WalkSpec(n=config.n, step="gaussian", scale=scale, seed=config.seed)
    estimates = empirical_bridge_crossing_grid(
        spec, _BRIDGE_TAUS, theta=0.0, trials=config.bridge_trials, mode="exact"
    )
    for tau, est in zip(_BRIDGE_TAUS, estimates):
        closed = crossing_probability(tau, 0.0, 1.0)
        ok = abs(est.probability_hat - closed) <= max(0.02, 4.0 * est.standard_error)
        results.append((TheoryRow.crossing("bridge_crossing", config.n, None, float(tau), 0.0, est, closed), ok))

    # 2. sign-conditioned stop-error of the pinned placement vs nominal delta
    spec = WalkSpec(n=config.n, step="gaussian", scale=scale, seed=config.seed + 1)
    estimates = empirical_stop_error_grid(
        spec, _STOP_ERROR_DELTAS, theta=0.0, trials=config.stop_error_trials
    )
    for delta, est in zip(_STOP_ERROR_DELTAS, estimates):
        tau = crossing_magnitude(ConfidenceParams(delta=delta, variance=spec.total_variance))
        ok = 0.5 * delta <= est.probability_hat <= 1.5 * delta
        results.append((TheoryRow.crossing("stop_error", config.n, float(delta), tau, 0.0, est, float(delta)), ok))

    # 3. stopping-time scaling, Wald identity, and the sqrt(n) slope
    log_n = []
    log_t = []
    for i, n in enumerate(config.stopping_ns):
        spec = WalkSpec(
            n=n,
            step="rademacher",
            scale=_STOPPING_SCALE,
            drift=_STOPPING_DRIFT,
            seed=config.seed + 2 + i,
        )
        summary = empirical_stopping_time(spec, _STOPPING_DELTA, trials=config.stopping_trials)
        censor_ok = summary.censored_fraction < 0.01
        results.append((TheoryRow.stopping_time(spec, _STOPPING_DELTA, summary), censor_ok))
        wald_ok = abs(summary.wald_gap) <= 3.0 * summary.wald_gap_se
        results.append(
            (
                TheoryRow(
                    experiment="wald_identity",
                    n=n,
                    delta=_STOPPING_DELTA,
                    tau=summary.tau,
                    theta=0.0,
                    trials=summary.trials,
                    accepted=summary.trials,
                    estimate=summary.wald_gap,
                    stderr=summary.wald_gap_se,
                    closed_form=0.0,
                ),
                wald_ok,
            )
        )
        log_n.append(math.log(n))
        log_t.append(math.log(summary.mean_time))
    slope = float(np.polyfit(log_n, log_t, 1)[0])
    results.append(
        (
            TheoryRow(
                experiment="stopping_time_slope",
                n=0,
                delta=_STOPPING_DELTA,
                tau=0.0,
                theta=0.0,
                trials=config.stopping_trials * len(config.stopping_ns),
                accepted=config.stopping_trials * len(config.stopping_ns),
                estimate=slope,
                stderr=0.0,
                closed_form=0.5,
            ),
            0.4 <= slope <= 0.6,
        )
    )
    return results


def theory_csv(results, stream) -> None:
    """Theory-suite CSV: the simulator column set plus a passed flag."""
    write_csv(
        stream,
        THEORY_COLUMNS + ("passed",),
        ([*(getattr(row, c) for c in THEORY_COLUMNS), ok] for row, ok in results),
    )
