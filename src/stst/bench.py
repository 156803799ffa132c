"""Benchmark harness: threshold sweeps, matched-budget comparison, PR curves,
and the theory verification suite.

A sweep decides the test set under every stop threshold on a grid between
the lowest observed partial score and theta. Each attentive pass is paired
with a budgeted pass whose budget is the attentive pass's mean
evaluated-term count, rounded half-to-even. The test set is scored once,
one row block at a time, with no (m, n) prefix matrix: each row's running
minimum records and per-column label counts are all the grid needs, so every
pass is read off them. Early-stopped predictions all report the stop
threshold itself as their score, so PR curves over attentive scores show a
cliff at tau.
"""

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

# unused here: perfbench/layers.py wraps measure_stop_error and the four
# prefix-matrix functions by their bench names, and the imports go once those
# bindings move to their own modules (ROADMAP item 18)
from .calibration import measure_stop_error  # noqa: F401
from .core import ConfidenceParams, Direction, StoppingRule, crossing_magnitude, crossing_probability
from .data import Dataset, write_csv
from .errors import ParameterError, UndefinedRateError, check_count, check_finite, check_labels
from .predictor import WeightedModel, _prefix_rows, _row_blocks
from .predictor import (  # noqa: F401
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
    counts are the machine-independent cost metric. In a sweep, the full
    record's wall_time is the one streamed pass over the test set, and
    every attentive and budgeted record carries an equal share of the time
    spent reading the grid off what that pass kept.
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


def _grid_values(minima: np.ndarray, theta: float, grid) -> np.ndarray:
    """The ascending grid of stop thresholds, from each row's minimum over
    all n partial scores."""
    low = float(minima.min())
    if not low < theta:
        raise ParameterError(
            f"no partial score below theta={theta!r}; nothing to sweep (min partial {low!r})"
        )
    if grid == "exhaustive":
        values = np.unique(minima)
        return values[values < theta]  # never empty: low, checked above, is one of them
    # theta itself is excluded: tau = theta is a degenerate rule
    return np.linspace(low, theta, num=grid, endpoint=False)


# Records are searched for one chunk of _RECORD_CHUNK columns at a time: a
# chunk whose minimum is not below theta and every earlier partial score
# holds none, and only the others are scanned with minimum.accumulate, which
# costs about 5 ns a cell (2 vCPUs). At n = 1000 and 2000 one chunk in five
# to eight holds a record. Whole sweeps timed alike at 32 and 64 columns;
# 16 was slower at both sizes, and 128 at n = 1000.
_RECORD_CHUNK = 32


def _records(S: np.ndarray, theta: float):
    """Each row's low (min of all of S), and the value and gap of every
    record low below theta in the block (see _scan), in row-major order."""
    n = S.shape[1]
    starts = np.arange(0, n, _RECORD_CHUNK)
    chunk_low = np.minimum.reduceat(S, starts, axis=1)
    running = np.minimum.accumulate(chunk_low, axis=1)
    before = np.empty_like(running)  # the minimum of every earlier chunk
    before[:, 0], before[:, 1:] = np.inf, running[:, :-1]
    r, j = np.nonzero(chunk_low < np.minimum(before, theta))
    # a chunk running past the last column repeats S_n, which only ties itself
    cols = np.minimum(starts[j, None] + np.arange(_RECORD_CHUNK), n - 1)
    cells = S.reshape(-1).take(r[:, None] * n + cols)
    carry = before[r, j, None]
    prev = np.empty_like(cells)  # the minimum of every earlier column
    prev[:, :1] = carry
    np.minimum.accumulate(cells[:, :-1], axis=1, out=prev[:, 1:])
    np.minimum(prev, carry, out=prev)
    i = np.flatnonzero((cells < prev) & (cells < theta))
    row, k = r[i // _RECORD_CHUNK], cols.reshape(-1).take(i) + 1
    following = np.full_like(k, n)  # the row's next record, or n
    same_row = row[1:] == row[:-1]
    following[:-1][same_row] = k[1:][same_row]
    return running[:, -1], (cells.reshape(-1).take(i), following - k)


def _scan(model: WeightedModel, X, theta: float, truth: np.ndarray):
    """Evaluate every row's prefix scores, one row block at a time, and keep
    only what the sweep reads, with no (m, n) array: each row's full label
    (S_n >= theta) and low (the minimum of S_1..S_n), the record lows below
    theta of every block, and per-column label counts.

    A row stops for tau at the first of S_1..S_{n-1} below tau, which is
    the first of its record lows (S_k below every earlier S_j) below tau.
    Record values fall along a row, so its records below tau are its last
    ones. With record i at count k_i and the row's next record at k_{i+1}
    (n after its last), a stop at record j saves n - k_j terms, the sum of
    the gaps k_{i+1} - k_i over i >= j. So each record adds its gap to the
    terms saved at every tau above its value; a record at S_n has gap 0, as
    a crossing there is no early stop. Only records below theta are kept,
    since every grid tau is: one (value, gap) pair of arrays per block.

    Only a full +1 row changes label when it stops. Such a row has
    S_n >= theta > tau, so it stops iff its low is below tau.

    positive[:, b - 1] counts the rows with S_b >= theta among truth +1,
    among truth -1 and among full +1: the labels at budget b.
    """
    n = model.n
    m, blocks = _row_blocks(model, X)
    full_pos, low = np.empty(m, bool), np.empty(m)
    records = []
    positive = np.zeros((3, n), np.int64)
    for a, b, block in blocks:
        S = _prefix_rows(model, block)
        low[a:b], block_records = _records(S, theta)
        records.append(block_records)
        pos = S >= theta
        full_pos[a:b] = pos[:, -1]
        classes = np.stack([truth[a:b], ~truth[a:b], pos[:, -1]]).astype(np.float64)
        positive += (classes @ pos).astype(np.int64)  # exact: each count is at most the block's rows
    return full_pos, low, records, positive


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
    direction. grid is a point count (an integer >= 1, as
    errors.check_count reads it) or "exhaustive", every distinct
    per-example minimum below theta.

    The test set is evaluated once, one row block at a time, with no (m, n)
    array (see _scan). Every field is what attentive_from_prefix and
    budgeted_from_prefix give on the whole prefix matrix, bit for bit: term
    totals and label counts are exact integers, and each mean and rate is
    one division of two of them.
    """
    if not (isinstance(grid, str) and grid == "exhaustive"):
        try:
            check_count("grid", grid, 1)
        except ParameterError:
            raise ParameterError(f"grid must be an integer >= 1 or 'exhaustive', got {grid!r}") from None
    theta = float(check_finite("theta", theta))  # an int theta still writes as a float in the CSV
    if not np.any(model.mu):
        warnings.warn("model mu is all zero; sweeping uncorrected scores voids the delta calibration")
    n = model.n
    truth = test.y == 1
    m, n_pos = truth.size, int(truth.sum())

    def record(mode, tp, fp, mean_terms, wall_time, tau=None, budget=None, stop_error_rate=0.0):
        return SweepRecord(
            mode, tau, budget, theta, tp, fp, m - n_pos - fp, n_pos - tp, mean_terms, stop_error_rate, wall_time
        )

    t0 = time.perf_counter()
    full_pos, low, record_lows, positive = _scan(model, test.X, theta, truth)
    tp_at, fp_at, full_pos_at = positive  # per budget b, at b - 1
    full_tp, full_fp = int(tp_at[-1]), int(fp_at[-1])
    records = [record("full", full_tp, full_fp, float(n), time.perf_counter() - t0)]

    t0 = time.perf_counter()
    taus = _grid_values(low, theta, grid)
    # the grid ascends, so its last tau makes a rule only if every tau does
    StoppingRule(theta=theta, tau=float(taus[-1]), direction=Direction.REJECT_BELOW)
    denom = int(full_pos_at[-1])
    if denom == 0:
        raise UndefinedRateError("no examples with full label +1; stop-error rate undefined")
    # the terms saved at each tau, from the records below it; a record at
    # or above every tau lands in the spare last slot
    saved = np.zeros(taus.size + 1, np.int64)
    for value, gap in record_lows:
        np.add.at(saved, np.searchsorted(taus, value, side="right"), gap)
    mean_terms = (m * n - np.cumsum(saved[:-1])) / m
    # a stopped row predicts -1, so only the full +1 rows change label
    flipped = np.searchsorted(np.sort(low[full_pos]), taus)
    flipped_tp = np.searchsorted(np.sort(low[full_pos & truth]), taus)
    budgets = np.clip(np.rint(mean_terms), 1, n).astype(np.int64)  # half to even
    columns = zip(
        taus.tolist(),
        (full_tp - flipped_tp).tolist(),
        (full_fp - flipped + flipped_tp).tolist(),
        mean_terms.tolist(),
        (flipped / denom).tolist(),
        budgets.tolist(),
        tp_at[budgets - 1].tolist(),
        fp_at[budgets - 1].tolist(),
        ((denom - full_pos_at[budgets - 1]) / denom).tolist(),
    )
    share = (time.perf_counter() - t0) / (2 * taus.size)
    for tau, tp, fp, terms, err, budget, b_tp, b_fp, b_err in columns:
        records.append(record("attentive", tp, fp, terms, share, tau=tau, stop_error_rate=err))
        records.append(record("budgeted", b_tp, b_fp, float(budget), share, budget=budget, stop_error_rate=b_err))
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
    run over the distinct observed scores. A NaN or infinite score, or a
    truth label other than +1 or -1, is a ParameterError.
    """
    scores, truth = np.asarray(scores, dtype=np.float64), np.asarray(truth)
    if scores.shape != truth.shape or scores.ndim != 1:
        raise ParameterError("scores and truth labels must be aligned 1-d arrays")
    if not np.isfinite(scores).all():
        raise ParameterError("scores must be finite, got a NaN or infinite value")
    truth = check_labels("truth labels", truth)
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
        check_count("n", self.n, 1)
        check_count("bridge_trials", self.bridge_trials, 1)
        check_count("stop_error_trials", self.stop_error_trials, 1)
        check_count("stopping_trials", self.stopping_trials, 2)
        try:
            for n in self.stopping_ns:
                check_count("stopping_ns", n, -math.inf)  # any integer: the bound is checked below
        except ParameterError:
            raise ParameterError(f"stopping_ns must hold integers, got {self.stopping_ns!r}") from None
        # the sqrt(n) slope is fitted through one point per distinct length
        if len(set(self.stopping_ns)) < 2 or min(self.stopping_ns) < 1:
            raise ParameterError(f"stopping_ns needs two or more distinct lengths >= 1, got {self.stopping_ns!r}")
        check_count("seed", self.seed, 0)


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
