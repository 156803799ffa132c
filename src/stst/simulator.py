"""Monte-Carlo checks of the boundary-crossing math on synthetic walks.

Three experiments back the three analytic claims:

  * empirical_bridge_crossing_grid measures the probability that a walk
    pinned at its endpoint crosses a constant boundary, against
    exp(-2*tau*(tau-theta)/var).
  * empirical_stop_error_grid measures the sign-conditioned crossing rate
    with the boundary placed by crossing_magnitude, against the nominal
    delta. With the default pinned placement (the paper's formula, exact for
    an endpoint pinned at theta) it lands near 0.3*delta; with
    conditioning="sign" the boundary is placed for this conditioning and the
    rate matches delta.
  * empirical_stopping_time measures the mean first-crossing time of a
    positive-drift walk, against the (magnitude + k)/drift upper estimate and
    Wald's identity.

The two crossing experiments take a grid of boundaries and share one path
ensemble across it; a single boundary is a grid of one.

Trials are processed in fixed-size batches of 4096, each driven by its own
child of one seed sequence. The batches run on a thread pool with one worker
per usable CPU; numpy's random fills, most of the cost, release the GIL and
run in parallel. Each batch walks its trials in blocks of
max(1, 2**19 // n) rows through one buffer that is filled and summed in
place, so a worker's block holds at most max(2**19, n) steps: 4 MB for
any n <= 2**19. The rademacher and uniform fills draw a temporary of the
block's shape (int64 and float64), and a stopping-time reduce builds a
boolean mask of it, so the walks hold at most about
workers * 16 * max(2**19, n) bytes at a time, whatever the trial count.
Results are gathered in trial order and are identical, bit for bit, for any
number of workers and any block size, since every reduction works per row
and a batch's stream is drawn in row-major order.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ConfidenceParams, crossing_magnitude, expected_stop_bound
from .data import write_csv
from .errors import InsufficientAcceptanceError, ParameterError

__all__ = [
    "WalkSpec",
    "CrossingEstimate",
    "StoppingTimeSummary",
    "empirical_bridge_crossing_grid",
    "empirical_stop_error_grid",
    "empirical_stopping_time",
    "TheoryRow",
    "write_theory_rows",
    "THEORY_COLUMNS",
]

_BATCH = 4096  # trials per seed child: fixes which stream draws which trial
_BLOCK_CELLS = 1 << 19  # steps of prefix sums held at once by one worker
# steps the exact bridge shifts at once through a per-worker scratch; a
# block-sized scratch would add a block per worker to the peak memory
_SHIFT_CELLS = 1 << 16

_STEP_KINDS = ("gaussian", "rademacher", "uniform")


@dataclass(frozen=True)
class WalkSpec:
    """A seeded random walk: n steps of drift plus scaled symmetric noise.

    step selects the noise law; scale is its parameter (standard deviation
    for gaussian, magnitude for rademacher, half-width for uniform). Every
    step adds drift on top of the noise.
    """

    n: int
    step: str = "gaussian"
    scale: float = 1.0
    drift: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.step not in _STEP_KINDS:
            raise ParameterError(f"step must be one of {_STEP_KINDS}, got {self.step!r}")
        if not self.scale > 0.0 or math.isinf(self.scale):
            raise ParameterError(f"scale must be positive and finite, got {self.scale!r}")
        if not math.isfinite(self.drift):
            raise ParameterError(f"drift must be finite, got {self.drift!r}")

    @property
    def step_variance(self) -> float:
        if self.step == "uniform":
            return self.scale**2 / 3.0
        return self.scale**2

    @property
    def total_variance(self) -> float:
        return self.n * self.step_variance

    @property
    def step_bound(self) -> float:
        """Bound k on |step|; infinite for gaussian noise."""
        if self.step == "gaussian":
            return math.inf
        return abs(self.drift) + self.scale


def _workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _rows(cells: int, width: int) -> int:
    """Rows of `width` steps that fit in `cells`; at least one."""
    return max(1, cells // max(width, 1))


def _fill_steps(rng: np.random.Generator, spec: WalkSpec, out: np.ndarray) -> np.ndarray:
    """Fill out with steps drift + noise, drawn in row-major order, in place.

    The values equal drift + scale*noise drawn as one array, bit for bit:
    the stream is consumed in the same order, and x*scale, x + drift are the
    same products and sums.
    """
    if spec.step == "gaussian":
        rng.standard_normal(out=out)
        out *= spec.scale
    elif spec.step == "rademacher":
        np.multiply(rng.integers(0, 2, size=out.shape), 2.0, out=out)
        out -= 1.0
        out *= spec.scale
    else:
        # drawn whole: numpy forms low + (high - low)*u in C, where a compiler
        # may fuse the multiply-add and round once where ours would round twice
        out[...] = rng.uniform(-spec.scale, spec.scale, size=out.shape)
    out += spec.drift
    return out


def _batches(seed: int, trials: int):
    n_batches = (trials + _BATCH - 1) // _BATCH
    children = np.random.SeedSequence(seed).spawn(n_batches)
    done = 0
    for child in children:
        count = min(_BATCH, trials - done)
        done += count
        yield np.random.default_rng(child), count


def _walk(spec: WalkSpec, trials: int, reduce) -> list:
    """reduce() every block of prefix sums S_1..S_n of `trials` walks.

    Each batch of _BATCH walks is drawn from its own seed child and walked in
    blocks of max(1, _BLOCK_CELLS // n) rows, so a block holds at most
    max(_BLOCK_CELLS, n) steps, through one buffer filled and summed in
    place; the batches run on a thread pool. reduce may overwrite the block
    it is given. The results come back in trial order and equal those of
    whole-batch arrays bit for bit, since the fill consumes the stream in
    row-major order and cumsum and every reduction work per row.
    """
    rows = _rows(_BLOCK_CELLS, spec.n)

    def run(job):
        rng, count = job
        buf = np.empty((min(count, rows), spec.n))
        results = []
        for start in range(0, count, rows):
            block = _fill_steps(rng, spec, buf[: count - start])
            results.append(reduce(np.cumsum(block, axis=1, out=block)))
        return results

    jobs = list(_batches(spec.seed, trials))
    pool = ThreadPoolExecutor(max_workers=min(_workers(), len(jobs)))
    try:
        return [result for batch in pool.map(run, jobs) for result in batch]
    finally:
        # after an error or an interrupt, batches not yet started never run
        pool.shutdown(cancel_futures=True)


def _shift_scratch(width: int) -> np.ndarray:
    """The exact bridge's per-worker scratch: at most max(_SHIFT_CELLS, width) cells."""
    return np.empty((_rows(_SHIFT_CELLS, width), width))


def _kept_maxima(spec: WalkSpec, trials: int, accept) -> np.ndarray:
    """max(S_1..S_{n-1}) of every accepted walk, in trial order.

    accept(paths) returns the rows of a block to keep (a mask or a slice)
    and may rewrite the block first. With n = 1 no index precedes the
    endpoint, and the maximum is -inf.
    """

    def reduce(paths):
        keep = accept(paths)
        return paths[:, :-1].max(axis=1, initial=-np.inf)[keep]

    return np.concatenate(_walk(spec, trials, reduce))


@dataclass(frozen=True)
class CrossingEstimate:
    """A conditioned crossing-rate estimate with its binomial standard error."""

    probability_hat: float
    trials_used: int
    accepted: int
    standard_error: float

    def __post_init__(self):
        if self.accepted > self.trials_used:
            raise ParameterError("accepted cannot exceed trials_used")


def _estimates(maxima: np.ndarray, taus, trials: int) -> list[CrossingEstimate]:
    accepted = maxima.size
    estimates = []
    for tau in taus:
        p = int((maxima >= tau).sum()) / accepted
        se = math.sqrt(p * (1.0 - p) / accepted)
        estimates.append(
            CrossingEstimate(probability_hat=p, trials_used=trials, accepted=accepted, standard_error=se)
        )
    return estimates


def empirical_bridge_crossing_grid(
    spec: WalkSpec,
    taus,
    theta: float = 0.0,
    band: float | None = None,
    trials: int = 100_000,
    mode: str = "rejection",
) -> list[CrossingEstimate]:
    """Estimate P(crossing tau before the end | endpoint pinned near theta).

    One path ensemble is shared by every tau in the grid (crossing indicators
    nest, so the estimates are positively coupled but individually unbiased).

    Parameters
    ----------
    spec : WalkSpec
        Must be driftless; the pinned-endpoint claim is for driftless walks.
    taus : sequence of float
        Boundaries, each strictly above theta.
    band : float, optional
        Rejection half-width around theta for endpoint acceptance. Defaults
        to 0.1 * sqrt(total variance). Ignored in exact mode.
    mode : {"rejection", "exact"}
        "rejection" keeps walks whose endpoint lands within the band.
        "exact" (gaussian steps only) pins the endpoint by the bridge
        construction B_i = W_i - (i/n)(W_n - theta), so every trial counts.

    Crossing means max over i < n of S_i >= tau, matching a first crossing
    strictly before the endpoint.
    """
    taus = [float(t) for t in taus]
    if spec.drift != 0.0:
        raise ParameterError("bridge crossing requires a driftless walk spec")
    if any(t <= theta for t in taus):
        raise ParameterError(f"every tau must exceed theta={theta!r}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if mode not in ("rejection", "exact"):
        raise ParameterError(f"unknown mode {mode!r}")
    if mode == "exact" and spec.step != "gaussian":
        raise ParameterError("exact bridge construction requires gaussian steps")
    if band is None:
        band = 0.1 * math.sqrt(spec.total_variance)
    if mode == "rejection" and not band > 0.0:
        raise ParameterError(f"band must be positive, got {band!r}")

    if mode == "exact":
        frac = (np.arange(1, spec.n + 1) / spec.n)[:-1]
        local = threading.local()  # each worker thread reuses its own scratch rows

        def accept(paths):
            # the bridge before its endpoint: B_i = W_i - (i/n)(W_n - theta)
            if not hasattr(local, "scratch"):
                local.scratch = _shift_scratch(spec.n - 1)
            step = len(local.scratch)
            for start in range(0, len(paths), step):
                rows = paths[start : start + step]
                rows[:, :-1] -= np.multiply(frac, rows[:, -1:] - theta, out=local.scratch[: len(rows)])
            return slice(None)

    else:

        def accept(paths):
            return np.abs(paths[:, -1] - theta) <= band

    maxima = _kept_maxima(spec, trials, accept)
    if maxima.size == 0:
        raise InsufficientAcceptanceError(
            f"no trials accepted out of {trials}; widen the band (={band!r}) or add trials"
        )
    return _estimates(maxima, taus, trials)


def empirical_stop_error_grid(
    spec: WalkSpec,
    deltas,
    theta: float = 0.0,
    trials: int = 100_000,
    conditioning: str = "pinned",
) -> list[CrossingEstimate]:
    """Measure P(crossing the delta-calibrated boundary | endpoint below theta).

    For each delta the boundary is
    theta + crossing_magnitude(delta, var(S_n), conditioning) and acceptance
    is the bare sign condition S_n < theta (no band). One path ensemble is
    shared across the delta grid.

    conditioning="sign" places the boundary for exactly this measurement, so
    the rate estimates delta (a continuous gaussian bridge gives delta; a
    discrete walk undershoots slightly, more so for short walks). The default
    "pinned" placement is the paper's formula, exact only for an endpoint
    pinned at theta; measured here it gives 2*Phi(-2m/sd), about 0.3*delta.
    """
    deltas = [float(d) for d in deltas]
    if spec.drift != 0.0:
        raise ParameterError("stop-error calibration requires a driftless walk spec")
    if any(not 0.0 < d <= 1.0 for d in deltas):
        raise ParameterError("every delta must lie in (0, 1]")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    taus = [
        theta + crossing_magnitude(ConfidenceParams(delta=d, variance=spec.total_variance), conditioning)
        for d in deltas
    ]
    maxima = _kept_maxima(spec, trials, lambda paths: paths[:, -1] < theta)
    if maxima.size == 0:
        raise InsufficientAcceptanceError(f"no trials with endpoint below theta out of {trials}")
    return _estimates(maxima, taus, trials)


@dataclass(frozen=True)
class StoppingTimeSummary:
    """First-crossing-time statistics of a positive-drift walk.

    Paths that never cross are censored at T = n and included in the mean;
    censored_fraction reports how often that happened. wald_gap is the mean
    of S_T - T*drift, which has expectation exactly zero for the capped
    stopping time, with wald_gap_se its standard error.
    """

    tau: float
    mean_time: float
    se_time: float
    median_time: float
    max_time: int
    censored_fraction: float
    mean_endpoint: float
    wald_gap: float
    wald_gap_se: float
    trials: int


def empirical_stopping_time(spec: WalkSpec, delta: float, trials: int = 10_000) -> StoppingTimeSummary:
    """Measure T = first i with S_i >= crossing_magnitude(delta, var(S_n)).

    Requires positive drift. Bounded step kinds (rademacher, uniform) match
    the bounded-increment assumption behind the (magnitude + k)/drift
    estimate; gaussian steps are accepted but carry no bound.
    """
    if not spec.drift > 0.0:
        raise ParameterError("stopping-time experiment requires positive drift")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must lie in (0, 1), got {delta!r}")
    if trials < 2:
        raise ParameterError("trials must be >= 2")
    tau = crossing_magnitude(ConfidenceParams(delta=delta, variance=spec.total_variance))

    def reduce(paths):
        rows = np.arange(paths.shape[0])
        hit = paths >= tau
        first = hit.argmax(axis=1)
        t = np.where(hit[rows, first], first + 1, spec.n)
        return t, paths[rows, t - 1]

    results = _walk(spec, trials, reduce)
    times = np.concatenate([t for t, _ in results])
    endpoints = np.concatenate([e for _, e in results])
    # a censored walk ends below tau; every other one stops at S_T >= tau
    censored = int((endpoints < tau).sum())
    mean_t = float(times.mean())
    se_t = float(times.std(ddof=1) / math.sqrt(trials))
    residual = endpoints - times * spec.drift
    return StoppingTimeSummary(
        tau=tau,
        mean_time=mean_t,
        se_time=se_t,
        median_time=float(np.median(times)),
        max_time=int(times.max()),
        censored_fraction=censored / trials,
        mean_endpoint=float(endpoints.mean()),
        wald_gap=float(residual.mean()),
        wald_gap_se=float(residual.std(ddof=1) / math.sqrt(trials)),
        trials=trials,
    )


# -- CSV emission ------------------------------------------------------------

THEORY_COLUMNS = (
    "experiment",
    "n",
    "delta",
    "tau",
    "theta",
    "trials",
    "accepted",
    "estimate",
    "stderr",
    "closed_form",
)


@dataclass(frozen=True)
class TheoryRow:
    """One experiment result in the fixed CSV column order."""

    experiment: str
    n: int
    delta: float | None
    tau: float
    theta: float
    trials: int
    accepted: int
    estimate: float
    stderr: float
    closed_form: float

    @classmethod
    def crossing(cls, experiment: str, n: int, delta, tau, theta, est: CrossingEstimate, closed_form):
        """A crossing-rate row; each caller supplies its own closed form."""
        return cls(
            experiment, n, delta, tau, theta, est.trials_used, est.accepted, est.probability_hat,
            est.standard_error, closed_form,
        )

    @classmethod
    def stopping_time(cls, spec: WalkSpec, delta: float, summary: StoppingTimeSummary):
        """A stopping-time row against expected_stop_bound; censored walks are not accepted."""
        bound = expected_stop_bound(
            ConfidenceParams(delta=delta, variance=spec.total_variance), step_bound=spec.step_bound, drift=spec.drift
        )
        accepted = summary.trials - round(summary.censored_fraction * summary.trials)
        return cls(
            "stopping_time", spec.n, delta, summary.tau, 0.0, summary.trials, accepted, summary.mean_time,
            summary.se_time, bound,
        )


def write_theory_rows(rows, stream) -> None:
    write_csv(stream, THEORY_COLUMNS, ([getattr(row, c) for c in THEORY_COLUMNS] for row in rows))
