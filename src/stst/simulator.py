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
ensemble across it; a single boundary is a grid of one, and an empty grid
is refused. Walk lengths, seeds and trial counts go through
errors.check_count and theta, drift and the bridge's taus through
errors.check_finite, so a float or bool count, a NaN theta or an infinite
tau is a ParameterError before any walk runs; so is an infinite band.

Trials are processed in fixed-size batches of 4096, each driven by its own
child of one seed sequence. The batches run on a thread pool with one worker
per usable CPU. Each batch draws its trials in blocks sized by the one
block budget of stst.data (_BLOCK_CELLS, 2**17 cells, through _block_rows),
so a block holds at most max(2**17, n) draws: 1 MB for any n <= 2**17.
Each block is a new array of 8-byte draws (float64 normals and uniforms,
int64 rademacher 0/1), and the reduction of its walks is all it keeps.

Every experiment reduces a walk to two numbers: max(S_1..S_{n-1}) and S_n
for the crossing grids (for the exact bridge, the maximum of the pinned
bridge S_i - (i/n)(S_n - theta)), and the first crossing time T with S_T
for the stopping time. Each block of raw draws goes to a compiled row
kernel (_walk.c, built with cc on first use, never at import; see
stst._native) that fuses the step arithmetic raw*scale + drift, the
running sum and the row reduction in one pass over the block; a
stopping-time scan stops at the crossing, though every step is still
drawn. A ctypes call releases the GIL, so the workers' random fills and
kernels all run in parallel. The kernels write no temporary of the block's
shape, so a worker holds its draws and nothing else of their size: about
8 bytes a cell of one block.

Without a C compiler the same two reductions run in numpy, the reference
the kernels are tested against: the step arithmetic in place in the block
(a rademacher int64 block is turned into float64 steps in its own memory,
a slice at a time), np.cumsum, then the reduction. np.cumsum holds the
GIL, so there the workers take turns on it. The exact bridge's shift there
needs a temporary of n - 1 cells a walk, so the exact bridge walks blocks
of half as many rows (on both paths), and a stopping-time reduce builds a
boolean mask of the block: about 9 bytes a cell (the sums and the mask).
The walks hold at most about workers * 8 * max(2**17, n) bytes at a time
with the kernels, and about workers * 9 * max(2**17, n) without, whatever
the trial count. Both paths give the same results, bit for bit:
the kernels round each product and sum as numpy does (-ffp-contract=off)
and add the steps one after another, as np.cumsum does. Results are
gathered in trial order and are identical for any number of workers and
any block size, since every reduction works per row and a batch's stream
is drawn in row-major order.
"""

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import ConfidenceParams, crossing_magnitude, expected_stop_bound
from .data import _block_rows, write_csv
from .errors import InsufficientAcceptanceError, ParameterError, check_count, check_finite

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
_CAST_CELLS = 8192  # int64 draws turned into float64 steps at a time, without a copy of the block

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
        check_count("n", self.n, 1)
        if self.step not in _STEP_KINDS:
            raise ParameterError(f"step must be one of {_STEP_KINDS}, got {self.step!r}")
        if not self.scale > 0.0 or math.isinf(self.scale):
            raise ParameterError(f"scale must be positive and finite, got {self.scale!r}")
        check_finite("drift", self.drift)
        check_count("seed", self.seed, 0)

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


@functools.cache
def _kernels():
    """The row kernels of _walk.c, compiled on first use, or None without a
    C compiler (every block is then reduced by the numpy reference)."""
    from . import _native

    return _native.load("_walk")


def _draw(rng: np.random.Generator, spec: WalkSpec, shape: tuple) -> np.ndarray:
    """A new block of raw draws of `shape`, in row-major order: standard
    normals, rademacher 0/1 as int64, or uniforms on [-scale, scale]. Step j
    is raw_j*_raw_scale(spec) + drift, with 2k - 1 in place of a rademacher k."""
    if spec.step == "gaussian":
        return rng.standard_normal(shape)
    if spec.step == "rademacher":
        return rng.integers(0, 2, size=shape)
    # drawn whole: numpy forms low + (high - low)*u in C, where a compiler
    # may fuse the multiply-add and round once where ours would round twice
    return rng.uniform(-spec.scale, spec.scale, size=shape)


def _raw_scale(spec: WalkSpec) -> float:
    """The factor of a raw draw in its step; a uniform draw comes scaled."""
    return 1.0 if spec.step == "uniform" else spec.scale


def _prefix_sums(spec: WalkSpec, raw: np.ndarray) -> np.ndarray:
    """The numpy reference: S_1..S_n of every row of a C-ordered block of
    raw draws (as _draw makes them), formed in raw's own memory. An int64
    rademacher block becomes its float64 values 2k - 1 in place,
    _CAST_CELLS at a time (numpy copies only the slice it overwrites), so
    the block is never held twice. Each step is rounded twice, raw*scale
    then + drift, and np.cumsum adds them one after another."""
    if raw.dtype == np.int64:
        ints, raw = raw.reshape(-1), raw.view(np.float64)
        cells = raw.reshape(-1)
        for i in range(0, cells.size, _CAST_CELLS):
            np.multiply(ints[i : i + _CAST_CELLS], 2.0, out=cells[i : i + _CAST_CELLS])
        raw -= 1.0
    raw *= _raw_scale(spec)
    raw += spec.drift
    return np.cumsum(raw, axis=1, out=raw)


def _kernel_args(spec: WalkSpec, raw: np.ndarray) -> tuple:
    """The leading arguments of either kernel for a block of raw draws: the
    float64 draws or the int64 rademacher draws (the other one NULL), the
    block's shape, the raw scale and the drift. The kernels read the block
    through its address, so anything but a C-ordered 2-d block of those
    dtypes is refused."""
    if raw.ndim != 2 or not raw.flags.c_contiguous or raw.dtype not in (np.float64, np.int64):
        raise ValueError(f"a walk block must be C-ordered 2-d float64 or int64, got {raw.dtype} {raw.shape}")
    x, k = (None, raw.ctypes.data) if raw.dtype == np.int64 else (raw.ctypes.data, None)
    return (x, k, *raw.shape, _raw_scale(spec), spec.drift)


def _high_end(kernels, spec: WalkSpec, raw, frac=None, theta: float = 0.0):
    """(max(S_1..S_{n-1}), S_n) of every row of a block of raw draws; the
    maximum is -inf for n = 1. With frac (gaussian walks only), it is the
    maximum of the bridge pinned at theta, S_i - frac_i*(S_n - theta).
    The compiled kernel when given, else the numpy reference, which may
    overwrite raw."""
    if kernels is None:
        paths = _prefix_sums(spec, raw)
        end = paths[:, -1].copy()
        if frac is not None:
            paths[:, :-1] -= frac * (end[:, None] - theta)
        return paths[:, :-1].max(axis=1, initial=-np.inf), end
    args = _kernel_args(spec, raw)
    pinned = None
    if frac is not None:
        if frac.shape != (raw.shape[1] - 1,) or frac.dtype != np.float64 or not frac.flags.c_contiguous:
            raise ValueError(f"frac must be C-ordered float64 of n - 1 = {raw.shape[1] - 1} cells")
        if raw.dtype != np.float64:
            raise ValueError("the pinned bridge reads float64 (gaussian) draws")
        pinned = frac.ctypes.data
    high, end = np.empty((2, raw.shape[0]))
    kernels.stst_walk_high_end(*args, pinned, theta, high.ctypes.data, end.ctypes.data)
    return high, end


def _first_crossing(kernels, spec: WalkSpec, raw, tau: float):
    """(T, S_T) of every row of a block of raw draws: T is the first i with
    S_i >= tau, or n when no sum reaches tau. The compiled kernel when
    given, else the numpy reference, which may overwrite raw."""
    if kernels is None:
        paths = _prefix_sums(spec, raw)
        rows = np.arange(paths.shape[0])
        hit = paths >= tau
        first = hit.argmax(axis=1)
        t = np.where(hit[rows, first], first + 1, spec.n)
        return t, paths[rows, t - 1]
    t, stop = np.empty(raw.shape[0], dtype=np.int64), np.empty(raw.shape[0])
    kernels.stst_walk_first_crossing(*_kernel_args(spec, raw), tau, t.ctypes.data, stop.ctypes.data)
    return t, stop


def _batches(seed: int, trials: int):
    n_batches = (trials + _BATCH - 1) // _BATCH
    children = np.random.SeedSequence(seed).spawn(n_batches)
    done = 0
    for child in children:
        count = min(_BATCH, trials - done)
        done += count
        yield np.random.default_rng(child), count


def _walk_draws(spec: WalkSpec, trials: int, reduce, row_cells: int | None = None) -> list:
    """reduce(raw) of every block of raw draws (see _draw) of `trials` walks;
    each block is drawn new, so reduce may overwrite or keep it.

    Each batch of _BATCH walks is drawn from its own seed child and walked in
    blocks of _block_rows(row_cells) rows (row_cells, the cells a walk
    holds, defaults to n); the batches run on a thread pool. The results
    come back in trial order and equal those of whole-batch arrays bit for
    bit, since the draws consume the stream in row-major order and every
    reduction works per row.
    """
    rows = _block_rows(row_cells or spec.n)

    def run(job):
        rng, count = job
        return [reduce(_draw(rng, spec, (min(rows, count - start), spec.n))) for start in range(0, count, rows)]

    jobs = list(_batches(spec.seed, trials))
    pool = ThreadPoolExecutor(max_workers=min(_workers(), len(jobs)))
    try:
        return [result for batch in pool.map(run, jobs) for result in batch]
    finally:
        # after an error or an interrupt, batches not yet started never run
        pool.shutdown(cancel_futures=True)


def _kept_maxima(spec: WalkSpec, trials: int, keep, frac=None, theta: float = 0.0) -> np.ndarray:
    """max(S_1..S_{n-1}) of every walk whose endpoint keep(S_n) keeps (a mask
    or a slice), in trial order; with frac, the maxima of the bridges pinned
    at theta (see _high_end). Each block keeps its own maxima."""
    kernels = _kernels()  # built once, before the workers start
    # the numpy bridge's shift temporary holds n - 1 cells a walk beside its
    # n steps, so it walks blocks of half the rows; the kernels need none,
    # but half blocks keep their peak resident set about 0.5 MB lower too
    row_cells = 2 * spec.n if frac is not None else None

    def reduce(raw):
        high, end = _high_end(kernels, spec, raw, frac, theta)
        return high[keep(end)]

    return np.concatenate(_walk_draws(spec, trials, reduce, row_cells))


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
        Boundaries, at least one, each finite and strictly above theta.
    band : float, optional
        Rejection half-width around theta for endpoint acceptance, positive
        and finite (an infinite band would accept every walk, unpinned).
        Defaults to 0.1 * sqrt(total variance). Rejection mode only: exact
        mode raises ParameterError when it is given.
    mode : {"rejection", "exact"}
        "rejection" keeps walks whose endpoint lands within the band.
        "exact" (gaussian steps only) pins the endpoint by the bridge
        construction B_i = W_i - (i/n)(W_n - theta), so every trial counts.

    Crossing means max over i < n of S_i >= tau, matching a first crossing
    strictly before the endpoint.
    """
    taus = [float(t) for t in taus]
    if not taus:  # an empty grid would walk every trial for no estimate
        raise ParameterError("taus must not be empty")
    if spec.drift != 0.0:
        raise ParameterError("bridge crossing requires a driftless walk spec")
    check_finite("theta", theta)
    if not all(t > theta for t in taus):  # a NaN tau exceeds nothing
        raise ParameterError(f"every tau must exceed theta={theta!r}")
    for tau in taus:
        check_finite("tau", tau)
    check_count("trials", trials, 1)
    if mode not in ("rejection", "exact"):
        raise ParameterError(f"unknown mode {mode!r}")
    if mode == "exact" and spec.step != "gaussian":
        raise ParameterError("exact bridge construction requires gaussian steps")
    if mode == "exact" and band is not None:
        raise ParameterError("band is read only in rejection mode; exact mode pins every endpoint")
    if band is None:
        band = 0.1 * math.sqrt(spec.total_variance)
    if mode == "rejection" and not 0.0 < band < math.inf:
        raise ParameterError(f"band must be positive and finite, got {band!r}")

    if mode == "exact":
        # the bridge before its endpoint: B_i = W_i - (i/n)(W_n - theta)
        frac = (np.arange(1, spec.n + 1) / spec.n)[:-1]
        maxima = _kept_maxima(spec, trials, lambda end: slice(None), frac, theta)
    else:
        maxima = _kept_maxima(spec, trials, lambda end: np.abs(end - theta) <= band)
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
    if not deltas:
        raise ParameterError("deltas must not be empty")
    if spec.drift != 0.0:
        raise ParameterError("stop-error calibration requires a driftless walk spec")
    if any(not 0.0 < d <= 1.0 for d in deltas):
        raise ParameterError("every delta must lie in (0, 1]")
    check_finite("theta", theta)
    check_count("trials", trials, 1)
    taus = [
        theta + crossing_magnitude(ConfidenceParams(delta=d, variance=spec.total_variance), conditioning)
        for d in deltas
    ]
    maxima = _kept_maxima(spec, trials, lambda end: end < theta)
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
    check_count("trials", trials, 2)
    tau = crossing_magnitude(ConfidenceParams(delta=delta, variance=spec.total_variance))

    kernels = _kernels()  # built once, before the workers start
    results = _walk_draws(spec, trials, lambda raw: _first_crossing(kernels, spec, raw, tau))
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
