import math
import sys

import numpy as np
import pytest
from scipy.stats import norm

from stst import (
    ConfidenceParams,
    WalkSpec,
    crossing_magnitude,
    empirical_bridge_crossing_grid,
    empirical_stop_error_grid,
    empirical_stopping_time,
    simulator,
)
from stst.errors import InsufficientAcceptanceError, ParameterError
from stst.simulator import (
    CrossingEstimate,
    StoppingTimeSummary,
    TheoryRow,
    write_theory_rows,
)


def walk_paths(spec, trials):
    """Every prefix-sum path the walk engine draws, in trial order.

    The engine reuses its block buffer, so each block is copied out.
    """
    return np.concatenate(simulator._walk(spec, trials, lambda paths: paths.copy()))


def walk_endpoints(spec, trials):
    return np.concatenate(simulator._walk(spec, trials, lambda paths: paths[:, -1].copy()))


class TestSimulateWalk:
    def test_deterministic(self):
        spec = WalkSpec(n=20, step="gaussian", scale=0.5, drift=0.1, seed=8)
        assert np.array_equal(walk_paths(spec, 300), walk_paths(spec, 300))

    def test_rademacher_single_step_support(self):
        values = set(walk_endpoints(WalkSpec(n=1, step="rademacher", scale=1.0, seed=0), 40).tolist())
        assert values == {-1.0, 1.0}

    def test_moments_within_three_se(self):
        # E[S_n] = n*drift, Var(S_n) = n*scale^2 for gaussian steps
        n, drift, scale, trials = 80, 0.2, 0.7, 2000
        endpoints = walk_endpoints(WalkSpec(n=n, step="gaussian", scale=scale, drift=drift, seed=8), trials)
        se_mean = scale * math.sqrt(n) / math.sqrt(trials)
        assert abs(endpoints.mean() - n * drift) <= 3 * se_mean
        var = endpoints.var(ddof=1)
        se_var = n * scale**2 * math.sqrt(2.0 / (trials - 1))
        assert abs(var - n * scale**2) <= 3 * se_var

    def test_uniform_step_variance(self):
        spec = WalkSpec(n=10, step="uniform", scale=3.0)
        assert spec.step_variance == pytest.approx(3.0, rel=1e-12)

    def test_invalid_specs(self):
        with pytest.raises(ParameterError):
            WalkSpec(n=0)
        with pytest.raises(ParameterError):
            WalkSpec(n=1, step="levy")
        with pytest.raises(ParameterError):
            WalkSpec(n=1, scale=0.0)


def unit_variance_spec(n=2000, seed=0):
    return WalkSpec(n=n, step="gaussian", scale=math.sqrt(1.0 / n), seed=seed)


class TestBridgeCrossing:
    def test_exact_mode_matches_closed_form(self):
        est = empirical_bridge_crossing_grid(
            unit_variance_spec(seed=2), [1.0], trials=30_000, mode="exact"
        )[0]
        target = math.exp(-2.0)
        assert est.accepted == 30_000
        assert abs(est.probability_hat - target) <= max(0.02, 4 * est.standard_error)

    def test_rejection_mode_matches_closed_form(self):
        est = empirical_bridge_crossing_grid(
            unit_variance_spec(n=1000, seed=3), [1.0], trials=80_000, mode="rejection"
        )[0]
        target = math.exp(-2.0)
        assert est.accepted < est.trials_used
        assert abs(est.probability_hat - target) <= max(0.02, 4 * est.standard_error)

    def test_modes_agree_within_three_combined_se(self):
        exact = empirical_bridge_crossing_grid(
            unit_variance_spec(n=500, seed=4), [1.0], trials=30_000, mode="exact"
        )[0]
        reject = empirical_bridge_crossing_grid(
            unit_variance_spec(n=500, seed=5), [1.0], trials=80_000, mode="rejection"
        )[0]
        combined = math.hypot(exact.standard_error, reject.standard_error)
        assert abs(exact.probability_hat - reject.probability_hat) <= 3 * combined

    def test_unreachable_boundary_gives_zero(self):
        spec = WalkSpec(n=8, step="rademacher", scale=1.0, seed=6)
        est = empirical_bridge_crossing_grid(spec, [9.0], theta=0.0, band=0.5, trials=5_000)[0]
        assert est.probability_hat == 0.0
        assert est.standard_error == 0.0

    def test_scale_invariance_same_seeds(self):
        # doubling the step scale, tau, and band rescales paths exactly
        spec1 = WalkSpec(n=300, step="gaussian", scale=0.25, seed=7)
        spec2 = WalkSpec(n=300, step="gaussian", scale=0.5, seed=7)
        a = empirical_bridge_crossing_grid(spec1, [0.8], band=0.3, trials=20_000)[0]
        b = empirical_bridge_crossing_grid(spec2, [1.6], band=0.6, trials=20_000)[0]
        assert a.probability_hat == b.probability_hat
        assert a.accepted == b.accepted

    def test_nesting_in_tau(self):
        ests = empirical_bridge_crossing_grid(
            unit_variance_spec(n=400, seed=8), taus=[0.5, 1.0, 1.5, 2.0], trials=20_000, mode="exact"
        )
        probs = [e.probability_hat for e in ests]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_insufficient_acceptance(self):
        # endpoints of a two-step unit rademacher walk are in {-2, 0, 2}
        spec = WalkSpec(n=2, step="rademacher", scale=1.0, seed=9)
        with pytest.raises(InsufficientAcceptanceError):
            empirical_bridge_crossing_grid(spec, [1.5], theta=1.0, band=0.5, trials=2_000)

    def test_preconditions(self):
        spec = WalkSpec(n=10, step="gaussian", scale=1.0, drift=0.5, seed=0)
        with pytest.raises(ParameterError):
            empirical_bridge_crossing_grid(spec, [1.0], trials=100)
        with pytest.raises(ParameterError):
            empirical_bridge_crossing_grid(WalkSpec(n=10, seed=0), [-1.0], theta=0.0, trials=100)
        rademacher = WalkSpec(n=10, step="rademacher", seed=0)
        with pytest.raises(ParameterError):
            empirical_bridge_crossing_grid(rademacher, [1.0], trials=100, mode="exact")

    def test_determinism(self):
        spec = unit_variance_spec(n=500, seed=10)
        a = empirical_bridge_crossing_grid(spec, [1.0], trials=10_000, mode="exact")[0]
        b = empirical_bridge_crossing_grid(spec, [1.0], trials=10_000, mode="exact")[0]
        assert a == b


class TestStopError:
    def test_delta_one_boundary_always_crossed(self):
        # tau = theta: a walk conditioned to end below zero has essentially
        # surely been at or above zero somewhere before the end
        est = empirical_stop_error_grid(unit_variance_spec(n=1000, seed=11), [1.0], trials=20_000)[0]
        assert est.probability_hat > 0.9

    def test_rate_against_sign_conditioned_closed_form(self):
        # independent oracle by the reflection principle:
        # P(max >= tau and S_n < 0) = P(S_n > 2 tau), so the conditioned rate
        # for a continuous bridge is 2 * (1 - Phi(2 tau)); the discrete walk
        # undershoots slightly. This sits near 0.31 * delta, far below the
        # nominal delta, which is exact only under endpoint pinning.
        delta = 0.1
        tau = math.sqrt(-0.5 * math.log(delta))
        oracle = 2.0 * norm.sf(2.0 * tau)
        assert oracle == pytest.approx(0.03188, abs=2e-4)
        est = empirical_stop_error_grid(unit_variance_spec(seed=12), [delta], trials=40_000)[0]
        assert abs(est.probability_hat - oracle) <= max(0.01, 4 * est.standard_error)
        assert est.probability_hat < delta

    def test_rate_nested_in_delta(self):
        ests = empirical_stop_error_grid(
            unit_variance_spec(n=500, seed=13), deltas=[0.05, 0.1, 0.2, 0.5], trials=20_000
        )
        rates = [e.probability_hat for e in ests]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_acceptance_counts_sign_conditioning(self):
        est = empirical_stop_error_grid(unit_variance_spec(n=200, seed=14), [0.1], trials=10_000)[0]
        # about half the walks end below zero
        assert 0.4 * est.trials_used <= est.accepted <= 0.6 * est.trials_used

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            empirical_stop_error_grid(WalkSpec(n=10, drift=0.1, seed=0), [0.1], trials=100)
        with pytest.raises(ParameterError):
            empirical_stop_error_grid(WalkSpec(n=10, seed=0), [1.5], trials=100)
        with pytest.raises(ParameterError):
            empirical_stop_error_grid(WalkSpec(n=10, seed=0), [0.1], trials=100, conditioning="endpoint")
        with pytest.raises(ParameterError):
            empirical_stop_error_grid(WalkSpec(n=10, seed=0), [0.1], trials=0)


class TestStoppingTime:
    def test_certain_crossing_at_first_step(self):
        # step lower bound (drift - scale = 2) exceeds tau, so T = 1 always
        spec = WalkSpec(n=4, step="rademacher", scale=1.0, drift=3.0, seed=15)
        summary = empirical_stopping_time(spec, delta=0.5, trials=500)
        assert summary.tau < 2.0
        assert summary.mean_time == 1.0
        assert summary.censored_fraction == 0.0

    def test_wald_identity_within_three_se(self):
        spec = WalkSpec(n=2000, step="rademacher", scale=0.1, drift=0.1, seed=16)
        summary = empirical_stopping_time(spec, delta=0.1, trials=5_000)
        assert abs(summary.wald_gap) <= 3 * summary.wald_gap_se
        # equivalent statement: E[S_T]/E[X] tracks E[T]
        assert summary.mean_endpoint / spec.drift == pytest.approx(
            summary.mean_time, abs=3 * summary.wald_gap_se / spec.drift
        )

    def test_censoring_reported(self):
        # drift far too weak to reach the boundary within n steps
        spec = WalkSpec(n=50, step="rademacher", scale=0.01, drift=0.0001, seed=17)
        summary = empirical_stopping_time(spec, delta=0.1, trials=2_000)
        assert summary.censored_fraction > 0.5
        assert summary.max_time == 50

    def test_determinism(self):
        spec = WalkSpec(n=500, step="uniform", scale=0.2, drift=0.05, seed=18)
        assert empirical_stopping_time(spec, 0.2, trials=2_000) == empirical_stopping_time(spec, 0.2, trials=2_000)

    def test_requires_positive_drift(self):
        with pytest.raises(ParameterError):
            empirical_stopping_time(WalkSpec(n=10, seed=0), delta=0.1, trials=100)


# -- the blocked, threaded walk engine against whole-batch walks --------------

BATCH = 4096  # trials per seed child in the simulator's seed layout
TRIALS = BATCH + 300  # crosses a batch boundary; TestWalkEngineSmallBlocks crosses block edges


def reference_steps(rng, spec, shape):
    """drift + scale*noise drawn as one array."""
    if spec.step == "gaussian":
        noise = spec.scale * rng.standard_normal(shape)
    elif spec.step == "rademacher":
        noise = spec.scale * (2.0 * rng.integers(0, 2, size=shape) - 1.0)
    else:
        noise = rng.uniform(-spec.scale, spec.scale, size=shape)
    return spec.drift + noise


def reference_paths(spec, trials):
    """Each batch's walks as one (count, n) array of prefix sums."""
    children = np.random.SeedSequence(spec.seed).spawn(-(-trials // BATCH))
    for k, child in enumerate(children):
        shape = (min(BATCH, trials - k * BATCH), spec.n)
        yield np.cumsum(reference_steps(np.random.default_rng(child), spec, shape), axis=1)


def reference_estimates(spec, taus, trials, accept):
    crossed = np.zeros(len(taus), dtype=np.int64)
    accepted = 0
    for paths in reference_paths(spec, trials):
        kept = accept(paths)
        accepted += kept.shape[0]
        if spec.n > 1 and kept.shape[0]:
            path_max = kept[:, :-1].max(axis=1)
            crossed += [int((path_max >= tau).sum()) for tau in taus]
    out = []
    for c in crossed:
        p = int(c) / accepted
        out.append(CrossingEstimate(p, trials, accepted, math.sqrt(p * (1.0 - p) / accepted)))
    return out


def reference_stopping_time(spec, tau, trials):
    times, endpoints = [], []
    censored = 0
    for paths in reference_paths(spec, trials):
        hit = paths >= tau
        any_hit = hit.any(axis=1)
        t = np.where(any_hit, hit.argmax(axis=1) + 1, spec.n)
        censored += int((~any_hit).sum())
        times.append(t)
        endpoints.append(paths[np.arange(paths.shape[0]), t - 1])
    times, endpoints = np.concatenate(times), np.concatenate(endpoints)
    residual = endpoints - times * spec.drift
    return StoppingTimeSummary(
        tau=tau,
        mean_time=float(times.mean()),
        se_time=float(times.std(ddof=1) / math.sqrt(trials)),
        median_time=float(np.median(times)),
        max_time=int(times.max()),
        censored_fraction=censored / trials,
        mean_endpoint=float(endpoints.mean()),
        wald_gap=float(residual.mean()),
        wald_gap_se=float(residual.std(ddof=1) / math.sqrt(trials)),
        trials=trials,
    )


STEPS = [("gaussian", 0.3), ("rademacher", 0.3), ("uniform", 0.5)]


class TestWalkEngine:
    @pytest.mark.parametrize("n", [1, 37])
    @pytest.mark.parametrize("step,scale", STEPS)
    def test_rejection_bridge_matches_whole_batch(self, step, scale, n):
        spec = WalkSpec(n=n, step=step, scale=scale, seed=101 + n)
        theta, band, taus = 0.05, 0.9 * scale * math.sqrt(n), [0.1, 0.4, 1.0]
        got = empirical_bridge_crossing_grid(spec, taus, theta=theta, band=band, trials=TRIALS)
        want = reference_estimates(spec, taus, TRIALS, lambda p: p[np.abs(p[:, -1] - theta) <= band])
        assert got == want

    @pytest.mark.parametrize("n", [1, 37])
    def test_exact_bridge_matches_whole_batch(self, n):
        spec = WalkSpec(n=n, step="gaussian", scale=0.3, seed=103 + n)
        theta, taus = -0.05, [0.1, 0.4, 1.0]
        frac = np.arange(1, n + 1) / n
        got = empirical_bridge_crossing_grid(spec, taus, theta=theta, trials=TRIALS, mode="exact")
        want = reference_estimates(spec, taus, TRIALS, lambda p: p - frac * (p[:, -1:] - theta))
        assert got == want

    @pytest.mark.parametrize("conditioning", ["pinned", "sign"])
    @pytest.mark.parametrize("n", [1, 37])
    @pytest.mark.parametrize("step,scale", STEPS)
    def test_stop_error_grid_matches_whole_batch(self, step, scale, n, conditioning):
        spec = WalkSpec(n=n, step=step, scale=scale, seed=107 + n)
        theta, deltas = 0.02, [0.05, 0.2, 1.0]
        taus = [
            theta + crossing_magnitude(ConfidenceParams(delta=d, variance=spec.total_variance), conditioning)
            for d in deltas
        ]
        got = empirical_stop_error_grid(spec, deltas, theta=theta, trials=TRIALS, conditioning=conditioning)
        want = reference_estimates(spec, taus, TRIALS, lambda p: p[p[:, -1] < theta])
        assert got == want

    @pytest.mark.parametrize("n", [1, 37])
    @pytest.mark.parametrize("step,scale", STEPS)
    def test_stopping_time_matches_whole_batch(self, step, scale, n):
        spec = WalkSpec(n=n, step=step, scale=scale, drift=0.15, seed=109 + n)
        tau = crossing_magnitude(ConfidenceParams(delta=0.2, variance=spec.total_variance))
        got = empirical_stopping_time(spec, 0.2, trials=TRIALS)
        assert got == reference_stopping_time(spec, tau, TRIALS)
        assert 0.0 < got.censored_fraction < 1.0

    @pytest.mark.parametrize("step,scale", STEPS)
    def test_simulate_walk_matches_whole_array(self, step, scale):
        # the block-wise in-place fill and cumsum against whole-batch arrays
        spec = WalkSpec(n=300, step=step, scale=scale, drift=-0.25, seed=113)
        want = np.concatenate(list(reference_paths(spec, TRIALS)))
        assert walk_paths(spec, TRIALS).tobytes() == want.tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_results_independent_of_worker_count(self, monkeypatch, workers):
        def run():
            drifting = WalkSpec(n=50, step="rademacher", scale=0.2, drift=0.05, seed=127)
            return (
                empirical_stopping_time(drifting, 0.1, trials=3 * BATCH),
                empirical_stop_error_grid(WalkSpec(n=50, seed=131), [0.1], trials=3 * BATCH)[0],
            )

        default = run()
        monkeypatch.setattr(simulator, "_workers", lambda: workers)
        # frequent thread switches interleave the batches as finely as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run() == default
        finally:
            sys.setswitchinterval(interval)


    def test_exact_bridge_scratch_is_per_thread(self, monkeypatch):
        # each worker shifts its block through its own scratch rows; a block
        # shifted with another thread's values would move the maxima
        spec = WalkSpec(n=400, seed=137)

        def run():
            return empirical_bridge_crossing_grid(spec, [0.5, 1.0], trials=6 * BATCH, mode="exact")

        monkeypatch.setattr(simulator, "_workers", lambda: 1)
        serial = run()
        monkeypatch.setattr(simulator, "_workers", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run() == serial
        finally:
            sys.setswitchinterval(interval)

class TestWalkEngineSmallBlocks(TestWalkEngine):
    """The walk-engine equivalences again, with blocks far below the default.

    At the default cell budget a 4096-trial batch of n <= 128 fits one
    block, so these budgets make every test cross block edges: 5-row blocks
    at n = 37, and 77-row blocks, an odd count that does not divide a batch.
    The exact bridge shifts 3 rows of n = 37 at a time, so its shift loop
    crosses its own row groups inside a block too.
    """

    @pytest.fixture(autouse=True, params=[5 * 37, 77 * 37], ids=lambda cells: f"cells{cells}")
    def small_blocks(self, request, monkeypatch):
        monkeypatch.setattr(simulator, "_BLOCK_CELLS", request.param)
        monkeypatch.setattr(simulator, "_SHIFT_CELLS", 3 * 36)


class TestBlockBound:
    """Every block and scratch holds at most max(budget, n) cells, whatever n is."""

    @pytest.mark.parametrize("n", [1, 37, 2000, 10_000, 100_003])
    def test_walk_blocks_within_cell_budget(self, n):
        trials = 64  # several blocks at n = 10 000 and 100 003
        shapes = []
        simulator._walk(WalkSpec(n=n, seed=n), trials, lambda paths: shapes.append(paths.shape))
        assert sum(rows for rows, _ in shapes) == trials
        assert all(width == n and rows * width <= max(simulator._BLOCK_CELLS, n) for rows, width in shapes)
        if n >= 10_000:
            assert len(shapes) > 1

    @pytest.mark.parametrize("n", [2, 37, 2000, 10_000, 100_003])
    def test_exact_bridge_scratch_within_cell_budget(self, n, monkeypatch):
        shapes = []
        scratch = simulator._shift_scratch

        def recorded(width):
            out = scratch(width)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(simulator, "_shift_scratch", recorded)
        empirical_bridge_crossing_grid(WalkSpec(n=n, seed=n), [1.0], trials=64, mode="exact")
        assert shapes
        assert all(width == n - 1 and rows * width <= max(simulator._SHIFT_CELLS, n - 1) for rows, width in shapes)

    def test_walk_peak_memory_independent_of_trials(self, monkeypatch):
        # one worker's rademacher stopping-time walk at n = 100 003: buffer,
        # int64 draw and hit mask, about 17 bytes a cell of one block
        import tracemalloc

        monkeypatch.setattr(simulator, "_workers", lambda: 1)
        spec = WalkSpec(n=100_003, step="rademacher", scale=1.0, drift=0.1, seed=5)
        tracemalloc.start()
        try:
            empirical_stopping_time(spec, 0.1, trials=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * max(simulator._BLOCK_CELLS, spec.n)


class TestTheoryRows:
    def test_csv_layout(self):
        import io

        row = TheoryRow(
            experiment="bridge_crossing",
            n=100,
            delta=None,
            tau=1.0,
            theta=0.0,
            trials=10,
            accepted=10,
            estimate=0.5,
            stderr=0.1,
            closed_form=0.45,
        )
        buf = io.StringIO()
        write_theory_rows([row], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "experiment,n,delta,tau,theta,trials,accepted,estimate,stderr,closed_form"
        assert lines[1].startswith("bridge_crossing,100,,1.0,0.0,10,10,0.5,")
