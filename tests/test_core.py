import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from stst import (
    ConfidenceParams,
    Direction,
    StoppingRule,
    crossing_magnitude,
    crossing_probability,
    expected_stop_bound,
    make_stopping_rule,
)
from stst.errors import DegenerateRuleError, ParameterError


class TestCrossingMagnitude:
    def test_delta_one_gives_zero(self):
        assert crossing_magnitude(ConfidenceParams(delta=1.0, variance=1.0)) == 0.0

    def test_unit_magnitude(self):
        # ln(1/sqrt(e^-2)) = 1
        assert crossing_magnitude(ConfidenceParams(delta=math.exp(-2), variance=1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_frozen_value(self):
        # independent evaluation: sqrt(4 * ln(1 / sqrt(0.1)))
        expected = math.sqrt(4.0 * math.log(1.0 / math.sqrt(0.1)))
        assert expected == pytest.approx(2.1459660262893476, rel=1e-15)
        got = crossing_magnitude(ConfidenceParams(delta=0.1, variance=4.0))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_delta_and_variance(self):
        deltas = [0.01, 0.05, 0.1, 0.3, 0.7, 0.99]
        mags = [crossing_magnitude(ConfidenceParams(delta=d, variance=2.0)) for d in deltas]
        assert all(a > b for a, b in zip(mags, mags[1:]))
        variances = [0.1, 0.5, 1.0, 5.0, 50.0]
        mags = [crossing_magnitude(ConfidenceParams(delta=0.2, variance=v)) for v in variances]
        assert all(a < b for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize("delta,variance", [(0.0, 1.0), (-0.1, 1.0), (1.5, 1.0), (0.5, 0.0), (0.5, -2.0), (float("nan"), 1.0)])
    def test_invalid_params(self, delta, variance):
        with pytest.raises(ParameterError):
            ConfidenceParams(delta=delta, variance=variance)


class TestMakeStoppingRule:
    def test_symmetric_unit_rules(self):
        p = ConfidenceParams(delta=math.exp(-2), variance=1.0)
        below = make_stopping_rule(0.0, p, Direction.REJECT_BELOW)
        above = make_stopping_rule(0.0, p, Direction.REJECT_ABOVE)
        assert below.tau == pytest.approx(-1.0, rel=1e-12)
        assert above.tau == pytest.approx(1.0, rel=1e-12)

    def test_frozen_offset_value(self):
        rule = make_stopping_rule(0.5, ConfidenceParams(delta=0.1, variance=4.0), Direction.REJECT_BELOW)
        assert rule.tau == pytest.approx(0.5 - 2.1459660262893476, rel=1e-12)

    def test_mirror_symmetry_exact_at_zero(self):
        p = ConfidenceParams(delta=0.07, variance=3.3)
        below = make_stopping_rule(0.0, p, Direction.REJECT_BELOW)
        above = make_stopping_rule(0.0, p, Direction.REJECT_ABOVE)
        assert below.tau - 0.0 == -(above.tau - 0.0)

    def test_mirror_symmetry_off_center_within_one_ulp(self):
        # theta +/- m round independently for theta != 0, so bit-exact mirror
        # symmetry only holds at theta = 0; elsewhere it holds to ~1 ulp
        p = ConfidenceParams(delta=0.07, variance=3.3)
        m = crossing_magnitude(p)
        for theta in (-2.0, 0.25, 11.0, 317.0):
            below = make_stopping_rule(theta, p, Direction.REJECT_BELOW)
            above = make_stopping_rule(theta, p, Direction.REJECT_ABOVE)
            asym = abs((below.tau - theta) + (above.tau - theta))
            assert asym <= 1e-15 * max(abs(theta), m)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("direction", list(Direction))
    def test_non_finite_theta_rejected(self, theta, direction):
        with pytest.raises(ParameterError, match="^theta must be finite"):
            make_stopping_rule(theta, ConfidenceParams(delta=0.1, variance=1.0), direction)

    def test_delta_one_degenerates(self):
        with pytest.raises(DegenerateRuleError):
            make_stopping_rule(0.0, ConfidenceParams(delta=1.0, variance=1.0), Direction.REJECT_BELOW)


class TestSignPlacement:
    def test_frozen_value(self):
        # independent evaluation: 2 * Phi(-2m) = 0.1 gives m = Phi^-1(0.95) / 2
        expected = 0.5 * norm.isf(0.05)
        assert expected == pytest.approx(0.8224268134757361, rel=1e-12)
        got = crossing_magnitude(ConfidenceParams(delta=0.1, variance=4.0), conditioning="sign")
        assert got == pytest.approx(2.0 * expected, rel=1e-12)

    def test_delta_one_gives_positive_zero(self):
        m = crossing_magnitude(ConfidenceParams(delta=1.0, variance=3.0), conditioning="sign")
        assert m == 0.0 and math.copysign(1.0, m) == 1.0

    def test_round_trip_small_delta(self):
        for delta in (1e-12, 1e-9, 1e-6, 1e-3):
            m = crossing_magnitude(ConfidenceParams(delta=delta, variance=2.0), conditioning="sign")
            assert 2.0 * norm.sf(2.0 * m / math.sqrt(2.0)) == pytest.approx(delta, rel=1e-12)

    def test_invalid_arguments(self):
        p = ConfidenceParams(delta=0.1, variance=1.0)
        for bad in ("Sign", "endpoint", ""):
            with pytest.raises(ParameterError):
                crossing_magnitude(p, conditioning=bad)
        # the smallest subnormal is a valid delta, but delta/2 underflows to 0
        with pytest.raises(ParameterError):
            crossing_magnitude(ConfidenceParams(delta=5e-324, variance=1.0), conditioning="sign")


@settings(max_examples=200)
@given(
    variance=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    delta=st.floats(min_value=1e-12, max_value=1.0, exclude_max=True, allow_nan=False),
)
def test_sign_round_trip_property(variance, delta):
    m = crossing_magnitude(ConfidenceParams(delta=delta, variance=variance), conditioning="sign")
    assert 2.0 * norm.sf(2.0 * m / math.sqrt(variance)) == pytest.approx(delta, rel=1e-12)


@settings(max_examples=200)
@given(
    variance=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    delta=st.floats(min_value=1e-300, max_value=1.0, exclude_max=True, allow_nan=False),
)
def test_sign_offset_within_pinned_property(variance, delta):
    # 2*Phi(-2m) <= exp(-2m^2): the paper placement is conservative under sign conditioning
    p = ConfidenceParams(delta=delta, variance=variance)
    assert crossing_magnitude(p, conditioning="sign") <= crossing_magnitude(p)


class TestStoppingRuleInvariants:
    def test_rejects_wrong_side(self):
        with pytest.raises(DegenerateRuleError):
            StoppingRule(theta=0.0, tau=0.0, direction=Direction.REJECT_BELOW)
        with pytest.raises(DegenerateRuleError):
            StoppingRule(theta=1.0, tau=0.5, direction=Direction.REJECT_ABOVE)
        # the infinity on the wrong side fails the same side check
        with pytest.raises(DegenerateRuleError, match="REJECT_BELOW requires tau < theta"):
            StoppingRule(theta=0.0, tau=math.inf, direction=Direction.REJECT_BELOW)
        with pytest.raises(DegenerateRuleError, match="REJECT_ABOVE requires tau > theta"):
            StoppingRule(theta=0.0, tau=-math.inf, direction=Direction.REJECT_ABOVE)

    @pytest.mark.parametrize("direction", ("reject_below", "reject_above", None, -1))
    def test_rejects_a_direction_that_is_not_a_direction(self, direction):
        # the string "reject_below" used to pass as REJECT_ABOVE: stop upward, label +1
        with pytest.raises(ParameterError, match=f"direction must be a Direction, got {direction!r}"):
            StoppingRule(0.0, 1.0, direction)
        with pytest.raises(ParameterError, match="direction must be a Direction"):
            make_stopping_rule(0.0, ConfidenceParams(delta=0.1, variance=1.0), direction)

    def test_sentinel_infinities(self):
        # the no-stop sentinels are valid rules
        StoppingRule(theta=0.0, tau=-math.inf, direction=Direction.REJECT_BELOW)
        StoppingRule(theta=0.0, tau=math.inf, direction=Direction.REJECT_ABOVE)
        with pytest.raises(ParameterError):
            StoppingRule(theta=0.0, tau=math.nan, direction=Direction.REJECT_BELOW)
        with pytest.raises(ParameterError):
            StoppingRule(theta=math.inf, tau=0.0, direction=Direction.REJECT_BELOW)


class TestCrossingProbability:
    def test_known_values(self):
        assert crossing_probability(1.0, 0.0, 1.0) == pytest.approx(math.exp(-2), rel=1e-12)
        assert crossing_probability(2.0, 1.0, 2.0) == pytest.approx(math.exp(-2), rel=1e-12)

    def test_round_trip_identity(self):
        for v in (0.5, 1.0, 4.0, 1e4):
            for delta in (0.01, 0.1, 0.5, 0.9):
                rule = make_stopping_rule(0.0, ConfidenceParams(delta=delta, variance=v), Direction.REJECT_ABOVE)
                assert crossing_probability(rule.tau, 0.0, v) == pytest.approx(delta, rel=1e-12)

    def test_reflected_round_trip(self):
        # at theta = 0 the driftless walk is symmetric, so the REJECT_BELOW
        # rule's mirror image meets the upward closed form
        v, delta = 2.0, 0.3
        rule = make_stopping_rule(0.0, ConfidenceParams(delta=delta, variance=v), Direction.REJECT_BELOW)
        assert crossing_probability(-rule.tau, 0.0, v) == pytest.approx(delta, rel=1e-12)

    def test_monotone_decreasing_in_tau(self):
        taus = [0.5, 0.8, 1.2, 2.0, 3.5]
        probs = [crossing_probability(t, 0.2, 1.5) for t in taus]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            crossing_probability(1.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            crossing_probability(1.0, 0.0, -1.0)
        with pytest.raises(ParameterError):
            crossing_probability(0.5, 0.5, 1.0)  # tau == theta
        with pytest.raises(ParameterError):
            crossing_probability(-1.0, -2.0, 1.0)  # tau <= 0
        with pytest.raises(ParameterError):
            crossing_probability(0.0, -1.0, 1.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        with pytest.raises(ParameterError, match=f"^theta must be finite, got {theta!r}$"):
            crossing_probability(1.0, theta, 1.0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        # an infinite tau read 0.0; nan and -inf were blamed on theta < tau
        with pytest.raises(ParameterError, match=f"^tau must be finite, got {tau!r}$"):
            crossing_probability(tau, 0.0, 1.0)

    @pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf])
    def test_non_finite_variance_rejected(self, variance):
        # an infinite variance read 1.0, a crossing for certain
        with pytest.raises(ParameterError, match=f"^variance must be positive and finite, got {variance!r}$"):
            crossing_probability(1.0, 0.0, variance)

    def test_in_unit_interval(self):
        for tau in (1e-6, 0.3, 1.0, 10.0):
            for theta in (-5.0, 0.0, tau * 0.99):
                p = crossing_probability(tau, theta, 2.0)
                assert 0.0 < p <= 1.0
                assert not math.isnan(p)


@settings(max_examples=200)
@given(
    variance=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    delta=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True, allow_nan=False),
)
def test_round_trip_property(variance, delta):
    m = crossing_magnitude(ConfidenceParams(delta=delta, variance=variance))
    assert crossing_probability(m, 0.0, variance) == pytest.approx(delta, rel=1e-12, abs=1e-300)


@settings(max_examples=100)
@given(
    variance=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    delta=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True, allow_nan=False),
)
def test_mirror_symmetry_exact_at_zero_property(variance, delta):
    p = ConfidenceParams(delta=delta, variance=variance)
    below = make_stopping_rule(0.0, p, Direction.REJECT_BELOW)
    above = make_stopping_rule(0.0, p, Direction.REJECT_ABOVE)
    assert below.tau == -above.tau


@settings(max_examples=100)
@given(
    theta=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    variance=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    delta=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True, allow_nan=False),
)
def test_mirror_symmetry_off_center_property(theta, variance, delta):
    p = ConfidenceParams(delta=delta, variance=variance)
    m = crossing_magnitude(p)
    below = make_stopping_rule(theta, p, Direction.REJECT_BELOW)
    above = make_stopping_rule(theta, p, Direction.REJECT_ABOVE)
    asym = abs((below.tau - theta) + (above.tau - theta))
    assert asym <= 1e-15 * max(abs(theta), m)


class TestExpectedStopBound:
    def test_simple_value(self):
        p = ConfidenceParams(delta=math.exp(-2), variance=1.0)
        assert expected_stop_bound(p, step_bound=1.0, drift=0.5) == pytest.approx(4.0, rel=1e-12)

    def test_frozen_value(self):
        # (sqrt(100 * 0.5 * ln 10) + 1) / 0.2
        expected = (math.sqrt(100.0 * 0.5 * math.log(10.0)) + 1.0) / 0.2
        assert expected == pytest.approx(58.64915065723369, rel=1e-14)
        p = ConfidenceParams(delta=0.1, variance=100.0)
        assert expected_stop_bound(p, step_bound=1.0, drift=0.2) == pytest.approx(expected, rel=1e-12)

    def test_sqrt_scaling(self):
        base = expected_stop_bound(ConfidenceParams(delta=0.1, variance=1.0), 0.0, 0.5)
        scaled = expected_stop_bound(ConfidenceParams(delta=0.1, variance=100.0), 0.0, 0.5)
        assert scaled == pytest.approx(10.0 * base, rel=1e-12)

    def test_drift_domain(self):
        p = ConfidenceParams(delta=0.1, variance=1.0)
        with pytest.raises(ParameterError):
            expected_stop_bound(p, step_bound=1.0, drift=0.0)
        with pytest.raises(ParameterError):
            expected_stop_bound(p, step_bound=1.0, drift=-0.3)
        with pytest.raises(ParameterError):
            expected_stop_bound(p, step_bound=-1.0, drift=0.5)

    @pytest.mark.parametrize("step_bound", [1.0, math.inf])
    @pytest.mark.parametrize("drift", [math.nan, math.inf, -math.inf])
    def test_non_finite_drift_rejected(self, drift, step_bound):
        # an infinite drift read 0.0, or NaN beside an infinite step bound
        p = ConfidenceParams(delta=0.1, variance=1.0)
        with pytest.raises(ParameterError, match=f"^drift must be positive and finite, got {drift!r}$"):
            expected_stop_bound(p, step_bound=step_bound, drift=drift)

    def test_unbounded_steps_give_an_unbounded_estimate(self):
        # gaussian steps carry no bound k
        assert expected_stop_bound(ConfidenceParams(delta=0.1, variance=1.0), math.inf, 0.5) == math.inf
