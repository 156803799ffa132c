"""Closed-form mathematics of the constant stopping boundary.

A score walk S_i (partial sums of weighted feature evaluations) is compared
against a constant stop threshold tau placed at distance
m = sqrt(0.5 * var(S_n) * ln(1/delta)) from the prediction threshold theta.
For a driftless walk pinned at theta, the probability of crossing tau before
the end is exp(-2*tau*(tau - theta)/var(S_n)); placing tau at distance m from
theta = 0 makes that probability exactly delta. This "pinned" placement is the
paper's and the default.

A measured stop-error conditions on the sign of the full score instead
(S_n below theta, not S_n equal to theta). By the reflection principle the
crossing rate under that conditioning is 2*Phi(-2m/sd(S_n)), about 0.3*delta
at the pinned m. The opt-in "sign" placement solves 2*Phi(-2m/sd) = delta, so
delta is the rate that sign-conditioned measurement reports.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DegenerateRuleError, ParameterError, check_finite

__all__ = [
    "Direction",
    "ConfidenceParams",
    "StoppingRule",
    "crossing_magnitude",
    "make_stopping_rule",
    "crossing_probability",
    "expected_stop_bound",
]


# what the endpoint of the walk is conditioned on when delta is measured
_CONDITIONINGS = ("pinned", "sign")


class Direction(Enum):
    """Which side of theta an early stop predicts."""

    REJECT_BELOW = "reject_below"  # stop when S_i < tau, tau < theta, predict -1
    REJECT_ABOVE = "reject_above"  # stop when S_i > tau, tau > theta, predict +1


@dataclass(frozen=True)
class ConfidenceParams:
    """Target stop-error rate and variance of the full score.

    delta: acceptable probability of stopping on the wrong side, in (0, 1].
    variance: var(S_n) in squared score units, > 0.
    """

    delta: float
    variance: float

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:  # NaN fails every comparison
            raise ParameterError(f"delta must be in (0, 1], got {self.delta!r}")
        if math.isnan(self.variance) or math.isinf(self.variance) or self.variance <= 0.0:
            raise ParameterError(f"variance must be positive and finite, got {self.variance!r}")


@dataclass(frozen=True)
class StoppingRule:
    """Constant decision boundary: predict against theta, stop early at tau.

    An infinite tau on the rejection side (-inf for REJECT_BELOW, +inf for
    REJECT_ABOVE) is the documented no-stop sentinel. The other infinity
    lies on the wrong side of any finite theta, so the side check rejects
    it with DegenerateRuleError, and a NaN tau is a ParameterError, as is
    a direction that is not a Direction (its string value, say).
    """

    theta: float
    tau: float
    direction: Direction

    def __post_init__(self):
        if not isinstance(self.direction, Direction):
            raise ParameterError(f"direction must be a Direction, got {self.direction!r}")
        check_finite("theta", self.theta)
        if math.isnan(self.tau):
            raise ParameterError("tau must not be NaN")
        if self.direction is Direction.REJECT_BELOW:
            if not self.tau < self.theta:
                raise DegenerateRuleError(
                    f"REJECT_BELOW requires tau < theta, got tau={self.tau!r} theta={self.theta!r}"
                )
        else:
            if not self.tau > self.theta:
                raise DegenerateRuleError(
                    f"REJECT_ABOVE requires tau > theta, got tau={self.tau!r} theta={self.theta!r}"
                )


def crossing_magnitude(params: ConfidenceParams, conditioning: str = "pinned") -> float:
    """Distance from theta to the stop threshold for a target stop-error rate.

    conditioning="pinned" (the paper's placement):
        m = sqrt(variance * ln(1/sqrt(delta))) = sqrt(0.5 * variance * ln(1/delta)),
        exact for a driftless walk whose endpoint is pinned at theta.
    conditioning="sign":
        m = -0.5 * sd * Phi^-1(delta/2), sd = sqrt(variance), the root of
        2*Phi(-2m/sd) = delta, exact for a driftless gaussian walk conditioned
        only on its endpoint lying on the far side of theta.

    The sign magnitude never exceeds the pinned one, so the pinned placement
    is conservative under sign conditioning. Both are zero iff delta = 1,
    strictly decreasing in delta, and increasing in variance.
    """
    if conditioning not in _CONDITIONINGS:
        raise ParameterError(f"conditioning must be one of {_CONDITIONINGS}, got {conditioning!r}")
    if conditioning == "sign":
        # imported here so that the default placement adds nothing to import time
        from statistics import NormalDist

        half_delta = 0.5 * params.delta
        if half_delta == 0.0:
            raise ParameterError(f"delta/2 underflows to zero, got delta={params.delta!r}")
        # the lower tail keeps full relative accuracy at small delta, where
        # inv_cdf(1 - delta/2) would lose digits to the subtraction; abs()
        # maps inv_cdf(0.5) = 0.0 to +0.0 rather than -0.0
        return 0.5 * math.sqrt(params.variance) * abs(NormalDist().inv_cdf(half_delta))
    # -0.5*log(delta) avoids the cancellation in log(1/sqrt(delta)) near delta = 1
    return math.sqrt(params.variance * (-0.5 * math.log(params.delta)))


def make_stopping_rule(theta: float, params: ConfidenceParams, direction: Direction) -> StoppingRule:
    """Place the stop threshold at the delta-calibrated distance from theta.

    tau = theta -/+ crossing_magnitude, the pinned placement, which preserves
    the delta guarantee exactly at theta = 0. Measured on the sign of the
    full score instead, its stop-error lands near 0.3*delta;
    crossing_magnitude(params, "sign") gives the distance for that
    conditioning. A non-finite theta is refused by the StoppingRule built
    here, with ParameterError.
    """
    if params.delta == 1.0:
        raise DegenerateRuleError("delta = 1 puts tau on theta; no strict rule exists")
    offset = crossing_magnitude(params)
    if direction is Direction.REJECT_BELOW:
        return StoppingRule(theta=theta, tau=theta - offset, direction=direction)
    return StoppingRule(theta=theta, tau=theta + offset, direction=direction)


def crossing_probability(tau: float, theta: float, variance: float) -> float:
    """Probability that a driftless walk pinned at theta crosses tau.

    exp(-2*tau*(tau - theta)/variance), on the upward orientation: requires
    finite tau and theta with theta < tau and tau > 0 (endpoint below the
    boundary, boundary above the start), and a positive, finite variance.
    Outside that domain the expression is no probability: it exceeds 1 for
    theta < tau < 0, and reads 1 for an infinite variance.
    """
    check_finite("tau", tau)
    check_finite("theta", theta)
    if not 0.0 < variance < math.inf:  # NaN fails every comparison
        raise ParameterError(f"variance must be positive and finite, got {variance!r}")
    if not tau > theta:
        raise ParameterError(
            f"requires theta < tau (endpoint already beyond the boundary): tau={tau!r} theta={theta!r}"
        )
    if not tau > 0.0:
        raise ParameterError(f"requires tau > 0 (boundary above the walk start), got {tau!r}")
    return math.exp(-2.0 * tau * (tau - theta) / variance)


def expected_stop_bound(params: ConfidenceParams, step_bound: float, drift: float) -> float:
    """Upper estimate of the mean number of terms before an upward crossing.

    (crossing_magnitude + k) / drift, for steps bounded by k with positive,
    finite per-step mean. Scales as sqrt(n) when variance grows linearly in
    n. An infinite k (gaussian steps carry no bound) gives an infinite bound.
    """
    if not 0.0 < drift < math.inf:
        raise ParameterError(f"drift must be positive and finite, got {drift!r}")
    if math.isnan(step_bound) or step_bound < 0.0:
        raise ParameterError(f"step bound must be nonnegative, got {step_bound!r}")
    return (crossing_magnitude(params) + step_bound) / drift
