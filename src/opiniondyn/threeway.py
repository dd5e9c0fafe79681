"""Three-way decision primitives.

Two faces of the same idea: the distance-based accept/hesitate/reject rule
used by the dynamics engine, and the classical Bayesian minimum-expected-loss
classifier over {positive, boundary, negative} regions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ThreeWayThresholds:
    """Accept/reject distance bounds and the hesitation decay factor.

    Distances at or below ``alpha`` are accepted outright, at or above
    ``beta`` rejected outright; in between, acceptance is probabilistic with
    probability exp(-decay * (d - alpha)). alpha == beta is allowed and
    means no hesitation zone.
    """

    alpha: float
    beta: float
    decay: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta!r}")
        if self.alpha > self.beta:
            raise ValueError(f"alpha ({self.alpha!r}) must not exceed beta ({self.beta!r})")
        if not self.decay >= 0.0:  # NaN fails this test too
            raise ValueError(f"decay must be >= 0, got {self.decay!r}")


class ThreeWayRegion(enum.Enum):
    POSITIVE = "positive"
    BOUNDARY = "boundary"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class LossMatrix:
    """Losses for accept/defer/reject under the good state C and the bad state not-C."""

    accept_pos: float
    defer_pos: float
    reject_pos: float
    accept_neg: float
    defer_neg: float
    reject_neg: float

    def __post_init__(self):
        for name in ("accept_pos", "defer_pos", "reject_pos",
                     "accept_neg", "defer_neg", "reject_neg"):
            if not getattr(self, name) >= 0.0:  # NaN fails this test too
                raise ValueError(f"{name} must be >= 0")


def acceptance_probability(distance: float, thresholds: ThreeWayThresholds) -> float:
    """Probability of accepting a neighbor at the given opinion distance.

    1 on [0, alpha], 0 on [beta, inf), exponential decay in between. When
    alpha == beta the accept branch wins at the shared boundary. Continuous
    at d == alpha since exp(0) = 1.
    """
    if distance < 0.0:
        raise ValueError(f"distance must be >= 0, got {distance!r}")
    if distance <= thresholds.alpha:
        return 1.0
    if distance >= thresholds.beta:
        return 0.0
    return math.exp(-thresholds.decay * (distance - thresholds.alpha))


def classify_neighbor(
    distance: float, thresholds: ThreeWayThresholds, rng: np.random.Generator
) -> bool:
    """Accept/reject decision for one neighbor.

    Deterministic outside the hesitation zone; inside it, consumes exactly
    one uniform draw and accepts when it falls below the decayed probability.
    A NaN distance lies in neither outright region, so it draws and rejects.
    """
    p = acceptance_probability(distance, thresholds)
    if distance <= thresholds.alpha or distance >= thresholds.beta:
        return p == 1.0
    return rng.random() < p


def expected_losses(loss: LossMatrix, pr_c: float) -> tuple[float, float, float]:
    """Expected losses (accept, defer, reject) given P(C) = pr_c."""
    if not 0.0 <= pr_c <= 1.0:
        raise ValueError(f"pr_c must lie in [0, 1], got {pr_c!r}")
    pr_n = 1.0 - pr_c
    return (
        loss.accept_pos * pr_c + loss.accept_neg * pr_n,
        loss.defer_pos * pr_c + loss.defer_neg * pr_n,
        loss.reject_pos * pr_c + loss.reject_neg * pr_n,
    )


def bayes_region(loss: LossMatrix, pr_c: float) -> ThreeWayRegion:
    """Region with the minimal expected loss.

    Ties satisfy several of the <=-based decision rules at once, so a fixed
    precedence POSITIVE > BOUNDARY > NEGATIVE makes the classifier a
    function; callers who care about ties can inspect expected_losses.
    """
    r_accept, r_defer, r_reject = expected_losses(loss, pr_c)
    if r_accept <= r_defer and r_accept <= r_reject:
        return ThreeWayRegion.POSITIVE
    if r_defer <= r_accept and r_defer <= r_reject:
        return ThreeWayRegion.BOUNDARY
    return ThreeWayRegion.NEGATIVE
