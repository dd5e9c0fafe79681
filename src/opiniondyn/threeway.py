"""Three-way decision thresholds: the validated parameters of the
accept/hesitate/reject neighbour rule that ``dynamics._filter_links`` applies.
"""

from __future__ import annotations

from dataclasses import dataclass


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
