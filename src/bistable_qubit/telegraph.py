"""Two-state Markov (random telegraph) process driving the qubit frequency.

The defect configuration ``xi`` is 0 in the high-frequency mode (H) and 1 in
the low-frequency mode (L).  Rates are directional: ``gamma_hl`` is the H->L
switching rate and ``gamma_lh`` the L->H rate.  The symmetric case
``gamma_hl = gamma_lh = g/2`` has autocorrelation decaying as exp(-g*t) and
mean dwell time 2/g in each mode.

Evolution is simulated exactly by sampling exponential dwell times, so any
time step is handled without discretization error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

XI_H = 0
XI_L = 1


@dataclass(frozen=True)
class TelegraphParams:
    """Directional switching rates of the two-state process, in 1/s."""

    gamma_hl: float
    gamma_lh: float

    def __post_init__(self):
        for name in ("gamma_hl", "gamma_lh"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")

    @property
    def total_rate(self) -> float:
        return self.gamma_hl + self.gamma_lh

    def exit_rate(self, xi: int) -> float:
        """Rate of leaving mode ``xi``."""
        return self.gamma_hl if xi == XI_H else self.gamma_lh

    @classmethod
    def symmetric(cls, total_rate: float) -> "TelegraphParams":
        """Symmetric process whose autocorrelation decays as exp(-total_rate*t)."""
        return cls(total_rate / 2.0, total_rate / 2.0)

    @classmethod
    def from_dwell_time(cls, mean_dwell: float) -> "TelegraphParams":
        """Symmetric process with the given mean dwell time per mode."""
        if mean_dwell <= 0:
            raise ValueError("mean dwell time must be positive")
        return cls(1.0 / mean_dwell, 1.0 / mean_dwell)


@dataclass(frozen=True)
class TlsState:
    """Instantaneous defect configuration; ``t`` is the process-local clock (s)."""

    xi: int
    t: float = 0.0

    def __post_init__(self):
        if self.xi not in (XI_H, XI_L):
            raise ValueError("xi must be 0 (H mode) or 1 (L mode)")


def stationary_distribution(params: TelegraphParams) -> tuple[float, float]:
    """Return the stationary occupation probabilities ``(prob_L, prob_H)``.

    Raises ValueError for the degenerate process with both rates zero, which
    has no stationary law; callers must pin the mode explicitly in that case.
    """
    total = params.total_rate
    if total <= 0:
        raise ValueError("degenerate process: both switching rates are zero")
    return params.gamma_hl / total, params.gamma_lh / total


def draw_stationary(params: TelegraphParams, rng: np.random.Generator) -> TlsState:
    """Draw an initial mode from the stationary distribution."""
    prob_l, _ = stationary_distribution(params)
    xi = XI_L if rng.random() < prob_l else XI_H
    return TlsState(xi=xi)


def flip_probability(params: TelegraphParams, state_from: int, dt: float) -> float:
    """Probability that the mode differs after ``dt`` given the current mode.

    Exact two-state propagator: P(other stationary) * (1 - exp(-total*dt)).
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    total = params.total_rate
    if total <= 0:
        return 0.0
    p_other = (params.gamma_hl if state_from == XI_H else params.gamma_lh) / total
    return p_other * (1.0 - math.exp(-total * dt))


def dwell_segments(
    state: TlsState, params: TelegraphParams, dt: float, rng: np.random.Generator
) -> tuple[list[tuple[int, float]], TlsState]:
    """Advance the process by ``dt`` and return the visited (xi, duration) segments.

    Segment durations sum to ``dt``; the final (possibly truncated) dwell is
    included.  Exactness relies on the memorylessness of the exponential dwell
    law, so repeated calls compose to the same process as a single call.  Each
    segment draws one exponential dwell unless its mode cannot be left, so a
    call in which nothing switches draws at most one, and ``dt == 0`` none.
    """
    if not dt >= 0:
        raise ValueError("dt must be nonnegative")
    if dt == 0.0:
        return [], state
    segments: list[tuple[int, float]] = []
    xi = state.xi
    t = state.t
    remaining = dt
    while True:  # until a dwell outlasts the remainder
        rate = params.exit_rate(xi)
        dwell = rng.exponential(1.0 / rate) if rate > 0.0 else math.inf
        if dwell >= remaining:
            segments.append((xi, remaining))
            return segments, TlsState(xi, t + remaining)
        segments.append((xi, dwell))
        t += dwell
        remaining -= dwell
        xi = 1 - xi


def evolve(
    state: TlsState, params: TelegraphParams, dt: float, rng: np.random.Generator
) -> TlsState:
    """Jump-simulate the process over ``dt`` and return the new state."""
    _, new_state = dwell_segments(state, params, dt, rng)
    return new_state
