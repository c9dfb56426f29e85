"""Two-state Markov (random telegraph) process driving the qubit frequency.

The defect configuration ``xi`` is 0 in the high-frequency mode (H) and 1 in
the low-frequency mode (L).  Rates are directional: ``gamma_hl`` is the H->L
switching rate and ``gamma_lh`` the L->H rate.  The symmetric case
``gamma_hl = gamma_lh = g/2`` has autocorrelation decaying as exp(-g*t) and
mean dwell time 2/g in each mode.

Evolution is simulated exactly by drawing each exponential dwell once, as its
mode is entered (Gillespie 1977), so any time step is handled without
discretization error and the path depends on lab time alone.
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


def stationary_distribution(params: TelegraphParams) -> tuple[float, float]:
    """Return the stationary occupation probabilities ``(prob_L, prob_H)``.

    Raises ValueError for the degenerate process with both rates zero, which
    has no stationary law; callers must pin the mode explicitly in that case.
    """
    total = params.total_rate
    if total <= 0:
        raise ValueError("degenerate process: both switching rates are zero")
    return params.gamma_hl / total, params.gamma_lh / total


def draw_stationary(params: TelegraphParams, rng: np.random.Generator) -> int:
    """Draw an initial mode from the stationary distribution."""
    prob_l, _ = stationary_distribution(params)
    return XI_L if rng.random() < prob_l else XI_H


def flip_probability(params: TelegraphParams, state_from: int, dt: float) -> float:
    """Probability that the mode differs after ``dt`` given the current mode.

    Exact two-state propagator: P(other stationary) * (1 - exp(-total*dt));
    ``dt = inf`` gives the stationary limit.
    """
    if not dt >= 0:
        raise ValueError("dt must be nonnegative")
    total = params.total_rate
    if total <= 0:
        return 0.0
    p_other = (params.gamma_hl if state_from == XI_H else params.gamma_lh) / total
    return p_other * (1.0 - math.exp(-total * dt))


def next_switch(params: TelegraphParams, xi: int, t: float, dwells) -> float:
    """Lab time of the switch out of mode ``xi``, entered at lab time ``t``: one
    dwell drawn from ``dwells`` (a Generator or ``streams.Draws``), or ``inf``
    with no draw when the mode cannot be left."""
    rate = params.exit_rate(xi)
    return t + dwells.exponential(1.0 / rate) if rate > 0.0 else math.inf


def walk(
    xi: int, switch_at: float, params: TelegraphParams, end: float, dwells, switches: list[float] | None = None
) -> tuple[int, float]:
    """Walk the switch times of mode ``xi``, next switching at ``switch_at``, to lab time
    ``end``; return the end mode and its ``switch_at``.

    A switch at the end time has not happened by it.  Each switch draws the
    dwell of the mode it enters (``next_switch``), so any partition of the walk
    gives the same mode, switch time and draws.  The switch times go to
    ``switches`` if given (else memory stays constant).
    """
    while switch_at < end:
        if switches is not None:
            switches.append(switch_at)
        xi = 1 - xi
        switch_at = next_switch(params, xi, switch_at, dwells)
    return xi, switch_at


def cut(xi: int, switches: list[float], start: float, dt: float) -> list[tuple[int, float]]:
    """The (xi, duration) segments of mode ``xi`` from lab time ``start`` to ``start + dt``, cut
    at ``switches``, its switch times: durations are differences of lab times, but an
    interval no switch cuts is the one segment ``(xi, dt)``, and ``dt = 0`` has none."""
    segments, t = [], start
    for switch_at in switches:
        segments.append((xi, switch_at - t))
        t, xi = switch_at, 1 - xi
    if dt > 0.0:
        segments.append((xi, dt if t == start else start + dt - t))
    return segments


def evolve(
    xi: int, switch_at: float, params: TelegraphParams, start: float, dt: float, dwells, switches: list | None = None
) -> tuple[int, float]:
    """``walk`` from lab time ``start`` to ``start + dt``."""
    if not 0 <= dt < math.inf:
        raise ValueError("dt must be finite and nonnegative")
    return walk(xi, switch_at, params, start + dt, dwells, switches)


def dwell_segments(
    xi: int, switch_at: float, params: TelegraphParams, start: float, dt: float, dwells
) -> tuple[list[tuple[int, float]], int, float]:
    """``evolve``, also returning the visited (xi, duration) segments: ``(segments, xi, switch_at)``."""
    switches: list[float] = []
    end_xi, switch_at = evolve(xi, switch_at, params, start, dt, dwells, switches)
    return cut(xi, switches, start, dt), end_xi, switch_at
