"""Fringe analysis: cosine fits, two-frequency mixtures, sideband amplitudes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit


def _least_squares(model, x, y, starts, **kw):
    """``curve_fit`` of ``model`` to (x, y) from each start point in turn.

    Returns (popt, pcov) of the first start that converges, or None when every
    start raises or the converged parameters are not finite.  ``kw`` passes
    through to ``curve_fit``.
    """
    for p0 in starts:
        try:
            popt, pcov = curve_fit(model, x, y, p0=p0, **kw)
        except (RuntimeError, ValueError):
            continue
        return (popt, pcov) if np.all(np.isfinite(popt)) else None
    return None


@dataclass(frozen=True)
class CosineFit:
    offset: float
    amplitude: float
    frequency: float
    phase: float
    residual_rms: float
    ok: bool


def fit_cosine(taus, values, f_guess: float, t2: float = math.inf) -> CosineFit:
    """Fit c + |a| exp(-tau/T2) cos(2 pi f tau + phi) with T2 held fixed.

    Does not raise when the fit fails: fewer points than the model's four
    parameters, a fit that does not converge, or one that ends at non-finite
    parameters returns ``ok=False``.
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    env = np.exp(-taus / t2)

    def model(tau, c, a, f, phi):
        return c + a * np.exp(-tau / t2) * np.cos(2.0 * math.pi * f * tau + phi)

    failed = CosineFit(math.nan, math.nan, math.nan, math.nan, math.nan, False)
    if taus.size < 4:  # fewer points than the model's parameters
        return failed
    a0 = max(0.5 * float(np.ptp(values)) / max(env.mean(), 1e-9), 1e-3)
    fit = _least_squares(model, taus, values, [(float(values.mean()), a0, f_guess, 0.0)], maxfev=20000)
    if fit is None:
        return failed
    popt = fit[0]
    resid = values - model(taus, *popt)
    c, a, f, phi = (float(v) for v in popt)
    if a < 0:
        a, phi = -a, phi + math.pi
    return CosineFit(c, a, abs(f), phi, float(np.sqrt(np.mean(resid**2))), True)


@dataclass(frozen=True)
class MixtureFit:
    """Two-frequency mixture c + E(tau) [a1 cos(2 pi f1 tau + phi1) + a2 cos(...)]."""

    offset: float
    a1: float
    f1: float
    phi1: float
    a2: float
    f2: float
    phi2: float
    residual_rms: float
    ok: bool

    @property
    def beat_splitting(self) -> float:
        return abs(self.f1 - self.f2)

    @property
    def envelope_node_time(self) -> float:
        return 0.5 / self.beat_splitting


def fit_two_frequency_mixture(
    taus, values, f1_guess: float, f2_guess: float, t2: float = math.inf
) -> MixtureFit:
    """Fit a beating fringe as a mixture of two damped cosines.

    The beat envelope of any such mixture has its node at 1/(2 |f1 - f2|)
    regardless of the mixture weights, which is what
    :attr:`MixtureFit.envelope_node_time` reports.
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)

    def model(tau, c, a1, f1, phi1, a2, f2, phi2):
        env = np.exp(-tau / t2)
        return (
            c
            + env * a1 * np.cos(2.0 * math.pi * f1 * tau + phi1)
            + env * a2 * np.cos(2.0 * math.pi * f2 * tau + phi2)
        )

    nan = math.nan
    failed = MixtureFit(nan, nan, nan, nan, nan, nan, nan, nan, False)
    if taus.size < 7:  # fewer points than the model's parameters
        return failed
    amp0 = max(0.25 * float(np.ptp(values)), 1e-3)
    start = (float(values.mean()), amp0, f1_guess, 0.0, amp0, f2_guess, 0.0)
    fit = _least_squares(model, taus, values, [start], maxfev=40000)
    if fit is None:
        return failed
    popt = fit[0]
    c, a1, f1, phi1, a2, f2, phi2 = (float(v) for v in popt)
    if a1 < 0:
        a1, phi1 = -a1, phi1 + math.pi
    if a2 < 0:
        a2, phi2 = -a2, phi2 + math.pi
    resid = values - model(taus, *popt)
    return MixtureFit(
        c, a1, abs(f1), phi1, a2, abs(f2), phi2, float(np.sqrt(np.mean(resid**2))), True
    )


def quadrature_amplitudes(taus, values, frequencies, t2: float = math.inf) -> np.ndarray:
    """Linear least-squares amplitude of each frequency component.

    Solves values ~ c + E(tau) * sum_k [p_k cos(2 pi f_k tau) + q_k sin(...)]
    and returns the amplitudes hypot(p_k, q_k).  Being linear, this is robust
    where a nonlinear multi-component fit would wander.  With fewer taus than
    the 2k+1 unknowns the system is underdetermined and every amplitude is NaN.
    """
    taus = np.asarray(taus, dtype=float)
    values = np.asarray(values, dtype=float)
    if taus.size < 2 * len(frequencies) + 1:
        return np.full(len(frequencies), math.nan)
    env = np.exp(-taus / t2)
    columns = [np.ones_like(taus)]
    for f in frequencies:
        columns.append(env * np.cos(2.0 * math.pi * f * taus))
        columns.append(env * np.sin(2.0 * math.pi * f * taus))
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    amps = np.hypot(coef[1::2], coef[2::2])
    return amps


def fit_fringe_time_offset(
    taus, signal, delta: float, offset_guess: float = 0.0
) -> tuple[float, float]:
    """Fit |signal| ~ a |sin(pi delta (tau + dt))|; returns (dt, a).

    Used to read the effective timing offset of a discrimination contrast
    curve off a dense, noise-free tau grid.  Like the other fits it does not
    raise when the fit fails: fewer points than parameters, a fit that does
    not converge, or one that ends at non-finite parameters returns
    ``(nan, nan)``.
    """
    taus = np.asarray(taus, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if taus.size < 2:  # fewer points than the model's parameters
        return math.nan, math.nan

    def model(tau, a, dt):
        return a * np.abs(np.sin(math.pi * delta * (tau + dt)))

    fit = _least_squares(model, taus, signal, [(float(signal.max()), offset_guess)], maxfev=20000)
    if fit is None:
        return math.nan, math.nan
    return float(fit[0][1]), float(fit[0][0])
