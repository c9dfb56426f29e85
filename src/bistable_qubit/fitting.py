"""Fringe analysis: cosine fits, two-frequency mixtures, sideband amplitudes."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)
_TOL = math.sqrt(_EPS)  # MINPACK's default ftol and xtol, and its relative difference step
_NEAR_EXACT = _EPS**0.75  # a cost this far below the start cost ends a crawling fit


def _least_squares(model, x, y, starts, **kw):
    """Least-squares fit of ``model(x, *p)`` to ``y`` from each start point in turn.

    Returns (popt, pcov) of the first start that converges, or None when every
    start raises or the converged parameters are not finite.  ``kw`` passes
    through to :func:`_levenberg_marquardt`.
    """
    for p0 in starts:
        try:
            popt, pcov = _levenberg_marquardt(model, x, y, p0, **kw)
        except (RuntimeError, ValueError):
            continue
        return (popt, pcov) if np.all(np.isfinite(popt)) else None
    return None


def _levenberg_marquardt(model, x, y, p0, maxfev, sigma=None, absolute_sigma=False, bounds=None):
    """Levenberg-Marquardt fit of ``model(x, *p)`` to ``y`` from ``p0``; returns (popt, pcov).

    The method of MINPACK's ``lmdif`` (Moré 1978): a forward-difference
    Jacobian with step sqrt(eps)|p_j| (sqrt(eps) at p_j = 0), damping scaled by
    the largest column norms of the Jacobian seen so far (Marquardt), and the
    stop tests at ftol = xtol = sqrt(eps).  A fit also stops at a step that
    gains less than half the cost once the cost is below eps**0.75 of the start
    cost: near an exact fit a converging step gains nearly all of it, while a
    fit whose exact solution lies outside the box, such as A p^L + B through
    as many depths as parameters, crawls along a valley toward the box a few
    percent a step until ``maxfev``.  A trial step is taken when it gains at
    least 1e-4 of the reduction its linear model predicts, and the damping,
    dimensionless and 1e-3 at the start, follows that gain ratio (Nielsen's
    rule, but shrinking up to tenfold a step: a slower shrink stops a noise-free
    fit short of its last digits).  ``bounds = (lower, upper)`` confine the
    parameters to a box: each step is projected into it, and a parameter held
    at a bound by the gradient stays there for the step.  ``sigma`` weights the
    residuals by 1/sigma.

    pcov is the pseudo-inverse of J^T J at the solution, scaled by the reduced
    chi-square unless ``absolute_sigma``; with no more points than parameters
    that scale is undefined and pcov is all inf.  Raises ValueError when the
    residuals at ``p0`` are not finite, RuntimeError when ``maxfev`` model
    evaluations do not converge.
    """
    p = np.array(p0, dtype=float)
    lower, upper = (-np.inf, np.inf) if bounds is None else bounds
    weight = 1.0 if sigma is None else 1.0 / np.asarray(sigma, dtype=float)

    def residual(q):
        return weight * (model(x, *q) - y)

    r = residual(p)
    cost = float(r @ r)
    if not math.isfinite(cost):
        raise ValueError("residuals are not finite at the start point")
    nfev = 1
    negligible = _NEAR_EXACT * cost
    damping, growth = 1e-3, 2.0
    scale = np.zeros(p.size)
    converged = False
    while cost > 0.0 and not converged:
        jac = _jacobian(residual, p, r)
        nfev += p.size
        scale = np.maximum(scale, np.linalg.norm(jac, axis=0))
        scale[scale == 0.0] = 1.0
        grad = jac.T @ r
        held = ((p <= lower) & (grad > 0.0)) | ((p >= upper) & (grad < 0.0))
        free_jac = np.where(held, 0.0, jac)  # a held parameter meets only its damping row: step 0
        rhs = np.concatenate([-r, np.zeros(p.size)])
        accepted = False
        while not (accepted or converged):
            system = np.vstack([free_jac, np.diag(math.sqrt(damping) * scale)])
            trial = np.clip(p + np.linalg.lstsq(system, rhs, rcond=None)[0], lower, upper)
            step = trial - p
            r_trial = residual(trial)
            nfev += 1
            cost_trial = float(r_trial @ r_trial)
            linear = r + jac @ step
            predicted = 1.0 - float(linear @ linear) / cost
            actual = 1.0 - cost_trial / cost if math.isfinite(cost_trial) else -math.inf
            ratio = actual / predicted if predicted > 0.0 else 0.0
            accepted = ratio >= 1e-4
            if accepted:
                p, r, cost = trial, r_trial, cost_trial
                damping *= max(0.1, 1.0 - (2.0 * ratio - 1.0) ** 3)
                growth = 2.0
            else:
                damping *= growth
                growth *= 2.0
            converged = (
                (abs(actual) <= _TOL and predicted <= _TOL and ratio <= 2.0)
                or np.linalg.norm(scale * step) <= _TOL * np.linalg.norm(scale * p)
                or (accepted and actual < 0.5 and cost <= negligible)
            )
            if nfev >= maxfev and not converged:
                raise RuntimeError(f"no convergence within {maxfev} model evaluations")

    jac = _jacobian(residual, p, r)
    m, n = jac.shape
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    kept = s > _EPS * max(m, n) * s[0]
    pcov = (vt[kept].T / s[kept] ** 2) @ vt[kept]
    if not absolute_sigma:
        pcov = pcov * (cost / (m - n)) if m > n else np.full((n, n), np.inf)
    return p, pcov


def _jacobian(residual, p, r):
    """Forward differences of ``residual`` at ``p`` (where it is ``r``), MINPACK's step."""
    jac = np.empty((r.size, p.size))
    for j, pj in enumerate(p):
        h = _TOL * abs(pj) or _TOL
        q = p.copy()
        q[j] = pj + h
        jac[:, j] = (residual(q) - r) / h
    return jac


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
