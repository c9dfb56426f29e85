"""Fringe-fitting utilities on synthetic data."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import OptimizeWarning, curve_fit

from bistable_qubit import benchmarking, fitting
from bistable_qubit.benchmarking import RbConfig, fit_exponential
from bistable_qubit.fitting import (
    fit_cosine,
    fit_fringe_time_offset,
    fit_two_frequency_mixture,
    quadrature_amplitudes,
)

TAUS = np.linspace(0.0, 2.5e-6, 120)


def test_fit_cosine_recovers_parameters():
    truth = 0.5 + 0.4 * np.cos(2 * math.pi * 1.7e6 * TAUS + 0.3)
    fit = fit_cosine(TAUS, truth, f_guess=1.6e6)
    assert fit.ok
    assert fit.frequency == pytest.approx(1.7e6, rel=1e-6)
    assert fit.amplitude == pytest.approx(0.4, rel=1e-6)
    assert fit.residual_rms < 1e-9


def test_fit_cosine_with_damping():
    t2 = 20e-6
    truth = 0.5 + 0.35 * np.exp(-TAUS / t2) * np.cos(2 * math.pi * 2.1e6 * TAUS)
    fit = fit_cosine(TAUS, truth, f_guess=2.0e6, t2=t2)
    assert fit.frequency == pytest.approx(2.1e6, rel=1e-6)


@pytest.mark.parametrize("n_points", [0, 1, 3])
def test_cosine_fit_with_fewer_points_than_parameters_not_ok(n_points):
    taus = TAUS[:n_points]
    fit = fit_cosine(taus, 0.5 + 0.4 * np.cos(2 * math.pi * 2e6 * taus), 2e6)
    assert not fit.ok
    assert math.isnan(fit.frequency) and math.isnan(fit.amplitude)


def test_mixture_fit_node_independent_of_weights():
    f1, f2 = 2.0e6, 1.626e6
    for w in (0.3, 0.5, 0.7):
        truth = 0.5 + w * 0.47 * np.cos(2 * math.pi * f1 * TAUS) + (1 - w) * 0.47 * np.cos(
            2 * math.pi * f2 * TAUS
        )
        fit = fit_two_frequency_mixture(TAUS, truth, f1, f2)
        assert fit.ok
        assert fit.beat_splitting == pytest.approx(f1 - f2, rel=1e-4)
        assert fit.envelope_node_time == pytest.approx(0.5 / (f1 - f2), rel=1e-4)


@pytest.mark.parametrize("n_points", [1, 2, 6])
def test_mixture_fit_with_fewer_points_than_parameters_not_ok(n_points):
    taus = TAUS[:n_points]
    fit = fit_two_frequency_mixture(taus, 0.5 + 0.4 * np.cos(2 * math.pi * 2e6 * taus), 2e6, 1.6e6)
    assert not fit.ok
    assert math.isnan(fit.f1) and math.isnan(fit.envelope_node_time)


def test_quadrature_amplitudes_recover_components():
    f0 = 2.33e6
    delta = 374e3
    truth = (
        0.5
        + 0.45 * np.cos(2 * math.pi * f0 * TAUS + 0.2)
        + 0.02 * np.cos(2 * math.pi * (f0 - delta) * TAUS - 0.4)
    )
    amps = quadrature_amplitudes(TAUS, truth, [f0, f0 - delta, f0 + delta])
    assert amps[0] == pytest.approx(0.45, abs=5e-3)
    assert amps[1] == pytest.approx(0.02, abs=5e-3)
    assert amps[2] < 6e-3


@pytest.mark.parametrize("n_points", [0, 1, 6, 7])
def test_quadrature_amplitudes_need_one_tau_per_unknown(n_points):
    # Three frequencies: an offset and two quadratures each, 7 unknowns.
    frequencies = [2.33e6, 1.956e6, 2.704e6]
    taus = TAUS[:n_points]
    amps = quadrature_amplitudes(taus, 0.5 + 0.4 * np.cos(2 * math.pi * 2.33e6 * taus), frequencies)
    assert amps.shape == (3,)
    if n_points < 2 * len(frequencies) + 1:
        assert np.all(np.isnan(amps))
    else:
        assert np.all(np.isfinite(amps))


def test_fringe_time_offset():
    delta = 374e3
    offset = 30e-9
    taus = np.linspace(0.05e-6, 2.5e-6, 200)
    signal = 0.9 * np.abs(np.sin(math.pi * delta * (taus + offset)))
    fitted, amp = fit_fringe_time_offset(taus, signal, delta, 0.0)
    assert fitted == pytest.approx(offset, rel=1e-6)
    assert amp == pytest.approx(0.9, rel=1e-6)


@pytest.mark.parametrize(
    "taus, signal, delta, offset_guess",
    [
        # Levenberg-Marquardt exhausts its 20000 evaluations on this input:
        # it crawls toward the exact fit a = -255.23, dt = 0.49002587, which it
        # (and scipy's curve_fit alike) reaches only with ten times the budget.
        (
            [4.62074981273039e-08, 1.2716241434024978e-07],
            [-0.07069318467578121, -0.07056072981554844],
            2.0405284693250247,
            6.580820652454965e-07,
        ),
        (TAUS, np.full(TAUS.size, np.nan), 374e3, 0.0),
        ([1e-6], [0.5], 374e3, 0.0),
    ],
    ids=["no-convergence", "nan-signal", "one-point"],
)
def test_fringe_time_offset_failure_returns_nan(taus, signal, delta, offset_guess):
    fitted, amp = fit_fringe_time_offset(np.array(taus), np.array(signal), delta, offset_guess)
    assert math.isnan(fitted) and math.isnan(amp)


# The solver contract: every fit goes through ``fitting._least_squares``, which
# tries its start points in order, keeps the first that converges and fails
# the fit when none does or the converged parameters are not finite.
RB_DEPTHS = np.array([1, 2, 4, 8, 16, 32, 64, 128, 256, 512])
F1, F2 = 2.0e6, 1.626e6
FITS = {  # each call returns whether the fit is ok
    "exponential": lambda: fit_exponential(RB_DEPTHS, 0.5 * 0.999**RB_DEPTHS + 0.5).ok,
    "cosine": lambda: fit_cosine(TAUS, 0.5 + 0.4 * np.cos(2 * math.pi * 1.7e6 * TAUS + 0.3), 1.6e6).ok,
    "mixture": lambda: fit_two_frequency_mixture(
        TAUS, 0.5 + 0.2 * np.cos(2 * math.pi * F1 * TAUS) + 0.27 * np.cos(2 * math.pi * F2 * TAUS), F1, F2
    ).ok,
    "fringe-offset": lambda: not math.isnan(
        fit_fringe_time_offset(TAUS, 0.9 * np.abs(np.sin(math.pi * 374e3 * (TAUS + 30e-9))), 374e3)[0]
    ),
}


def _patch_solver(monkeypatch, fake):
    """Route every call of the per-start solver through ``fake(call, model, x, y, p0, **kwargs)``,
    ``call`` counting from 0; return the list of start points the calls receive."""
    starts = []

    def patched(model, x, y, p0, **kwargs):
        starts.append(p0)
        return fake(len(starts) - 1, model, x, y, p0, **kwargs)

    monkeypatch.setattr(fitting, "_levenberg_marquardt", patched)
    return starts


def _raise(*args, **kwargs):
    raise RuntimeError("no convergence")


def test_fit_exponential_falls_through_to_the_second_start(monkeypatch):
    results = []
    solve = fitting._levenberg_marquardt

    def first_raises(call, *args, **kwargs):
        if call == 0:
            _raise()
        results.append(solve(*args, **kwargs))
        return results[-1]

    starts = _patch_solver(monkeypatch, first_raises)
    fit = fit_exponential(RB_DEPTHS, 0.5 * 0.999**RB_DEPTHS + 0.5)
    assert [p0[1] for p0 in starts] == [0.999, 0.99]
    (popt, pcov), = results
    assert fit.ok
    assert (fit.amplitude, fit.decay, fit.offset) == (popt[0], min(popt[1], 1.0), popt[2])
    assert fit.decay_err == math.sqrt(abs(pcov[1, 1]))


@pytest.mark.parametrize("fit", FITS.values(), ids=FITS)
def test_fit_fails_when_every_start_raises(monkeypatch, fit):
    starts = _patch_solver(monkeypatch, _raise)
    assert not fit()
    assert len(starts) == (4 if fit is FITS["exponential"] else 1)


@pytest.mark.parametrize("fit", FITS.values(), ids=FITS)
def test_fit_with_non_finite_parameters_is_not_ok(monkeypatch, fit):
    assert fit()  # the data converge without the patch

    def nan_fit(call, model, x, y, p0, **kwargs):
        return np.full(len(p0), np.nan), np.eye(len(p0))

    starts = _patch_solver(monkeypatch, nan_fit)
    assert not fit()
    assert len(starts) == 1  # a converged start is final, finite or not


# Agreement with the reference: scipy.optimize.curve_fit, which fitted before
# the package owned its solver, stays a test dependency.  Both stop at
# MINPACK's tolerances (curve_fit runs TRF on the bounded exponential fit),
# each up to ~1e-3 standard errors from the exact minimum along strongly
# correlated directions, so the two agree to a small fraction of a standard
# error rather than to the last digits.  The errors are compared
# where they are reported and well determined: in the exponential fits off
# the box.  Elsewhere a forward-difference Jacobian of condition ~1e6 (the
# mixture) or a fit whose amplitude and offset the data do not separate (on
# the box) leaves them uncertain at the percent level in both solvers.
PARAM_TOL = 1e-2  # |difference| in standard errors, beyond 1e-5 relative
ERROR_TOL = 1e-3  # relative difference of the standard errors


def _curve_fit(model, x, y, p0, **kwargs):
    """``scipy.optimize.curve_fit`` in the per-start solver's place."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)  # it warns where pcov is all inf
        return curve_fit(model, x, y, p0=p0, **kwargs)


def _solutions(monkeypatch, fit, solver):
    """The result of each ``_least_squares`` call of ``fit()``, ``solver`` run per start."""
    found = []
    least_squares = fitting._least_squares

    def record(*args, **kwargs):
        found.append(least_squares(*args, **kwargs))
        return found[-1]

    with monkeypatch.context() as patch:
        patch.setattr(fitting, "_levenberg_marquardt", solver)
        patch.setattr(fitting, "_least_squares", record)
        patch.setattr(benchmarking, "_least_squares", record)
        fit()
    return found


def _binomial(rng, p, shots):
    return rng.binomial(shots, np.clip(p, 0.0, 1.0)) / shots


def _cosine_draw(rng):
    taus = np.linspace(0.0, rng.uniform(1e-6, 4e-6), int(rng.integers(8, 120)))
    f, t2 = rng.uniform(0.5e6, 3e6), rng.choice([math.inf, rng.uniform(5e-6, 60e-6)])
    fringe = 0.5 + rng.uniform(0.1, 0.5) * np.exp(-taus / t2) * np.cos(2 * math.pi * f * taus + rng.uniform(-1, 1))
    values, f_guess = _binomial(rng, fringe, int(rng.integers(20, 400))), f * rng.uniform(0.98, 1.02)
    return lambda: fit_cosine(taus, values, f_guess, t2)


def _mixture_draw(rng):
    taus = np.linspace(0.0, rng.uniform(2e-6, 6e-6), int(rng.integers(20, 160)))
    f1 = rng.uniform(1.5e6, 2.5e6)
    f2, w, t2 = f1 - rng.uniform(0.2e6, 0.6e6), rng.uniform(0.2, 0.8), 61e-6
    beating = 0.5 + 0.45 * np.exp(-taus / t2) * (
        w * np.cos(2 * math.pi * f1 * taus) + (1 - w) * np.cos(2 * math.pi * f2 * taus)
    )
    values = _binomial(rng, beating, int(rng.integers(50, 1000)))
    guesses = f1 * rng.uniform(0.99, 1.01), f2 * rng.uniform(0.99, 1.01)
    return lambda: fit_two_frequency_mixture(taus, values, *guesses, t2)


def _fringe_offset_draw(rng):
    delta, offset = rng.uniform(2e5, 6e5), rng.uniform(-50e-9, 50e-9)
    taus = np.linspace(0.05e-6, rng.uniform(1e-6, 3e-6), int(rng.integers(10, 200)))
    contrast = rng.uniform(0.5, 1.0) * np.abs(np.sin(math.pi * delta * (taus + offset)))
    signal, guess = contrast + rng.normal(0.0, 10 ** rng.uniform(-4, -2), taus.size), offset + rng.uniform(-2e-8, 2e-8)
    return lambda: fit_fringe_time_offset(taus, signal, delta, guess)


def _rb_draw(rng, weighted):
    depths, shots = np.array(RbConfig.depths), RbConfig.n_sequences * RbConfig.shots_per_sequence
    k = rng.binomial(shots, 0.5 * rng.uniform(0.99, 0.9995) ** depths + 0.5)
    weights = benchmarking._survival_weights(k, shots) if weighted else None
    return lambda: fit_exponential(depths, k / shots, weights)


def _bounded_rb_draw(rng):
    # An amplitude above 1 or an offset below 0 puts the best fit on the box.
    depths, shots = np.array(RbConfig.depths[:9]), int(rng.integers(50, 400))
    decay = rng.uniform(0.99, 0.999) ** depths
    k = rng.binomial(shots, np.clip(rng.uniform(0.9, 1.15) * decay + rng.uniform(-0.1, 0.05), 0.0, 1.0))
    return lambda: fit_exponential(depths, k / shots, benchmarking._survival_weights(k, shots))


DRAWS = {
    "cosine": _cosine_draw,
    "mixture": _mixture_draw,
    "fringe-offset": _fringe_offset_draw,
    "exponential-weighted": lambda rng: _rb_draw(rng, True),
    "exponential-unweighted": lambda rng: _rb_draw(rng, False),
    "exponential-bounded": _bounded_rb_draw,
}


@pytest.mark.parametrize("family", DRAWS)
def test_solver_agrees_with_curve_fit(monkeypatch, family):
    rng = np.random.default_rng(20261019)
    for _ in range(30):
        fit = DRAWS[family](rng)
        (ours,), (reference,) = _solutions(monkeypatch, fit, fitting._levenberg_marquardt), _solutions(
            monkeypatch, fit, _curve_fit
        )
        assert (ours is None) == (reference is None)
        if ours is None:
            continue
        (popt, pcov), (ref_popt, ref_pcov) = ours, reference
        errors, ref_errors = np.sqrt(np.abs(np.diag(pcov))), np.sqrt(np.abs(np.diag(ref_pcov)))
        assert np.all(np.abs(popt - ref_popt) <= 1e-5 * np.abs(ref_popt) + PARAM_TOL * ref_errors)
        if family in ("exponential-weighted", "exponential-unweighted"):
            np.testing.assert_allclose(errors, ref_errors, rtol=ERROR_TOL)


# Three depths whose survivals A p^L + B meets exactly only as A -> inf and
# p^L -> 0: the fit crawls along that valley toward the box face A = 1.
# curve_fit (TRF) stops on its absolute gradient test after 730 and 1157
# model evaluations.
@pytest.mark.parametrize("depths, survivals", [([1, 30, 55], [1, 0.5, 0.5]), ([1, 19, 33], [1, 2 / 3, 2 / 3])])
def test_a_crawling_near_exact_fit_stops_within_a_thousand_evaluations(monkeypatch, depths, survivals):
    depths, survivals = np.array(depths, dtype=float), np.array(survivals)
    weights = benchmarking._survival_weights(survivals, 1)  # one shot per depth
    evaluations = []
    solve = fitting._levenberg_marquardt

    def counted(model, *args, **kwargs):
        def model_counted(x, *p):
            evaluations.append(p)
            return model(x, *p)

        return solve(model_counted, *args, **kwargs)

    def cost(popt):
        return float(weights @ (popt[0] * popt[1] ** depths + popt[2] - survivals) ** 2)

    def fit():
        return fit_exponential(depths, survivals, weights)

    (ours,), (reference,) = _solutions(monkeypatch, fit, counted), _solutions(monkeypatch, fit, _curve_fit)
    assert fit().ok
    assert len(evaluations) <= 1000
    assert cost(ours[0]) <= cost(reference[0])


@pytest.mark.parametrize("weighted", [False, True])
def test_exponential_fit_on_three_depths_warns_nothing(weighted):
    depths, survivals = np.array([1, 16, 256]), np.array([0.97, 0.9, 0.62])
    weights = np.full(3, 1e4) if weighted else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_exponential(depths, survivals, weights)
    assert fit.ok
    errors = (fit.amplitude_err, fit.decay_err, fit.offset_err)
    # The reduced chi-square has no degrees of freedom left; inverse variances do not need it.
    assert all(map(math.isfinite, errors)) if weighted else all(map(math.isinf, errors))
