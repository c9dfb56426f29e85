"""Fringe-fitting utilities on synthetic data."""

import math

import numpy as np
import pytest
from scipy.optimize import curve_fit

from bistable_qubit import fitting
from bistable_qubit.benchmarking import fit_exponential
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
        # Levenberg-Marquardt exhausts its 20000 evaluations on this input.
        (
            [0.023969032559723782, 0.012790697570407206, 0.01541417549424323,
             0.021311433334190884, 0.02494239669666596],
            [-45.80618703896165, -31.64677492447767, 186.09814204505545,
             -35.25654107863605, -235.68552843626065],
            3.9193779525544863,
            -5.110252746687177e-08,
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


def _patch_curve_fit(monkeypatch, fake):
    """Route every ``curve_fit`` call through ``fake(call, *args, **kwargs)``, ``call``
    counting from 0; return the list of start points the calls receive."""
    starts = []

    def patched(*args, **kwargs):
        starts.append(kwargs["p0"])
        return fake(len(starts) - 1, *args, **kwargs)

    monkeypatch.setattr(fitting, "curve_fit", patched)
    return starts


def _raise(*args, **kwargs):
    raise RuntimeError("Optimal parameters not found")


def test_fit_exponential_falls_through_to_the_second_start(monkeypatch):
    results = []

    def first_raises(call, *args, **kwargs):
        if call == 0:
            _raise()
        results.append(curve_fit(*args, **kwargs))
        return results[-1]

    starts = _patch_curve_fit(monkeypatch, first_raises)
    fit = fit_exponential(RB_DEPTHS, 0.5 * 0.999**RB_DEPTHS + 0.5)
    assert [p0[1] for p0 in starts] == [0.999, 0.99]
    (popt, pcov), = results
    assert fit.ok
    assert (fit.amplitude, fit.decay, fit.offset) == (popt[0], min(popt[1], 1.0), popt[2])
    assert fit.decay_err == math.sqrt(abs(pcov[1, 1]))


@pytest.mark.parametrize("fit", FITS.values(), ids=FITS)
def test_fit_fails_when_every_start_raises(monkeypatch, fit):
    starts = _patch_curve_fit(monkeypatch, _raise)
    assert not fit()
    assert len(starts) == (4 if fit is FITS["exponential"] else 1)


@pytest.mark.parametrize("fit", FITS.values(), ids=FITS)
def test_fit_with_non_finite_parameters_is_not_ok(monkeypatch, fit):
    assert fit()  # the data converge without the patch

    def nan_fit(call, *args, p0, **kwargs):
        return np.full(len(p0), np.nan), np.eye(len(p0))

    starts = _patch_curve_fit(monkeypatch, nan_fit)
    assert not fit()
    assert len(starts) == 1  # a converged start is final, finite or not
