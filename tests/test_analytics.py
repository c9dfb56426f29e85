"""Closed forms: likelihood, contrast, optimal probing, error budgets, coherence."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from bistable_qubit import analytics
from bistable_qubit.bloch import QubitParams
from bistable_qubit.protocol import ramsey_probability
from bistable_qubit.streams import substream

QP = QubitParams.defaults()


def argmax_contrast(delta_tls, t2, alpha=1.0):
    """Independent oracle: bounded golden-section-style search on the first arch."""
    res = minimize_scalar(
        lambda t: -analytics.contrast(delta_tls, t, alpha, t2),
        bounds=(1e-15, 1.0 / delta_tls),
        method="bounded",
        options={"xatol": 1e-7 / delta_tls},
    )
    return float(res.x)


def _reference_ak_mc(delta_tls, gamma, t_grid, n_trajectories, rng, initial="equal"):
    """ak_coherence_mc as a segment-by-segment clip of every dwell against every
    grid time, summing exp(1j * w * phase) over whole chunks: the reference for
    the per-segment sums.  Each pass draws one dwell per trajectory still on the
    grid, in trajectory order."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    w = math.pi * delta_tls
    horizon = float(t_grid.max(initial=0.0))
    total = np.zeros(t_grid.shape, dtype=complex)
    remaining = n_trajectories
    while remaining > 0:
        n = min(analytics.MC_CHUNK, remaining)
        remaining -= n
        if initial == "equal":
            s0 = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        else:
            s0 = np.full(n, 1.0 if initial == "plus" else -1.0)
        if gamma <= 0.0:
            phase = s0[:, None] * (w * t_grid)[None, :]
            total += np.exp(1j * phase).sum(axis=0)
            continue
        phase = np.zeros((n, t_grid.size))
        seg_start = np.zeros(n)
        sign = s0.copy()
        live = np.arange(n)
        while live.size:
            dwell = rng.exponential(2.0 / gamma, size=live.size)
            overlap = np.clip(t_grid[None, :] - seg_start[live, None], 0.0, dwell[:, None])
            phase[live] += sign[live, None] * overlap
            seg_start[live] += dwell
            sign[live] = -sign[live]
            live = live[seg_start[live] <= horizon]
        total += np.exp(1j * w * phase).sum(axis=0)
    return 0.5 * total / n_trajectories


def _rounding_bound(n_trajectories, t, delta_tls):
    """How far ak_coherence_mc may sit from _reference_ak_mc by rounding alone.

    Each of the n unit terms exp(i w phi) carries an angle error of order
    eps (1 + w t_max) on either side, since phi is built from times up to
    t_max; two sums of n unit terms taken in different orders differ by order
    n eps in their mean.  Each side errs by at most the sum of the two, and
    a + b <= 2 a b for a, b >= 1, so the difference is below
    4 eps n (1 + w t_max).  A single grid cell given to the wrong segment
    moves a value by about 1/(2n), orders of magnitude above it.
    """
    return 4.0 * np.finfo(float).eps * n_trajectories * (1.0 + math.pi * delta_tls * float(np.max(t)))


class _ShortFirstCall:
    """A generator whose first exponential call returns dwells 100x shorter, so
    that every trajectory of the first chunk flips many times before the grid's
    end: a long tail of passes, each on fewer trajectories."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, n):
        return self._rng.random(n)

    def state(self):
        return self._rng.bit_generator.state

    def exponential(self, scale, size):
        self.calls += 1
        return self._rng.exponential(scale, size) * (0.01 if self.calls == 1 else 1.0)


def _reference_improvement_map(splittings, switching, alpha=0.94, t_pi=48e-9, t2=61e-6, t_wall=8e-6):
    """improvement_map as one scalar evaluation per cell, then the contour scan."""
    values = np.empty((len(splittings), len(switching)))
    for i, x in enumerate(splittings):
        for j, y in enumerate(switching):
            omega = math.pi / t_pi
            delta = x * omega / (2.0 * math.pi)
            t_cyc = 1.0 / (2.0 * delta) + t_wall
            gamma = y / t_cyc
            raw = 0.5 * ((1.0 - alpha) + (1.0 / t2 + 0.5 * gamma) / (2.0 * delta) + gamma * t_wall)
            p_err = min(max(raw, 0.0), 0.5)
            floor = 1.0 - alpha * math.exp(-t_pi / t2)
            coherent = (2.0 * math.pi * delta / omega) ** 2
            values[i, j] = math.log10((floor + 0.25 * coherent) / (floor + p_err * coherent))
    contour = np.full(len(splittings), np.nan)
    for i, row in enumerate(values):
        for j in range(row.size - 1):
            a, b = row[j], row[j + 1]
            if a == 0.0:
                contour[i] = switching[j]
                break
            if a * b < 0.0:
                contour[i] = switching[j] + a / (a - b) * (switching[j + 1] - switching[j])
                break
    return values, contour


class TestRamseyLikelihood:
    def test_reduces_to_ideal_form(self):
        taus = np.linspace(0.0, 4e-6, 100)
        ideal = QubitParams.defaults(
            t1=math.inf, t_phi=math.inf, readout_eps_0to1=0.0, readout_eps_1to0=0.0
        )
        for xi in (0, 1):
            for delta_f in (0.0, 1.3e6):
                got = analytics.ramsey_likelihood(1, xi, taus, delta_f, ideal)
                expected = 0.5 * (
                    1.0 + np.cos(2.0 * math.pi * (delta_f - xi * ideal.delta_tls) * taus)
                )
                assert np.max(np.abs(got - expected)) < 1e-12

    def test_tau_zero_value(self):
        assert analytics.ramsey_likelihood(1, 0, 0.0, 0.0, QP) == pytest.approx(
            (1.0 + QP.alpha) / 2.0
        )

    def test_normalization(self):
        for tau in np.linspace(0, 6e-6, 17):
            for xi in (0, 1):
                total = analytics.ramsey_likelihood(0, xi, tau, 2e6, QP) + (
                    analytics.ramsey_likelihood(1, xi, tau, 2e6, QP)
                )
                assert total == pytest.approx(1.0, abs=1e-14)

    def test_matches_engine_propagation(self):
        # The engine is the independent oracle; delta_f maps to f_high - f_c.
        for tau in np.linspace(0.0, 5e-6, 13):
            for off in (-2.33e6, 0.0, 1e6):
                for xi in (0, 1):
                    f_c = QP.f_high + off
                    engine = ramsey_probability(QP, f_c, xi, float(tau))
                    closed = analytics.ramsey_likelihood(1, xi, float(tau), QP.f_high - f_c, QP)
                    assert abs(engine - closed) < 1e-9


class TestContrast:
    def test_node_at_inverse_splitting(self):
        assert analytics.contrast(374e3, 1.0 / 374e3, 0.94, 43e-6) == pytest.approx(0.0, abs=1e-12)

    def test_maximal_point(self):
        assert analytics.contrast(374e3, 0.5 / 374e3, 1.0, math.inf) == pytest.approx(1.0)

    def test_reference_value_and_grid_maximum(self):
        delta, t2, alpha = 374e3, 43e-6, 0.94
        tau_star = analytics.tau_opt(delta, t2)
        s = analytics.contrast(delta, tau_star, alpha, t2)
        assert s == pytest.approx(0.911, abs=2e-3)
        taus = np.linspace(1e-9, 1.0 / delta, 20001)
        assert s >= np.max(analytics.contrast(delta, taus, alpha, t2)) - 1e-9

    def test_bounded_by_alpha(self):
        taus = np.linspace(0, 8e-6, 400)
        values = analytics.contrast(374e3, taus, 0.7, 20e-6, delta_f=1.7e6)
        assert np.all(values >= 0.0)
        assert np.all(values <= 0.7 + 1e-12)

    def test_engine_definition(self):
        # |P(1|xi=0) - P(1|xi=1)| from the engine equals the closed form.
        for tau in np.linspace(0.1e-6, 3e-6, 9):
            for off in (0.0, -0.8e6):
                f_c = QP.f_high + off
                p0 = ramsey_probability(QP, f_c, 0, float(tau))
                p1 = ramsey_probability(QP, f_c, 1, float(tau))
                closed = analytics.contrast(
                    QP.delta_tls, float(tau), QP.alpha, QP.t2, QP.f_high - f_c
                )
                assert abs(abs(p0 - p1) - closed) < 1e-9


class TestTauOpt:
    def test_infinite_coherence_limit(self):
        assert analytics.tau_opt(374e3, math.inf) == pytest.approx(1.0 / (2 * 374e3))
        assert analytics.tau_opt(374e3, math.inf) == pytest.approx(1.337e-6, rel=1e-3)

    def test_reference_coherence(self):
        tau = analytics.tau_opt(374e3, 43e-6)
        assert tau == pytest.approx(1.329e-6, rel=1e-3)
        assert tau == pytest.approx(argmax_contrast(374e3, 43e-6), rel=1e-4)

    def test_equals_argmax_across_regimes(self):
        delta = 374e3
        for product in np.logspace(-2, 4, 13):
            t2 = product / delta
            tau = analytics.tau_opt(delta, t2)
            assert tau == pytest.approx(argmax_contrast(delta, t2), rel=1e-4)
            assert 0.0 < tau <= 0.5 / delta + 1e-18

    def test_small_product_limit_is_twice_t2(self):
        # exp(-tau/T2) * sin^2(pi d tau) ~ tau^2 exp(-tau/T2): argmax -> 2 T2.
        delta = 374e3
        t2 = 1e-4 / delta
        assert analytics.tau_opt(delta, t2) == pytest.approx(2.0 * t2, rel=1e-4)


class TestPErrStatic:
    def test_perfect_discrimination_limit(self):
        assert analytics.p_err_static(374e3, math.inf, 1.0) == pytest.approx(0.0)

    def test_zero_visibility_limit(self):
        assert analytics.p_err_static(374e3, 43e-6, 1e-12) == pytest.approx(0.5)

    def test_reference_value(self):
        assert analytics.p_err_static(374e3, 43e-6, 0.94) == pytest.approx(0.0443, abs=2e-4)

    def test_identity_with_contrast_at_optimum(self):
        for delta, t2, alpha in [(374e3, 43e-6, 0.94), (50e3, 10e-6, 0.8), (374e3, 1e-3, 1.0)]:
            tau = analytics.tau_opt(delta, t2)
            s = analytics.contrast(delta, tau, alpha, t2)
            assert analytics.p_err_static(delta, t2, alpha) == pytest.approx(
                0.5 * (1.0 - s), abs=1e-12
            )


class TestBlindDriving:
    def test_single_mode_optimum(self):
        f_opt = analytics.optimal_blind_frequency((1.0, 0.0), QP)
        assert f_opt == QP.f_low
        assert analytics.blind_x_infidelity(f_opt, (1.0, 0.0), QP, include_floor=False) == (
            pytest.approx(0.0, abs=1e-12)
        )

    def test_midpoint_worst_case_bound(self):
        f_mid = analytics.optimal_blind_frequency((0.5, 0.5), QP)
        assert f_mid == pytest.approx(0.5 * (QP.f_low + QP.f_high))
        coherent = analytics.blind_x_infidelity(f_mid, (0.5, 0.5), QP, include_floor=False)
        bound = (math.pi * QP.delta_tls / QP.rabi_rate) ** 2
        assert coherent == pytest.approx(3.2e-4, rel=0.02)
        assert coherent == pytest.approx(bound, rel=0.01)
        assert coherent <= bound

    def test_numeric_argmax_sits_near_weighted_mean(self):
        rng = substream(301, "blind")
        grid = np.linspace(QP.f_low - QP.delta_tls, QP.f_high + QP.delta_tls, 4001)
        for _ in range(20):
            p_l = float(rng.uniform(0.05, 0.95))
            pops = (p_l, 1.0 - p_l)
            infid = [analytics.blind_x_infidelity(f, pops, QP, include_floor=False) for f in grid]
            best = grid[int(np.argmin(infid))]
            f_opt = analytics.optimal_blind_frequency(pops, QP)
            assert abs(best - f_opt) < 0.01 * QP.delta_tls + (grid[1] - grid[0])

    def test_strong_splitting_flagged(self):
        strong = QubitParams.defaults(f_low=QP.f_high - QP.rabi_rate / (2 * math.pi) * 1.2)
        with pytest.raises(ValueError, match="bimodal"):
            analytics.optimal_blind_frequency((0.5, 0.5), strong)

    def test_full_form_includes_floor(self):
        f_mid = 0.5 * (QP.f_low + QP.f_high)
        total = analytics.blind_x_infidelity(f_mid, (0.5, 0.5), QP)
        coherent = analytics.blind_x_infidelity(f_mid, (0.5, 0.5), QP, include_floor=False)
        assert total == pytest.approx(coherent + analytics.intrinsic_pulse_floor(QP))


class TestActiveDriving:
    def test_zero_error_floor(self):
        assert analytics.active_x_infidelity(0.0, QP) == pytest.approx(
            analytics.intrinsic_pulse_floor(QP)
        )

    def test_quarter_threshold_identity(self):
        active_coh = analytics.active_x_infidelity(0.25, QP, include_floor=False)
        blind_coh = (math.pi * QP.delta_tls / QP.rabi_rate) ** 2
        assert active_coh == pytest.approx(blind_coh, rel=1e-12)

    def test_random_guessing_doubles_blind(self):
        active_coh = analytics.active_x_infidelity(0.5, QP, include_floor=False)
        blind_coh = (math.pi * QP.delta_tls / QP.rabi_rate) ** 2
        assert active_coh == pytest.approx(2.0 * blind_coh, rel=1e-12)

    def test_crossover_property(self):
        blind_coh = (math.pi * QP.delta_tls / QP.rabi_rate) ** 2
        for p_err in np.linspace(0.0, 0.5, 26):
            active_coh = analytics.active_x_infidelity(float(p_err), QP, include_floor=False)
            assert (active_coh < blind_coh) == (p_err < 0.25)


class TestZPhaseError:
    def test_zero_time(self):
        assert analytics.z_phase_error_variance(374e3, 0.0) == 0.0

    def test_reference_value(self):
        var = analytics.z_phase_error_variance(374e3, 48e-9)
        assert var == pytest.approx((2 * math.pi * 374e3 * 48e-9) ** 2 / 4)
        assert var == pytest.approx(3.2e-3, rel=0.01)

    def test_quadratic_scaling(self):
        assert analytics.z_phase_error_variance(374e3, 96e-9) == pytest.approx(
            4.0 * analytics.z_phase_error_variance(374e3, 48e-9)
        )

    def test_simulated_frame_error_variance(self):
        # A frame tracking the mean frequency mistracks a random mode by half
        # the splitting; read the accrued phase off the engine's precession.
        from bistable_qubit.bloch import apply, detuning, free_map

        ideal = QubitParams.defaults(t1=math.inf, t_phi=math.inf)
        f_mid = 0.5 * (ideal.f_low + ideal.f_high)
        t_g = 48e-9
        rng = substream(304, "zphase")
        samples = []
        for _ in range(5000):
            xi = int(rng.random() < 0.5)
            x, y, _ = apply(free_map(detuning(ideal, f_mid, xi), t_g, ideal), (1.0, 0.0, 0.0))
            samples.append(math.atan2(y, x) ** 2)
        expected = analytics.z_phase_error_variance(ideal.delta_tls, t_g)
        assert np.mean(samples) == pytest.approx(expected, rel=1e-9)


class TestFinitePulseContrast:
    def test_echo_reproduces_contrast(self):
        taus = np.linspace(0, 5e-6, 100)
        echo = analytics.finite_pulse_contrast(374e3, taus, 0.94, 43e-6, QP.rabi_rate, echo=True)
        plain = analytics.contrast(374e3, taus, 0.94, 43e-6)
        assert np.max(np.abs(echo - plain)) < 1e-12

    def test_fast_pulse_limit(self):
        taus = np.linspace(0, 5e-6, 50)
        fast = analytics.finite_pulse_contrast(374e3, taus, 0.94, 43e-6, 1e15, echo=False)
        plain = analytics.contrast(374e3, taus, 0.94, 43e-6)
        assert np.max(np.abs(fast - plain)) < 1e-8

    def test_argmax_shift(self):
        delta, t2, alpha = 374e3, 43e-6, 0.94
        omega = QP.rabi_rate
        res = minimize_scalar(
            lambda t: -analytics.finite_pulse_contrast(delta, t, alpha, t2, omega, echo=False),
            bounds=(1e-15, 1.0 / delta),
            method="bounded",
            options={"xatol": 1e-7 / delta},
        )
        expected = analytics.tau_opt(delta, t2) - 2.0 / omega
        assert float(res.x) == pytest.approx(expected, rel=1e-3)


class TestAndersonKubo:
    def test_no_switching_limit(self):
        delta = 374e3
        t = np.linspace(0, 3 / delta, 200)
        ak = analytics.ak_coherence(t, delta, 0.0)
        w = math.pi * delta
        assert np.max(np.abs(ak.c_eq - 0.5 * np.cos(w * t))) < 1e-12
        assert np.max(np.abs(ak.s_ak - np.abs(np.sin(w * t)))) < 1e-12

    def test_initial_conditions(self):
        ak = analytics.ak_coherence(np.array([0.0]), 374e3, 3e5)
        assert ak.c_eq[0] == pytest.approx(0.5)
        assert ak.c_plus[0] == pytest.approx(0.5)
        assert ak.c_minus[0] == pytest.approx(0.5)
        h = 1e-12
        two = analytics.ak_coherence(np.array([0.0, h]), 374e3, 3e5)
        slope = abs(two.c_eq[1] - two.c_eq[0]) / h
        assert slope < 1e-3 * math.pi * 374e3  # C'(0) = 0 on the oscillation scale

    def test_two_branch_vs_derivative_identity(self):
        delta = 374e3
        t = np.linspace(0, 3 / delta, 500)
        for gamma_frac in (0.1, 0.7, 1.0, 1.6):
            ak = analytics.ak_coherence(t, delta, gamma_frac * 2 * math.pi * delta)
            assert np.max(np.abs((ak.c_plus - ak.c_minus) - ak.delta_c)) < 1e-10
            assert np.max(np.abs(0.5 * (ak.c_plus + ak.c_minus) - ak.c_eq)) < 1e-10

    def test_ode_residual(self):
        delta = 374e3
        w = math.pi * delta
        for gamma_frac in (0.0, 0.4, 1.3):
            gamma = gamma_frac * 2 * math.pi * delta
            h = 1e-3 / w
            for t0 in np.linspace(1e-8, 3 / delta, 40):
                c = analytics.ak_coherence(np.array([t0 - h, t0, t0 + h]), delta, gamma).c_eq
                cdd = (c[0] - 2 * c[1] + c[2]) / h**2
                cd = (c[2] - c[0]) / (2 * h)
                residual = cdd + gamma * cd + w * w * c[1]
                assert abs(residual) / (w * w * max(abs(c[1]), 0.1)) < 1e-6

    def test_s_ak_bound(self):
        delta = 374e3
        gamma = 0.8 * 2 * math.pi * delta
        beta = math.sqrt((math.pi * delta) ** 2 - 0.25 * gamma**2)
        ak = analytics.ak_coherence(np.linspace(0, 3 / delta, 300), delta, gamma)
        assert np.all(ak.s_ak >= 0.0)
        assert np.all(ak.s_ak <= math.pi * delta / beta + 1e-12)

    def test_overdamped_branch_decays_monotonically(self):
        delta = 374e3
        t = np.linspace(0, 3 / delta, 300)
        ak = analytics.ak_coherence(t, delta, 4.0 * 2 * math.pi * delta)
        assert np.max(np.abs(np.imag(ak.c_plus + ak.c_minus))) < 1e-10
        assert np.all(np.diff(ak.c_eq) <= 1e-12)
        assert np.all(ak.c_eq > 0.0)

    def test_monte_carlo_trajectory_average(self):
        delta = 374e3
        gamma = 0.4 * 2 * math.pi * delta
        t = np.linspace(0, 3 / delta, 50)
        rng = substream(302, "akmc")
        mc = analytics.ak_coherence_mc(delta, gamma, t, 30_000, rng)
        ak = analytics.ak_coherence(t, delta, gamma)
        assert np.max(np.abs(mc.real - ak.c_eq)) < 0.01
        assert np.max(np.abs(mc.imag)) < 0.01

    def test_monte_carlo_definite_branch(self):
        delta = 374e3
        gamma = 0.3 * 2 * math.pi * delta
        t = np.linspace(0, 2 / delta, 40)
        rng = substream(303, "akmcp")
        mc = analytics.ak_coherence_mc(delta, gamma, t, 30_000, rng, initial="plus")
        ak = analytics.ak_coherence(t, delta, gamma)
        assert np.max(np.abs(mc - ak.c_plus)) < 0.015

    # Splitting of the exactness cases; 2w = 2 pi delta_tls is critical damping.
    DELTA = 374e3
    W2 = 2 * math.pi * DELTA

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        gamma_over_critical=st.sampled_from([0.0, 0.3, 1.0, 3.0]),
        initial=st.sampled_from(["equal", "plus", "minus"]),
        times=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=10),
        duplicate=st.integers(0, 9),
        n_trajectories=st.sampled_from([1, 7, analytics.MC_CHUNK - 1, analytics.MC_CHUNK, analytics.MC_CHUNK + 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(gamma_over_critical=0.0, initial="equal", times=[2.5, 0.5], duplicate=1, n_trajectories=7, seed=5)
    @example(gamma_over_critical=1.0, initial="equal", times=[2.5, 0.5], duplicate=1, n_trajectories=7, seed=5)
    def test_monte_carlo_equals_clip_loop(self, gamma_over_critical, initial, times, duplicate, n_trajectories, seed):
        # Unsorted grid in units of 1/delta_tls, with t = 0 and a duplicate time.
        t = np.array([0.0, *times, times[duplicate % len(times)]]) / self.DELTA
        gamma = gamma_over_critical * self.W2
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = analytics.ak_coherence_mc(self.DELTA, gamma, t, n_trajectories, rng, initial)
        want = _reference_ak_mc(self.DELTA, gamma, t, n_trajectories, reference_rng, initial)
        assert rng.bit_generator.state == reference_rng.bit_generator.state  # the same draws
        assert np.max(np.abs(got - want)) <= _rounding_bound(n_trajectories, t, self.DELTA)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        grid=st.lists(st.floats(0.0, 10.0), max_size=30),
        duplicate=st.integers(0, 29),
        keys=st.lists(st.floats(0.0, 12.0), max_size=30),
        on_grid=st.lists(st.integers(0, 29), max_size=6),
    )
    @example(grid=[], duplicate=0, keys=[1.0], on_grid=[])
    @example(grid=[2.0, 2.0, 2.0], duplicate=0, keys=[1.0, 3.0], on_grid=[0])
    @example(grid=[5.0, 0.0, 1e-300, 2e-300, 3e-300], duplicate=2, keys=[1e-300, 2.5e-300], on_grid=[1, 2, 3])
    @example(grid=[0.0, 1.1e-308], duplicate=0, keys=[5e-309], on_grid=[1])
    def test_grid_index_equals_searchsorted(self, grid, duplicate, keys, on_grid):
        # An unsorted grid with a duplicate time, sorted as ak_coherence_mc sorts it;
        # keys on grid points and their float neighbours, 0 and inf.
        t = np.sort(np.array(grid + grid[duplicate % len(grid):][:1] if grid else []))
        points = t[np.array(on_grid, dtype=int) % t.size] if t.size else np.empty(0)
        keys = np.concatenate([keys, points, np.nextafter(points, -1.0), np.nextafter(points, 20.0), [0.0, math.inf]])
        assert np.array_equal(analytics._grid_index(t)(keys), np.searchsorted(t, keys, side="left"))

    @pytest.mark.parametrize("initial", ["equal", "plus", "minus"])
    def test_monte_carlo_long_tail_equals_clip_loop(self, initial):
        t = np.linspace(3.0, 0.0, 25) / self.DELTA
        n = analytics.MC_CHUNK + 5
        reference = _ShortFirstCall(11)
        want = _reference_ak_mc(self.DELTA, 0.4 * self.W2, t, n, reference, initial)
        fast = _ShortFirstCall(11)
        got = analytics.ak_coherence_mc(self.DELTA, 0.4 * self.W2, t, n, fast, initial)
        assert fast.calls == reference.calls > 2  # two chunks, each a tail of passes
        assert fast.state() == reference.state()
        assert np.max(np.abs(got - want)) <= _rounding_bound(n, t, self.DELTA)

    @pytest.mark.parametrize("gamma_over_critical", [0.0, 0.4])
    def test_monte_carlo_chunk_memory_is_bounded(self, gamma_over_critical):
        # numpy reports its buffers to tracemalloc, so the traced peak of one
        # chunk on 200 points does not depend on the host.  The bounds are the
        # peaks of a per-grid-cell sum in row blocks of 4e5 cells on these
        # calls, in bytes; a whole-chunk complex exp traces 160-170 MB.
        peak_bound = {0.0: 9_903_899, 0.4: 23_401_164}[gamma_over_critical]
        t = np.linspace(0.0, 3.0, 200) / self.DELTA
        gamma, rng = gamma_over_critical * self.W2, substream(304, "akmem")
        tracemalloc.start()
        try:
            analytics.ak_coherence_mc(self.DELTA, gamma, t, analytics.MC_CHUNK, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= peak_bound

    @pytest.mark.parametrize("gamma", [5e-324, 1e-320, 1e-310, 1e-308, 1.2e-308, 2e-308, 1e-307, 1e-306])
    def test_monte_carlo_subnormal_rate_reads_as_frozen(self, gamma):
        # Dwell draws at these rates sum past the largest float; the rate
        # reads as frozen, with no warning and the frozen result exactly.
        t = np.linspace(0.0, 3.0, 5) / self.DELTA
        frozen = analytics.ak_coherence_mc(self.DELTA, 0.0, t, analytics.MC_CHUNK, substream(305, "aksub"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = analytics.ak_coherence_mc(self.DELTA, gamma, t, analytics.MC_CHUNK, substream(305, "aksub"))
        assert np.array_equal(got, frozen)

    @pytest.mark.parametrize("t", [[0.0, -1e-9], [0.0, math.nan], [math.inf], [1e-6, -math.inf]])
    def test_monte_carlo_rejects_bad_grid(self, t):
        with pytest.raises(ValueError, match="t_grid"):
            analytics.ak_coherence_mc(374e3, 1e5, t, 10, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [0, -3])
    def test_monte_carlo_rejects_no_trajectories(self, n):
        with pytest.raises(ValueError, match="n_trajectories"):
            analytics.ak_coherence_mc(374e3, 1e5, [0.0, 1e-6], n, np.random.default_rng(0))


class TestPErrBandwidth:
    def test_noise_free_limit(self):
        assert analytics.p_err_bandwidth_exact(374e3, 0.0, 1.0, math.inf, 0.0) == pytest.approx(0.0)

    def test_reference_expanded_value(self):
        p = analytics.p_err_bandwidth(374e3, 0.0, 0.94, 61e-6, 8e-6)
        assert p == pytest.approx(0.041, abs=5e-4)

    def test_expansion_agrees_with_exact_when_terms_small(self):
        for gamma in np.linspace(0.0, 4e3, 9):
            for t_wall in (0.0, 4e-6, 8e-6):
                expanded = analytics.p_err_bandwidth(374e3, float(gamma), 0.94, 61e-6, t_wall)
                exact = analytics.p_err_bandwidth_exact(374e3, float(gamma), 0.94, 61e-6, t_wall)
                g_eff = 1.0 / 61e-6 + 0.5 * gamma
                terms = [(1 - 0.94), g_eff / (2 * 374e3), gamma * t_wall]
                if all(term < 0.05 for term in terms):
                    assert expanded == pytest.approx(exact, rel=0.10)

    def test_monotonicity(self):
        base = dict(delta_tls=374e3, gamma=1e3, alpha=0.94, t2=61e-6, t_wall=8e-6)
        p0 = analytics.p_err_bandwidth(**base)
        assert analytics.p_err_bandwidth(**{**base, "gamma": 2e3}) >= p0
        assert analytics.p_err_bandwidth(**{**base, "t_wall": 16e-6}) >= p0
        assert analytics.p_err_bandwidth(**{**base, "t2": 30e-6}) >= p0
        assert analytics.p_err_bandwidth(**{**base, "alpha": 0.99}) <= p0

    def test_clamped_to_half(self):
        assert analytics.p_err_bandwidth(374e3, 1e9, 0.94, 61e-6, 8e-6) == 0.5


class TestImprovementMap:
    def test_formula_identity(self):
        splittings = np.logspace(-2, math.log10(0.4), 7)
        switching = np.logspace(-3, 0.3, 9)
        amap = analytics.improvement_map(splittings, switching)
        omega = math.pi / 48e-9
        for i, x in enumerate(splittings):
            for j, y in enumerate(switching):
                delta = x * omega / (2 * math.pi)
                gamma = y / (1.0 / (2 * delta) + 8e-6)
                p_err = analytics.p_err_bandwidth(delta, gamma, 0.94, 61e-6, 8e-6)
                floor = 1.0 - 0.94 * math.exp(-48e-9 / 61e-6)
                coherent = x * x
                expected = math.log10((floor + 0.25 * coherent) / (floor + p_err * coherent))
                assert abs(amap.values[i, j] - expected) < 1e-12

    def test_fast_switching_destroys_improvement(self):
        cell = analytics.improvement_map([0.1], [50.0], 0.94, 48e-9, 61e-6, 8e-6).values[0, 0]
        assert cell <= 0.0

    def test_small_splitting_degrades(self):
        switching = np.array([1e-3])
        splittings = np.logspace(-3, math.log10(0.4), 12)
        amap = analytics.improvement_map(splittings, switching)
        assert np.all(np.diff(amap.values[:, 0]) >= -1e-12)

    def test_zero_contour_exists(self):
        amap = analytics.improvement_map(
            np.logspace(-2, math.log10(0.4), 10), np.logspace(-3, 0.7, 40)
        )
        assert np.sum(~np.isnan(amap.zero_contour)) == 10
        for i, y0 in enumerate(amap.zero_contour):
            deltas = amap.values[i]
            below = deltas[amap.switching < y0]
            above = deltas[amap.switching > y0]
            assert np.all(below >= -1e-9) and np.all(above <= 1e-9)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        log_axes=st.booleans(),
        split_lo=st.floats(1e-4, 0.1),
        split_hi=st.floats(0.1, 2.0),
        n_split=st.integers(1, 12),
        switch_hi=st.floats(0.1, 300.0),
        n_switch=st.integers(1, 15),
    )
    # One switching column: no pair of cells, so every contour is NaN.
    @example(log_axes=True, split_lo=0.01, split_hi=0.5, n_split=4, switch_hi=3.0, n_switch=1)
    # At this splitting and no switching, blind driving and active estimation tie
    # to the last bit: the first row's first cell is exactly 0, and so is its contour.
    @example(log_axes=False, split_lo=0.0017883755588612986, split_hi=0.5, n_split=3, switch_hi=1.0, n_switch=5)
    def test_map_equals_per_cell_loop(self, log_axes, split_lo, split_hi, n_split, switch_hi, n_switch):
        # switch_hi up to 300 reaches cells where p_err clamps at 1/2.
        if log_axes:
            splittings = np.logspace(math.log10(split_lo), math.log10(split_hi), n_split)
            switching = np.logspace(-3, math.log10(switch_hi), n_switch)
        else:
            splittings = np.linspace(split_lo, split_hi, n_split)
            switching = np.linspace(0.0, switch_hi, n_switch)
        amap = analytics.improvement_map(splittings, switching)
        values, contour = _reference_improvement_map(splittings, switching)
        assert np.array_equal(amap.values, values)
        assert np.array_equal(amap.zero_contour, contour, equal_nan=True)

    def test_exact_zero_cell_is_the_contour(self):
        # The second @example above: its tie must stay exact for the example to test the a == 0 branch.
        amap = analytics.improvement_map(np.linspace(0.0017883755588612986, 0.5, 3), np.linspace(0.0, 1.0, 5))
        assert amap.values[0, 0] == 0.0 and amap.values[0, 1] != 0.0
        assert amap.zero_contour[0] == 0.0

    def test_map_squares_like_the_scalar_formula(self):
        # On this linear grid a few rows' (2 pi delta / omega) ** 2 (the C pow)
        # differs in the last ulp from squaring by multiplication, and the
        # difference reaches the map values (though not their 12 printed digits).
        splittings = np.linspace(5e-3, 1.5, 35)
        switching = np.linspace(1e-3, 3.0, 10)
        values, _ = _reference_improvement_map(splittings, switching)
        assert np.array_equal(analytics.improvement_map(splittings, switching).values, values)

    def test_map_reaches_clamped_cells(self):
        # Switching 300, the top of the exactness property's range, clamps
        # p_err at 1/2: there active estimation is worse than blind driving.
        splittings = np.linspace(0.01, 0.5, 5)
        amap = analytics.improvement_map(splittings, [300.0])
        assert np.all(amap.values[:, 0] < 0.0)
        delta = splittings * (math.pi / 48e-9) / (2 * math.pi)
        gamma = 300.0 / (1.0 / (2 * delta) + 8e-6)
        assert np.all(analytics.p_err_bandwidth(delta, gamma, 0.94, 61e-6, 8e-6) == 0.5)

    def test_cell_is_map_entry(self):
        amap = analytics.improvement_map([0.02, 0.3], [1e-3, 0.5, 40.0])
        for i, x in enumerate(amap.splittings):
            for j, y in enumerate(amap.switching):
                assert analytics.improvement_map([x], [y], 0.94, 48e-9, 61e-6, 8e-6).values[0, 0] == amap.values[i, j]

    @pytest.mark.parametrize(
        "splittings, switching",
        [([0.1, math.nan], [0.5]), ([math.inf], [0.5]), ([0.1], [math.nan]), ([0.1], [0.5, math.inf])],
    )
    def test_map_rejects_non_finite_axes(self, splittings, switching):
        with pytest.raises(ValueError, match="finite"):
            analytics.improvement_map(splittings, switching)
