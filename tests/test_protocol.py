"""Feedback cycles: syndrome estimation, detuned probing, interleaved runs."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistable_qubit import analytics, telegraph
from bistable_qubit.bloch import PulseSpec, QubitParams, apply_pulse, detuning, free_evolve, reset
from bistable_qubit.fitting import fit_cosine, fit_two_frequency_mixture
from bistable_qubit.protocol import (
    HALF_PI,
    ControllerState,
    CycleTiming,
    Environment,
    MitigationConfig,
    calibrate_decode_map,
    cycle_bandwidth,
    default_tau_probe,
    make_environment,
    ramsey_cycle,
    ramsey_probability,
    run_mitigation,
    syndrome_cycle,
    syndrome_error_rate,
    x_gate_excited_population,
)
from bistable_qubit.protocol import _switch_free_state, _two_pulse_cycle
from bistable_qubit.streams import substream
from bistable_qubit.telegraph import TelegraphParams, TlsState

QP = QubitParams.defaults()
IDEAL = QubitParams.defaults(
    t1=math.inf, t_phi=math.inf, readout_eps_0to1=0.0, readout_eps_1to0=0.0
)
FROZEN = TelegraphParams(0.0, 0.0)


def ideal_env(rng, pinned=0, finite=False):
    return make_environment(IDEAL, FROZEN, rng, pinned_mode=pinned, finite_pulses=finite)


class TestCycleBandwidth:
    def test_reference_timing(self):
        timing = CycleTiming(t_gate=48e-9, tau=1.33e-6, t_readout=2e-6, t_reset=6e-6)
        assert cycle_bandwidth(timing) == pytest.approx(107.2e3, rel=2e-3)

    def test_zero_dead_time(self):
        delta = 374e3
        timing = CycleTiming(t_gate=0.0, tau=0.5 / delta, t_readout=0.0, t_reset=0.0)
        assert cycle_bandwidth(timing) == pytest.approx(2 * delta)

    def test_monotone_in_dead_time(self):
        base = CycleTiming(t_gate=48e-9, tau=1.33e-6, t_readout=2e-6, t_reset=6e-6)
        doubled = CycleTiming(t_gate=48e-9, tau=1.33e-6, t_readout=4e-6, t_reset=12e-6)
        assert cycle_bandwidth(doubled) < cycle_bandwidth(base)

    def test_zero_cycle_raises(self):
        with pytest.raises(ValueError):
            cycle_bandwidth(CycleTiming(0.0, 0.0, 0.0, 0.0))

    def test_negative_field_raises(self):
        with pytest.raises(ValueError):
            CycleTiming(-1e-9, 0.0, 0.0, 0.0)


class TestDecodeCalibration:
    def test_outcome_one_means_high_mode(self):
        decode = calibrate_decode_map(QP, default_tau_probe(QP), True)
        assert decode == (1, 0)  # m=0 -> low mode, m=1 -> high mode

    def test_degenerate_probe_time_raises(self):
        with pytest.raises(ValueError, match="contrast"):
            calibrate_decode_map(QP, 1.0 / QP.delta_tls, False)


class TestSyndromeCycle:
    def test_noiseless_pinned_modes_are_decoded_exactly(self):
        tau = 0.5 / IDEAL.delta_tls
        for xi in (0, 1):
            rng = substream(401, "synd", xi)
            env = ideal_env(rng, pinned=xi)
            ctrl = ControllerState(f_c=IDEAL.f_high)
            for _ in range(25):
                _, ctrl = syndrome_cycle(env, ctrl, tau, rng)
                assert ctrl.f_c == IDEAL.mode_frequency(xi)

    def test_invalid_probe_time(self):
        rng = substream(402, "synd")
        env = ideal_env(rng)
        with pytest.raises(ValueError):
            syndrome_cycle(env, ControllerState(f_c=IDEAL.f_high), 0.0, rng)

    def test_off_grid_frame_rejected(self):
        rng = substream(403, "synd")
        env = ideal_env(rng)
        with pytest.raises(ValueError, match="mode frequencies"):
            syndrome_cycle(env, ControllerState(f_c=IDEAL.f_high + 1.0), 1e-6, rng)

    def test_clock_and_tls_advance(self):
        rng = substream(404, "synd")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=True)
        ctrl = ControllerState(f_c=QP.f_high)
        tau = default_tau_probe(QP)
        _, ctrl2 = syndrome_cycle(env, ctrl, tau, rng)
        expected = tau + QP.t_wall + 2 * (0.5 * math.pi / QP.rabi_rate)
        assert ctrl2.clock == pytest.approx(expected)
        assert env.tls.t == pytest.approx(expected)

    def test_error_rate_matches_static_budget(self):
        rng = substream(405, "syndmc")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        n = 100_000
        p_mc = syndrome_error_rate(env, n, default_tau_probe(QP), rng)
        p_th = analytics.p_err_static(QP.delta_tls, QP.t2, QP.alpha)
        sigma = math.sqrt(p_th * (1 - p_th) / n)
        assert abs(p_mc - p_th) < 3.0 * sigma


class TestRamseyCycle:
    def test_tau_zero_composes_full_pi(self):
        rng = substream(406, "rams0")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        ctrl = ControllerState(f_c=QP.f_high)
        n = 20_000
        ones = 0
        for _ in range(n):
            m, ctrl = ramsey_cycle(env, ctrl, 0.0, 2e6, rng)
            ones += m
        expected = 1.0 - QP.readout_eps_1to0
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(ones / n - expected) < 3.0 * sigma

    def test_virtual_detuning_sets_fringe_frequency(self):
        taus = np.linspace(0.0, 2.5e-6, 120)
        det = 2.0e6
        probs = [ramsey_probability(IDEAL, IDEAL.f_high, 0, float(t), det) for t in taus]
        fit = fit_cosine(taus, probs, f_guess=1.9e6)
        assert fit.ok
        assert fit.frequency == pytest.approx(det, rel=1e-3)
        assert probs[0] == pytest.approx(1.0)

    def test_mode_mixture_beats_with_node_at_half_inverse_splitting(self):
        taus = np.linspace(0.0, 2.5e-6, 200)
        det = 2.0e6
        mixed = np.array(
            [
                0.5 * ramsey_probability(IDEAL, IDEAL.f_high, 0, float(t), det)
                + 0.5 * ramsey_probability(IDEAL, IDEAL.f_high, 1, float(t), det)
                for t in taus
            ]
        )
        fit = fit_two_frequency_mixture(taus, mixed, det, det - IDEAL.delta_tls)
        assert fit.ok
        node = fit.envelope_node_time
        assert node == pytest.approx(0.5 / IDEAL.delta_tls, rel=0.02)

    def test_virtual_z_equivalence_to_physical_detuning(self):
        # Probing with virtual detuning D equals shifting the frame down by D.
        d = 2.33e6
        for xi in (0, 1):
            for tau in np.linspace(0.0, 3e-6, 40):
                virtual = ramsey_probability(QP, QP.f_high, xi, float(tau), d)
                physical = ramsey_probability(
                    replace(QP, f_high=QP.f_high, f_low=QP.f_low),  # same params
                    QP.f_high - d,
                    xi,
                    float(tau),
                    0.0,
                )
                assert abs(virtual - physical) < 1e-9

    def test_frame_phase_accumulates(self):
        rng = substream(407, "framephase")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        ctrl = ControllerState(f_c=QP.f_high)
        _, ctrl = ramsey_cycle(env, ctrl, 1e-6, 2e6, rng)
        assert ctrl.frame_phase == pytest.approx(2 * math.pi * 2e6 * 1e-6)


class TestMitigation:
    def test_pinned_mode_gives_clean_fringes(self):
        taus = tuple(np.linspace(0.0, 2.5e-6, 25))
        cfg = MitigationConfig(tau_grid=taus, n_reps=10, rows=30, tau_probe=1.33e-6)
        rng = substream(408, "mitpin")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        result = run_mitigation(env, cfg, rng)
        n_eff = cfg.n_reps * cfg.rows
        for matrix, det in ((result.no_feedback, cfg.det_nofb), (result.feedback, cfg.det_fb)):
            avg = matrix.values.mean(axis=0)
            fit = fit_cosine(np.array(taus), avg, f_guess=det, t2=QP.t2)
            assert fit.ok
            assert fit.frequency == pytest.approx(det, rel=5e-3)
            assert np.max(np.abs(avg - _cosine_model(np.array(taus), fit, QP.t2))) < 2.0 / math.sqrt(n_eff)

    def test_rep_noise_scales_binomially(self):
        taus = (0.6e-6,)
        cfg = MitigationConfig(tau_grid=taus, n_reps=10, rows=200, tau_probe=1.33e-6)
        rng = substream(409, "mitnoise")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        result = run_mitigation(env, cfg, rng)
        column = result.no_feedback.values[:, 0]
        p = column.mean()
        expected = math.sqrt(p * (1 - p) / cfg.n_reps)
        assert 0.7 * expected < column.std(ddof=1) < 1.3 * expected

    def test_feedback_tracks_true_mode_ideally(self):
        taus = tuple(np.linspace(0.1e-6, 1.5e-6, 5))
        cfg = MitigationConfig(tau_grid=taus, n_reps=4, rows=2, tau_probe=0.5 / IDEAL.delta_tls)
        for xi in (0, 1):
            rng = substream(410, "mitideal", xi)
            env = ideal_env(rng, pinned=xi)
            result = run_mitigation(env, cfg, rng)
            assert all(rec.est_xi == xi for rec in result.trace)

    def test_matrix_values_are_rep_fractions(self):
        taus = tuple(np.linspace(0.0, 2e-6, 8))
        cfg = MitigationConfig(tau_grid=taus, n_reps=7, rows=3, tau_probe=1.33e-6)
        rng = substream(411, "mitfrac")
        env = make_environment(QP, TelegraphParams.from_dwell_time(5.0), rng)
        result = run_mitigation(env, cfg, rng)
        for matrix in (result.no_feedback, result.feedback):
            assert matrix.values.shape == (3, 8)
            scaled = matrix.values * cfg.n_reps
            assert np.max(np.abs(scaled - np.round(scaled))) < 1e-9
        assert len(result.trace) == 3 * 8 * 7

    def test_block_interleaving_preserves_counts(self):
        taus = (0.4e-6, 0.9e-6)
        base = MitigationConfig(tau_grid=taus, n_reps=6, rows=2, tau_probe=1.33e-6)
        blocked = replace(base, block_size=3)
        rng = substream(412, "mitblock")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        result = run_mitigation(env, blocked, rng)
        assert result.no_feedback.values.shape == (2, 2)
        assert len(result.trace) == 2 * 2 * 6

    def test_stationary_mixture_property(self):
        # Open-loop fringe over a stationary symmetric defect equals the
        # average of the two pure-mode fringes (mode redrawn per cycle).
        taus = np.linspace(0.1e-6, 2.4e-6, 12)
        det = 2.0e6
        shots = 4000
        rng = substream(413, "mixture")
        env = make_environment(QP, FROZEN, rng, pinned_mode=0, finite_pulses=False)
        ctrl = ControllerState(f_c=QP.f_high)
        for tau in taus:
            ones = 0
            for _ in range(shots):
                env.tls = TlsState(xi=int(rng.random() < 0.5))
                m, ctrl = ramsey_cycle(env, ctrl, float(tau), det, rng)
                ones += m
            expected = 0.5 * (
                ramsey_probability(QP, QP.f_high, 0, float(tau), det)
                + ramsey_probability(QP, QP.f_high, 1, float(tau), det)
            )
            sigma = math.sqrt(expected * (1 - expected) / shots)
            assert abs(ones / shots - expected) < 4.5 * sigma


class TestStaleness:
    def test_error_rate_grows_with_dead_time(self):
        gamma = 4e3
        tau = default_tau_probe(QP)
        rates = []
        for t_wall in (2e-6, 14e-6):
            rng = substream(414, "stale", f"{t_wall}")
            qp = replace(QP, t_readout=0.0, t_reset=t_wall)
            env = make_environment(qp, TelegraphParams.symmetric(gamma), rng, finite_pulses=False)
            rates.append(syndrome_error_rate(env, 60_000, tau, rng))
        measured_slope = (rates[1] - rates[0]) / (gamma * 12e-6)
        exact = [
            analytics.p_err_bandwidth_exact(QP.delta_tls, gamma, QP.alpha, QP.t2, t)
            for t in (2e-6, 14e-6)
        ]
        expected_slope = (exact[1] - exact[0]) / (gamma * 12e-6)
        assert measured_slope == pytest.approx(expected_slope, rel=0.3)


class TestEnvironment:
    def test_frozen_unpinned_rejected(self):
        rng = substream(415, "env")
        with pytest.raises(ValueError, match="pin"):
            make_environment(QP, FROZEN, rng)

    def test_stationary_draw(self):
        rng = substream(416, "env")
        counts = sum(
            make_environment(QP, TelegraphParams(3.0, 1.0), rng).tls.xi for _ in range(4000)
        )
        sigma = math.sqrt(0.75 * 0.25 / 4000)
        assert abs(counts / 4000 - 0.75) < 4 * sigma


class TestXGatePopulation:
    def test_matches_rabi_formula_without_decoherence(self):
        from bistable_qubit.bloch import rabi_transition_probability

        for f_c in (IDEAL.f_high, IDEAL.f_low, 0.5 * (IDEAL.f_low + IDEAL.f_high)):
            for xi in (0, 1):
                pop = x_gate_excited_population(IDEAL, f_c, xi)
                dq = f_c - IDEAL.mode_frequency(xi)
                assert pop == pytest.approx(rabi_transition_probability(dq, IDEAL), abs=1e-12)

    def test_decoherence_lowers_population(self):
        assert x_gate_excited_population(QP, QP.f_high, 0) < 1.0


def _reference_cycle(env, f_c, tau, phase, clock, rng):
    """The stepwise two-pulse cycle with no memo: each Bloch step applied as its mode is drawn.

    Returns the state before readout, the advanced clock and whether the mode
    changed anywhere between the first pulse and the second.
    """
    qp = env.qubit
    state = reset()
    xi_first = env.tls.xi
    switched = False
    for k, axis_phase in enumerate((0.0, phase)):
        if k == 1:
            segments, env.tls = telegraph.dwell_segments(env.tls, env.tls_params, tau, rng)
            for xi, dt in segments:
                state = free_evolve(state, detuning(qp, f_c, xi), dt, qp)
            switched = len(segments) > 1 or env.tls.xi != xi_first
            clock += tau
        if env.finite_pulses:
            pulse = PulseSpec.finite(axis_phase, -HALF_PI, qp)
        else:
            pulse = PulseSpec.instantaneous(axis_phase, -HALF_PI)
        state = apply_pulse(state, pulse, detuning(qp, f_c, env.tls.xi), qp)
        if pulse.duration > 0.0:
            env.tls = telegraph.evolve(env.tls, env.tls_params, pulse.duration, rng)
        clock += pulse.duration
    return state, clock, switched


class TestCycleMemo:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        high=st.booleans(),
        xi=st.sampled_from([0, 1]),
        tau=st.floats(0.0, 5e-6),
        phase=st.floats(-20.0, 20.0),
        finite=st.booleans(),
    )
    def test_memoised_switch_free_state_is_bit_identical(self, high, xi, tau, phase, finite):
        key = (QP, finite, QP.f_high if high else QP.f_low, xi, tau, phase)
        # The key and every key one field away, all through the memo, so a
        # field missing from the key would return a neighbour's state.
        keys = [key]
        for i, other in ((1, not finite), (2, QP.f_low if high else QP.f_high), (3, 1 - xi),
                         (4, 2.0 * tau + 1e-7), (5, phase + 1.0), (0, IDEAL)):
            keys.append(key[:i] + (other,) + key[i + 1:])
        states = [_switch_free_state(*k) for k in keys]
        for k, state in zip(keys, states):
            qp, fin, f_c, mode, t, ph = k
            assert state == _switch_free_state(*k) == _switch_free_state.__wrapped__(*k)
            env = make_environment(qp, FROZEN, None, pinned_mode=mode, finite_pulses=fin)
            assert state == _reference_cycle(env, f_c, t, ph, 0.0, None)[0]

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rate=st.sampled_from([0.0, 1e3, 1e5, 1e6]),
        high=st.booleans(),
        tau=st.floats(0.0, 5e-6),
        phase=st.floats(-20.0, 20.0),
        finite=st.booleans(),
    )
    def test_cycle_matches_stepwise_reference(self, seed, rate, high, tau, phase, finite):
        tls = TelegraphParams(rate, 0.6 * rate)
        rng = substream(417, "cycle", seed)
        env = Environment(QP, tls, TlsState(xi=seed % 2), finite)
        ref_env = Environment(QP, tls, env.tls, finite)
        ref_rng = copy.deepcopy(rng)
        f_c = QP.f_high if high else QP.f_low
        clock = ref_clock = 0.0
        for _ in range(15):
            state, clock = _two_pulse_cycle(env, f_c, tau, phase, clock, rng)
            ref_state, ref_clock, _ = _reference_cycle(ref_env, f_c, tau, phase, ref_clock, ref_rng)
            assert (state, clock, env.tls) == (ref_state, ref_clock, ref_env.tls)
            assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)

    def test_switching_cycles_match_the_reference(self):
        # Dwell ~ tau: cycles with and without a switch both occur.
        tls = TelegraphParams(4e5, 3e5)
        rng = substream(418, "cycle-switching")
        env = Environment(QP, tls, TlsState(xi=0), True)
        ref_env = Environment(QP, tls, env.tls, True)
        ref_rng = copy.deepcopy(rng)
        switched = 0
        for k in range(400):
            tau = 0.5e-6 + 1e-8 * k
            state, _ = _two_pulse_cycle(env, QP.f_high, tau, 0.3, 0.0, rng)
            ref_state, _, ref_switched = _reference_cycle(ref_env, QP.f_high, tau, 0.3, 0.0, ref_rng)
            assert state == ref_state
            assert env.tls == ref_env.tls
            switched += ref_switched
        assert 100 < switched < 300


def _cosine_model(taus, fit, t2):
    return fit.offset + fit.amplitude * np.exp(-taus / t2) * np.cos(
        2 * math.pi * fit.frequency * taus + fit.phase
    )
